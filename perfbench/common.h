// Shared plumbing for the perfbench workloads: host clocks, the seeded input
// generator, exact percentiles over raw samples, output digests, the in-memory
// span log of the traced run, and the result line run.py parses.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace dlt::perf {

// Deploy-time bring-up is repeated this many times per run; setup_s is the
// median, so one slow allocation or page-cache miss does not move it.
inline constexpr int kSetupReps = 7;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  // inputs written by `perfbench gen`; span files go here too
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// splitmix64: every input the benchmark feeds the program derives from --seed
// through one of these.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }
  void Fill(uint8_t* p, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t x = Next();
      std::memcpy(p + i, &x, 8);
    }
    if (i < n) {
      uint64_t x = Next();
      std::memcpy(p + i, &x, n - i);
    }
  }

 private:
  uint64_t s_;
};

// FNV-1a over 8-byte words (bytes for the tail): a per-session output digest
// cheap enough to run over whole camera frames on the client thread.
inline constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ull;
inline uint64_t Fnv(uint64_t h, const uint8_t* p, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  for (; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}
inline uint64_t FnvU64(uint64_t h, uint64_t v) {
  return Fnv(h, reinterpret_cast<const uint8_t*>(&v), sizeof v);
}

// Nearest-rank percentile of raw samples (sorted in place). Never a bucket
// bound: this is why the benchmark keeps every sample.
inline double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}
inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

// Raw per-op latencies (microseconds) in a fixed buffer that is touched up
// front, so the benchmark's own bookkeeping never moves peak_rss_mb. When the
// buffer fills, every other sample is dropped and from then on only every
// 2nd (4th, ...) op is kept: a uniform thinning that keeps exact values.
//
// An end-to-end pass is cut into kSlices equal time slices, and each figure
// is the median over slices of that slice's figure: a stall of the shared
// host moves one or two slices, not the result.
class Samples {
 public:
  static constexpr size_t kSlices = 10;

  explicit Samples(size_t capacity = size_t{1} << 21) : v_(capacity, 0.0) {}

  // Starts the slices of a pass that begins now and lasts |seconds| (ops
  // after that fall into the last slice). A slice's rate is its ops over
  // its wall time when |rate_by_wall|, else over the sum of its op latencies
  // (a single closed-loop client, whose untimed work between ops is the
  // benchmark's own).
  void StartSlices(double seconds, bool rate_by_wall) {
    t0_ = NowNs();
    slice_ns_ = std::max<uint64_t>(1, static_cast<uint64_t>(seconds * 1e9 / kSlices));
    rate_by_wall_ = rate_by_wall;
  }
  // Marks the end of the pass (the end of the last slice).
  void Finish() { t_end_ = NowNs(); }

  void Add(double us) {
    if (slice_ns_ > 0) {
      size_t slice = std::min<size_t>((NowNs() - t0_) / slice_ns_, kSlices - 1);
      while (starts_.size() < slice) {
        starts_.push_back(n_);
      }
      ++ops_[slice];
      sum_us_[slice] += us;
    }
    if (++seen_ % stride_ != 0) {
      return;
    }
    if (n_ == v_.size()) {
      for (size_t i = 0; i < n_ / 2; ++i) {
        v_[i] = v_[2 * i + 1];
      }
      for (size_t& b : starts_) {
        b /= 2;
      }
      n_ /= 2;
      stride_ *= 2;
      if (seen_ % stride_ != 0) {
        return;
      }
    }
    v_[n_++] = us;
  }

  uint64_t seen() const { return seen_; }
  std::vector<double> Values() const { return {v_.begin(), v_.begin() + n_}; }

  // Medians over slices of each slice's percentile |q| and ops per second.
  double SlicedPercentile(double q) const;
  double SlicedRate() const;

 private:
  std::vector<double> v_;
  size_t n_ = 0;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
  uint64_t t0_ = 0;
  uint64_t t_end_ = 0;
  uint64_t slice_ns_ = 0;
  bool rate_by_wall_ = false;
  std::vector<size_t> starts_;  // index of the first kept sample of slices 1..
  uint64_t ops_[kSlices] = {};
  double sum_us_[kSlices] = {};
};

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

// Issues a single-threaded client's ops on a quiet core. On a shared
// virtual machine other guests run on the hyperthread siblings of some of its
// CPUs, and which ones changes every few hundred milliseconds; integer code on
// a contended CPU runs 1.5 to 2.4 times slower, which would make the figures
// measure the neighbours instead of the program. Before each op (untimed),
// Wait times a 2 us SHA-256-shaped integer kernel on the client's CPU and
// returns once it runs within 10% of the fastest time seen; while it does
// not, the client moves to the CPU where the kernel runs fastest. After
// kMaxWaitNs it gives up and the op runs contended. Every op is timed and
// kept: this chooses when and where the client issues, never what is counted.
class QuietCpu {
 public:
  static constexpr uint64_t kRepickNs = 1'000'000;
  static constexpr uint64_t kMaxWaitNs = 100'000'000;

  QuietCpu();   // pins the thread to the quietest CPU it may run on now
  ~QuietCpu();  // gives the thread all of them back

  void Wait();

  uint64_t waits() const { return waits_; }
  uint64_t contended() const { return contended_; }  // waits that gave up
  uint64_t moves() const { return moves_; }
  double waited_s() const { return static_cast<double>(waited_ns_) / 1e9; }

 private:
  uint64_t ProbeNs();  // the kernel's best time on the current CPU
  void Pick();         // moves to the CPU where the kernel runs fastest
  void PinTo(int cpu);

  std::vector<int> cpus_;
  int current_ = -1;
  uint64_t quiet_ns_ = UINT64_MAX;  // fastest kernel time seen
  uint64_t waits_ = 0;
  uint64_t contended_ = 0;
  uint64_t moves_ = 0;
  uint64_t waited_ns_ = 0;
};

// Spans of the traced run: recorded in memory around each call the benchmark
// makes into a layer, written out as CSV when the run ends. Span ids start at
// 1; parent 0 marks a root (one op). Spans of one op share its request id.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t parent;
    uint64_t request;
  };

  // Opens a span starting now; Close stamps its end. Returns the span id.
  uint64_t Open(const char* name, uint64_t parent, uint64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return spans_.size();
  }
  void Close(uint64_t id) { spans_[id - 1].end_ns = NowNs(); }
  double DurUs(uint64_t id) const {
    const Span& s = spans_[id - 1];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  // A span timed by the caller.
  uint64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t parent,
               uint64_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return spans_.size();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Durations, in microseconds, of every span named |name|.
  std::vector<double> DurationsUs(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  // Writes the first |max_rows| spans (all spans stay in memory for the
  // metrics); a last comment line counts any left out.
  bool WriteCsv(const std::string& path, size_t max_rows = size_t{1} << 18) const;

 private:
  std::vector<Span> spans_;
};

// What one workload process reports: the checks' verdict, op accounting and
// named metric values (units live in run.py's table and in BENCHMARK.json).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void Add(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
  // Adds a per-layer metric and prints it for humans with its unit.
  void Layer(std::string name, double value, const char* unit) {
    std::printf("  %-40s %14.4f %s\n", name.c_str(), value, unit);
    Add(std::move(name), value);
  }
  // Records an output-check mismatch (reported, and the run exits nonzero).
  void Mismatch(const char* what) {
    if (correct) {
      std::fprintf(stderr, "perfbench: output check failed: %s\n", what);
    }
    correct = false;
  }
  // The last stdout line: one JSON object.
  void PrintJson() const;
};

// The seven end-to-end figures of one untraced run, printed for humans with
// their units before the JSON line.
struct EndToEnd {
  Samples op_us;      // per-op latencies, sliced
  uint64_t ops = 0;   // completed ops
  double timed_s = 0;         // timed wall time
  double setup_s = 0;
  double model_us_per_op = -1;  // < 0: no simulated device on this workload
};
void ReportEndToEnd(const char* workload, const EndToEnd& e, Report* r);
// How often the client waited for a quiet core, for humans.
void PrintQuietCpu(const QuietCpu& cpu);

// Host wall time of |fn|, in seconds.
template <typename Fn>
double TimeS(Fn&& fn) {
  uint64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

}  // namespace dlt::perf

#endif  // PERFBENCH_COMMON_H_
