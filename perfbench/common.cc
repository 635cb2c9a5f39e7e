#include "perfbench/common.h"

#include <sched.h>

#include <cinttypes>
#include <cmath>
#include <fstream>

namespace dlt::perf {

namespace {

inline uint32_t Rotr(uint32_t x, unsigned n) { return (x >> n) | (x << (32 - n)); }

// About 2 us of SHA-256 rounds with a rolling message schedule, on
// registers only: the instruction mix of the integrity fold, which sharing a
// core's execution ports slows the most.
__attribute__((noinline)) uint32_t ProbeKernel(uint32_t seed) {
  uint32_t a = seed, b = 0xbb67ae85, c = 0x3c6ef372, d = 0xa54ff53a;
  uint32_t e = 0x510e527f, f = 0x9b05688c, g = 0x1f83d9ab, h = 0x5be0cd19;
  uint32_t w[16] = {};
  for (uint32_t i = 0; i < 512; ++i) {
    uint32_t wi = w[i & 15] += Rotr(w[(i + 1) & 15], 7) ^ Rotr(w[(i + 14) & 15], 17) ^
                               (w[(i + 9) & 15] >> 3) ^ i;
    uint32_t t1 = h + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) + ((e & f) ^ (~e & g)) +
                  0x428a2f98u + wi;
    uint32_t t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  return a ^ e;
}

volatile uint32_t probe_sink;

}  // namespace

QuietCpu::QuietCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus_.push_back(cpu);
    }
  }
  Pick();
}

QuietCpu::~QuietCpu() {
  if (current_ < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

void QuietCpu::PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

uint64_t QuietCpu::ProbeNs() {
  uint64_t best = UINT64_MAX;
  for (uint32_t k = 0; k < 2; ++k) {
    uint64_t t0 = NowNs();
    probe_sink = ProbeKernel(k);
    best = std::min(best, NowNs() - t0);
  }
  quiet_ns_ = std::min(quiet_ns_, best);
  return best;
}

void QuietCpu::Pick() {
  if (cpus_.size() < 2) {
    return;
  }
  int best = current_;
  uint64_t best_ns = UINT64_MAX;
  for (int cpu : cpus_) {
    PinTo(cpu);
    uint64_t ns = ProbeNs();
    if (ns < best_ns) {
      best_ns = ns;
      best = cpu;
    }
  }
  if (best != current_) {
    ++moves_;
  }
  current_ = best;
  PinTo(current_);
}

void QuietCpu::Wait() {
  ++waits_;
  uint64_t t0 = NowNs();
  uint64_t last_pick = t0;
  for (;;) {
    if (static_cast<double>(ProbeNs()) <= 1.1 * static_cast<double>(quiet_ns_)) {
      break;
    }
    uint64_t now = NowNs();
    if (now - t0 >= kMaxWaitNs) {
      ++contended_;
      break;
    }
    if (now - last_pick >= kRepickNs) {
      Pick();
      last_pick = NowNs();
    }
  }
  waited_ns_ += NowNs() - t0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

bool SpanLog::WriteCsv(const std::string& path, size_t max_rows) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,name,start_ns,end_ns,parent,request\n");
  size_t rows = std::min(max_rows, spans_.size());
  for (size_t i = 0; i < rows; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n", i + 1, s.name,
                 s.start_ns, s.end_ns, s.parent, s.request);
  }
  if (rows < spans_.size()) {
    std::fprintf(f, "# %zu more spans not written\n", spans_.size() - rows);
  }
  return std::fclose(f) == 0;
}

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", metrics[i].first.c_str(), v);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Samples::SlicedPercentile(double q) const {
  std::vector<double> per_slice;
  size_t begin = 0;
  for (size_t i = 0; i <= starts_.size(); ++i) {
    size_t end = i < starts_.size() ? starts_[i] : n_;
    if (end > begin) {
      std::vector<double> slice(v_.begin() + begin, v_.begin() + end);
      per_slice.push_back(Percentile(&slice, q));
    }
    begin = end;
  }
  return Median(per_slice);
}

double Samples::SlicedRate() const {
  std::vector<double> per_slice;
  for (size_t i = 0; i < kSlices; ++i) {
    if (ops_[i] == 0) {
      continue;
    }
    uint64_t slice_end = i + 1 < kSlices ? t0_ + (i + 1) * slice_ns_ : t_end_;
    double s = rate_by_wall_ ? static_cast<double>(slice_end - (t0_ + i * slice_ns_)) / 1e9
                             : sum_us_[i] / 1e6;
    if (s > 0) {
      per_slice.push_back(static_cast<double>(ops_[i]) / s);
    }
  }
  return Median(per_slice);
}

void ReportEndToEnd(const char* workload, const EndToEnd& e, Report* r) {
  double rss = PeakRssMb();
  double p50 = e.op_us.SlicedPercentile(0.50);
  double p99 = e.op_us.SlicedPercentile(0.99);
  double ops_per_s = e.op_us.SlicedRate();
  double fail_share =
      r->attempted > 0 ? static_cast<double>(r->failed) / static_cast<double>(r->attempted) : 0;
  std::printf("%s end to end (tracing off; medians over %zu time slices)\n", workload,
              Samples::kSlices);
  std::printf("  op_p50_us        %12.3f us\n", p50);
  std::printf("  op_p99_us        %12.3f us      n=%" PRIu64 " ops\n", p99, e.op_us.seen());
  std::printf("  ops_per_s        %12.1f ops/s   %" PRIu64 " ops in %.3f s timed\n", ops_per_s,
              e.ops, e.timed_s);
  std::printf("  setup_s          %12.4f s       median of %d bring-ups\n", e.setup_s,
              kSetupReps);
  std::printf("  peak_rss_mb      %12.1f MB\n", rss);
  if (e.model_us_per_op >= 0) {
    std::printf("  model_us_per_op  %12.3f us (SimClock)\n", e.model_us_per_op);
  } else {
    std::printf("  model_us_per_op           n/a      no simulated device on this path\n");
  }
  std::printf("  fail_share       %12.6f        %" PRIu64 " of %" PRIu64 " ops failed\n",
              fail_share, r->failed, r->attempted);
  r->Add("op_p50_us", p50);
  r->Add("op_p99_us", p99);
  r->Add("ops_per_s", ops_per_s);
  r->Add("setup_s", e.setup_s);
  r->Add("peak_rss_mb", rss);
}

void PrintQuietCpu(const QuietCpu& cpu) {
  std::printf("  quiet-core gate: %" PRIu64 " waits, %" PRIu64 " gave up, %" PRIu64
              " CPU moves, %.3f s waited (untimed)\n",
              cpu.waits(), cpu.contended(), cpu.moves(), cpu.waited_s());
}

}  // namespace dlt::perf
