// store_100k: template selection at fleet scale. A 100k-template scale corpus
// (16 entries), sealed v2 and registered zero-copy with
// TemplateStore::AddPackageFile, is probed by one closed-loop client. An op is
// one TemplateStore::Select. Targets are Zipf-skewed (theta 0.99) over a
// seeded permutation of the corpus, so a hot set stays hydrated while a cold
// tail keeps paying first-touch hydration; one probe in 20 is an input no
// template covers. All the work is in core.store: index probe, hydration and,
// in setup_s, registration. No device is simulated.
//
// Checks: every covered probe must select exactly its target (by name) with
// its event body hydrated; every uncovered probe must return kNoTemplate.
#include <cinttypes>
#include <cmath>
#include <memory>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/core/template_store.h"
#include "src/workload/record_campaigns.h"

namespace dlt::perf {
namespace {

constexpr double kZipfTheta = 0.99;
constexpr uint64_t kUncoveredEvery = 20;
constexpr uint64_t kWarmProbes = 2000000;

struct Probe {
  bool uncovered = false;
  std::string entry;
  Bindings scalars;
  std::string want;  // winner's name; empty for uncovered probes
};

// The seeded probe stream.
class ProbeGen {
 public:
  ProbeGen(uint64_t seed, const ScaleCorpus* corpus) : rng_(seed ^ 0x2199), corpus_(corpus) {
    size_t n = corpus->cfg.templates;
    cdf_.resize(n);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
    rank_to_target_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      rank_to_target_[i] = static_cast<uint32_t>(i);
    }
    rng_.Shuffle(&rank_to_target_);
  }

  uint64_t issued() const { return k_; }

  void Next(Probe* p) {
    if (k_ % kUncoveredEvery == 0) {
      uncovered_at_ = k_ + rng_.Below(kUncoveredEvery);
    }
    size_t bodies = corpus_->base_scalars.size();
    if (k_++ == uncovered_at_) {
      // Above every eq key and residual target, outside every range window,
      // no mask bits: nothing in the corpus accepts it.
      p->uncovered = true;
      p->entry = ScaleEntry(corpus_->cfg, rng_.Below(corpus_->cfg.entries));
      p->scalars = corpus_->base_scalars[rng_.Below(bodies)];
      p->scalars["sel"] = (1ull << 33) + rng_.Below(1ull << 30);
      p->scalars["lvl"] = 0xffffffffull;
      p->scalars["flags"] = 1;
      p->want.clear();
      return;
    }
    size_t rank = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), rng_.Unit()) -
                                      cdf_.begin());
    size_t target = rank_to_target_[std::min(rank, cdf_.size() - 1)];
    p->uncovered = false;
    p->entry = ScaleEntry(corpus_->cfg, target);
    p->scalars = ScaleInvokeScalars(*corpus_, target);
    p->want = "scale_" + std::to_string(target);
  }

 private:
  Rng rng_;
  const ScaleCorpus* corpus_;
  std::vector<double> cdf_;
  std::vector<uint32_t> rank_to_target_;
  uint64_t k_ = 0;
  uint64_t uncovered_at_ = 0;
};

// Per-layer accounting of the traced run. Without |spans| (the warm-up) only
// the cold selects are recorded, as core.store.cold_select spans.
struct Traced {
  bool spans = true;
  SpanLog log;
  uint64_t selects = 0, scanned = 0, probes = 0, hydrations = 0;
};

// Probes until |seconds| pass or |max_probes| ran; appends each Select's
// latency and returns their sum (the timed wall time) in seconds. Without
// |lat_us| (the warm-up) probes are checked but not counted as ops.
double Pass(const TemplateStore& store, ProbeGen* gen, double seconds, uint64_t max_probes,
            Traced* traced, Samples* lat_us, Report* r) {
  Probe p;
  uint64_t timed_ns = 0;
  uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t k = 0; k < max_probes && NowNs() < deadline; ++k) {
    uint64_t id = gen->issued();
    gen->Next(&p);
    bool spans = traced != nullptr && traced->spans;
    uint64_t sel = 0, scanned0 = 0, probes0 = 0, hydrated0 = 0;
    if (traced != nullptr) {
      scanned0 = store.candidates_scanned();
      probes0 = store.index_probes();
      hydrated0 = store.hydrated_templates();
    }
    if (spans) {
      sel = traced->log.Open("core.store.select", 0, id);  // the op itself: no parent
    }
    uint64_t t0 = NowNs();
    Result<const InteractionTemplate*> res = store.Select(kScaleDriverlet, p.entry, p.scalars);
    uint64_t t1 = NowNs();
    if (traced != nullptr) {
      if (spans) {
        traced->log.Close(sel);
      }
      uint64_t hydrated = store.hydrated_templates() - hydrated0;
      traced->scanned += store.candidates_scanned() - scanned0;
      traced->probes += store.index_probes() - probes0;
      traced->hydrations += hydrated;
      ++traced->selects;
      if (hydrated > 0) {
        traced->log.Add("core.store.cold_select", t0, t1, sel, id);
      }
    }
    if (lat_us != nullptr) {
      ++r->attempted;
      lat_us->Add(static_cast<double>(t1 - t0) / 1e3);
      timed_ns += t1 - t0;
    }
    if (p.uncovered) {
      if (res.status() != Status::kNoTemplate) {
        r->Mismatch("store_100k uncovered probe did not return kNoTemplate");
      }
    } else if (!res.ok()) {
      if (lat_us != nullptr) {
        ++r->failed;
      }
      r->Mismatch("store_100k covered probe selected nothing");
    } else if ((*res)->name != p.want || (*res)->events.empty()) {
      r->Mismatch("store_100k selected the wrong or an unhydrated template");
    }
  }
  return static_cast<double>(timed_ns) / 1e9;
}

}  // namespace

int RunStore100k(const Options& opts) {
  ScaleCorpus corpus;
  if (!LoadScaleCorpusShell(opts.dir, &corpus)) {
    std::fprintf(stderr, "store_100k: missing corpus scalars in %s\n", opts.dir.c_str());
    return 1;
  }
  Report r;
  std::string path = PackagePath(opts.dir, "scale");
  std::unique_ptr<TemplateStore> store;
  std::vector<double> setup;
  Traced t;
  for (int i = 0; i < kSetupReps; ++i) {
    store.reset();
    Status st = Status::kOk;
    setup.push_back(TimeS([&] {
      store = std::make_unique<TemplateStore>();
      uint64_t span = t.log.Open("core.store.register", 0, 0);
      st = store->AddPackageFile(path, kDeveloperKey);
      t.log.Close(span);
    }));
    if (!Ok(st)) {
      std::fprintf(stderr, "store_100k: AddPackageFile: %s\n", StatusName(st));
      return 1;
    }
  }
  if (store->lazy_template_count() != kScaleTemplates || store->hydrated_templates() != 0) {
    r.Mismatch("store_100k registration hydrated templates or lost some");
  }

  // The first probes hydrate most of the corpus: at theta 0.99 the cold
  // share falls from 11% after 0.2M probes to 0.7% after 2M. They are an
  // untimed warm-up of fixed length, so the timed figures describe the steady
  // state instead of where in that transient a run of a given speed ends.
  // The traced run keeps their cold selects for core.store.cold_select_us_p50.
  ProbeGen gen(opts.seed, &corpus);
  Traced warm;
  warm.spans = false;
  Pass(*store, &gen, 1e9, kWarmProbes, opts.trace ? &warm : nullptr, nullptr, &r);
  if (!opts.trace) {
    EndToEnd e;
    e.op_us.StartSlices(opts.seconds, false);
    e.timed_s = Pass(*store, &gen, opts.seconds, UINT64_MAX, nullptr, &e.op_us, &r);
    e.op_us.Finish();
    e.ops = e.op_us.seen() - r.failed;
    e.setup_s = Median(setup);
    ReportEndToEnd("store_100k", e, &r);
    r.PrintJson();
    return r.correct ? 0 : 1;
  }

  Samples plain, traced_us;
  Pass(*store, &gen, opts.seconds / 2, UINT64_MAX, nullptr, &plain, &r);
  Pass(*store, &gen, opts.seconds / 2, UINT64_MAX, &t, &traced_us, &r);
  double selects = static_cast<double>(t.selects > 0 ? t.selects : 1);
  std::vector<double> sel = t.log.DurationsUs("core.store.select");
  std::vector<double> cold = warm.log.DurationsUs("core.store.cold_select");
  std::vector<double> cold_traced = t.log.DurationsUs("core.store.cold_select");
  cold.insert(cold.end(), cold_traced.begin(), cold_traced.end());
  std::printf("store_100k per layer (traced pass: %" PRIu64 " selects; %zu cold selects, "
              "warm-up included)\n",
              traced_us.seen(), cold.size());
  r.Layer("core.store.select_us_p50", Percentile(&sel, 0.50), "us");
  r.Layer("core.store.select_us_p99", Percentile(&sel, 0.99), "us");
  r.Layer("core.store.cold_select_us_p50", Median(cold), "us");
  r.Layer("core.store.candidates_per_select", static_cast<double>(t.scanned) / selects, "count");
  r.Layer("core.store.index_probe_share", static_cast<double>(t.probes) / selects, "ratio");
  r.Layer("core.store.hydrations", static_cast<double>(warm.hydrations + t.hydrations), "count");
  std::vector<double> register_us = t.log.DurationsUs("core.store.register");
  r.Layer("core.store.register_s", Median(register_us) / 1e6, "s");
  r.Layer("bench.trace_overhead.store_100k", Median(traced_us.Values()) / Median(plain.Values()),
          "ratio");
  if (!t.log.WriteCsv(opts.dir + "/spans-store_100k.csv")) {
    std::fprintf(stderr, "store_100k: cannot write the span file\n");
  }
  r.PrintJson();
  return r.correct ? 0 : 1;
}

}  // namespace dlt::perf
