// storage_rw: the paper's Fig 6/8 shape. One ReplayService on one testbed hosts
// the mmc and usb driverlets with one session each; a single closed-loop
// client issues DB-like block reads and writes (BlockMix) and one Attest +
// VerifyQuote per 64 ops. An op is one ReplayService::Invoke, or one Attest +
// VerifyQuote. Heavy on core.integrity, core.replayer and tee.service (two
// world switches per op); light on selection (small slots).
//
// Checks: every read is compared byte for byte with a shadow copy of what the
// client wrote; every quote must verify, round-trip through its text form and
// count exactly the session's invokes; and a fresh deployment replaying the
// first ops of the stream must reproduce their read bytes and their SimClock
// time exactly (host speed never moves the model).
#include <cinttypes>
#include <memory>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/core/integrity.h"
#include "src/obs/telemetry.h"
#include "src/workload/deploy_util.h"

namespace dlt::perf {
namespace {

constexpr uint64_t kSpan = 16384;  // blocks per device: the client's "database file"
constexpr uint32_t kWarmBlocks = 256;
constexpr uint64_t kAttestEvery = 64;
constexpr uint64_t kModelOps = 4096;  // model_us_per_op covers this fixed prefix
constexpr const char* kClass[2] = {"mmc", "usb"};
constexpr const char* kEntry[2] = {kMmcEntry, kUsbEntry};

struct Deployment {
  std::unique_ptr<Rpi3Testbed> tb;
  std::unique_ptr<ReplayService> svc;
  SessionId sid[2] = {0, 0};

  void TearDown() {
    svc.reset();
    tb.reset();
  }
};

// Deploy-time bring-up (what setup_s times): testbed and TEE, verify and
// register both sealed packages, open one session each.
bool BringUp(const std::string& dir, Deployment* d) {
  TestbedOptions o;
  o.secure_io = true;
  o.probe_drivers = false;
  d->tb = std::make_unique<Rpi3Testbed>(o);
  d->svc = std::make_unique<ReplayService>(&d->tb->tee(), kDeveloperKey);
  for (int i = 0; i < 2; ++i) {
    Result<std::string> name = d->svc->RegisterDriverletFile(PackagePath(dir, kClass[i]));
    if (!name.ok()) {
      std::fprintf(stderr, "storage_rw: register %s: %s\n", kClass[i], StatusName(name.status()));
      return false;
    }
    Result<SessionId> sid = d->svc->OpenSession(*name);
    if (!sid.ok()) {
      return false;
    }
    d->sid[i] = *sid;
  }
  return true;
}

enum class Mode { kPlain, kTraced, kArmed };

// Per-layer samples of the traced pass (paired calls on the same request).
struct LayerSamples {
  std::vector<double> self_us;
  uint64_t io_ops = 0, events = 0, attempts = 0, resets = 0, switches = 0;
};

// The one client: closed loop, one request at a time. With |cpu| set it
// issues each op on a quiet core.
class Client {
 public:
  Client(uint64_t seed, Deployment* d, Report* r, QuietCpu* cpu)
      : seed_(seed), d_(d), r_(r), cpu_(cpu), mix_(seed, kSpan, 2), payload_rng_(seed ^ 0x5eed) {
    Rng base_rng(seed ^ 0xba5e);
    for (int i = 0; i < 2; ++i) {
      base_[i] = 8 * base_rng.Below(1 << 17);
      shadow_[i].assign(kSpan * 512, 0);
    }
    buf_.resize(kWarmBlocks * 512);
  }

  // Writes every block of both ranges once, so reads always have data to
  // check and the media stop growing before timing starts. Untimed.
  bool WarmUp() {
    for (uint32_t dev = 0; dev < 2; ++dev) {
      for (uint64_t off = 0; off < kSpan; off += kWarmBlocks) {
        BlockOp op{true, kWarmBlocks, off, dev};
        if (!Io(op, Mode::kPlain, nullptr, 0).ok()) {
          return false;
        }
      }
    }
    return true;
  }

  // Runs ops until |seconds| pass or |max_ops| ops ran; appends each op's
  // latency. Returns the summed op time (the timed wall time), in seconds.
  double Pass(Mode mode, double seconds, uint64_t max_ops, Samples* lat_us) {
    Telemetry& tel = Telemetry::Get();
    if (mode == Mode::kArmed) {
      tel.Enable();
    }
    uint64_t timed_ns = 0;
    uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t n = 0; n < max_ops && NowNs() < deadline; ++n) {
      if (ops_ == 0) {
        model_t0_ = d_->tb->clock().now_us();
      }
      if (cpu_ != nullptr) {
        cpu_->Wait();
      }
      double us = Step(mode);
      lat_us->Add(us);
      timed_ns += static_cast<uint64_t>(us * 1e3);
      if (mode == Mode::kPlain && ops_ <= kModelOps) {
        model_us_ = d_->tb->clock().now_us() - model_t0_;
        model_ops_ = ops_;
      }
    }
    if (mode == Mode::kArmed) {
      tel.Disable();
      tel.Reset();
    }
    return static_cast<double>(timed_ns) / 1e9;
  }

  uint64_t model_ops() const { return model_ops_; }
  uint64_t model_us() const { return model_us_; }
  uint64_t prefix_digest() const { return prefix_digest_; }
  SpanLog& spans() { return spans_; }
  LayerSamples& layers() { return layers_; }

 private:
  // One op; returns its latency in microseconds.
  double Step(Mode mode) {
    uint64_t k = ops_++;
    ++r_->attempted;
    if (k % (kAttestEvery + 1) == kAttestEvery) {
      return Attest(k, mode);
    }
    BlockOp op = mix_.Next();
    double us = 0;
    Result<ReplayStats> res = Io(op, mode, &us, k);
    if (!res.ok()) {
      ++r_->failed;
    }
    return us;
  }

  ReplayArgs Args(const BlockOp& op, size_t n) {
    ReplayArgs args;
    args.scalars = {{"rw", op.write ? kMmcRwWrite : kMmcRwRead},
                    {"blkcnt", op.blkcnt},
                    {"blkid", base_[op.dev] + op.blkid},
                    {"flag", 0}};
    if (op.write) {
      args.ro_buffers["buf"] = ConstBufferView{buf_.data(), n};
    } else {
      args.buffers["buf"] = BufferView{buf_.data(), n};
    }
    return args;
  }

  // The session history a quote must attest to.
  void Count(uint32_t dev, bool ok) {
    ++invokes_[dev];
    if (!ok) {
      ++failures_[dev];
    }
  }

  // Compares a read's bytes with the shadow, or files a write into it.
  void CheckOrFile(const BlockOp& op, size_t n, uint64_t k) {
    uint8_t* shadow = shadow_[op.dev].data() + op.blkid * 512;
    if (op.write) {
      std::memcpy(shadow, buf_.data(), n);
    } else if (std::memcmp(shadow, buf_.data(), n) != 0) {
      r_->Mismatch("storage_rw read differs from the bytes written");
    }
    if (k < kModelOps) {
      prefix_digest_ = Fnv(FnvU64(prefix_digest_, k), buf_.data(), n);
    }
  }

  // One block request through the service. |us| (when set) receives the
  // Invoke latency; the traced mode adds the paired layer calls around it.
  Result<ReplayStats> Io(const BlockOp& op, Mode mode, double* us, uint64_t k) {
    size_t n = static_cast<size_t>(op.blkcnt) * 512;
    if (op.write) {
      payload_rng_.Fill(buf_.data(), n);
    } else {
      std::memset(buf_.data(), 0, n);
    }
    ReplayArgs args = Args(op, n);
    ReplayService& svc = *d_->svc;
    SessionId sid = d_->sid[op.dev];
    if (mode != Mode::kTraced) {
      uint64_t t0 = NowNs();
      Result<ReplayStats> res = svc.Invoke(sid, kEntry[op.dev], args);
      uint64_t t1 = NowNs();
      Count(op.dev, res.ok());
      if (us != nullptr) {
        *us = static_cast<double>(t1 - t0) / 1e3;
      }
      if (res.ok()) {
        CheckOrFile(op, n, k);
      }
      return res;
    }

    uint64_t root = spans_.Open("storage_rw.op", 0, k);
    uint64_t s = spans_.Open("core.store.select", root, k);
    Result<const InteractionTemplate*> tpl =
        svc.store().Select(kClass[op.dev], kEntry[op.dev], args.scalars);
    spans_.Close(s);
    std::string golden;
    if (tpl.ok()) {
      s = spans_.Open("core.integrity.fold", root, k);
      Sha256::Digest g = GoldenMeasurement(**tpl);
      spans_.Close(s);
      golden = Sha256::HexDigest(g);
    }
    uint64_t sw0 = d_->tb->tee().world_switches();
    uint64_t svc_span = spans_.Open("tee.service.invoke", root, k);
    Result<ReplayStats> res = svc.Invoke(sid, kEntry[op.dev], args);
    spans_.Close(svc_span);
    Count(op.dev, res.ok());
    layers_.switches += d_->tb->tee().world_switches() - sw0;
    *us = spans_.DurUs(svc_span);
    if (res.ok()) {
      if (!tpl.ok() || res->measurement != golden) {
        r_->Mismatch("storage_rw runtime measurement differs from the golden chain");
      }
      CheckOrFile(op, n, k);
    }
    // The same request again, straight into the device class's replayer: the
    // difference is the service layer's own time.
    uint64_t rep_span = spans_.Open("core.replayer.invoke", root, k);
    Result<ReplayStats> rep = svc.replayer(kClass[op.dev])->Invoke(kEntry[op.dev], args);
    spans_.Close(rep_span);
    spans_.Close(root);
    if (res.ok() && rep.ok()) {
      if (!op.write && std::memcmp(shadow_[op.dev].data() + op.blkid * 512, buf_.data(), n) != 0) {
        r_->Mismatch("storage_rw paired replayer read differs from the bytes written");
      }
      layers_.self_us.push_back(*us - spans_.DurUs(rep_span));
      ++layers_.io_ops;
      layers_.events += rep->events_executed;
      layers_.attempts += static_cast<uint64_t>(rep->attempts);
      layers_.resets += static_cast<uint64_t>(rep->resets);
    }
    return res;
  }

  double Attest(uint64_t k, Mode mode) {
    uint32_t s = static_cast<uint32_t>(attests_++ % 2);
    std::string nonce = "pb" + std::to_string(seed_) + "-" + std::to_string(k);
    uint64_t span = mode == Mode::kTraced ? spans_.Open("tee.attest.quote", 0, k) : 0;
    uint64_t t0 = NowNs();
    Result<AttestationQuote> q = d_->svc->Attest(d_->sid[s], nonce);
    bool ok = q.ok() && VerifyQuote(*q, kDeveloperKey);
    uint64_t t1 = NowNs();
    if (mode == Mode::kTraced && ok) {
      Result<AttestationQuote> parsed = ParseQuote(SerializeQuote(*q));
      ok = parsed.ok() && VerifyQuote(*parsed, kDeveloperKey);
      t1 = NowNs();
    }
    if (span != 0) {
      spans_.Close(span);
    }
    if (!ok) {
      ++r_->failed;
      r_->Mismatch("storage_rw quote did not verify");
      return static_cast<double>(t1 - t0) / 1e3;
    }
    Result<AttestationQuote> back = ParseQuote(SerializeQuote(*q));
    if (q->nonce != nonce || q->invokes != invokes_[s] || q->failures != failures_[s] ||
        !back.ok() || back->session_measurement != q->session_measurement) {
      r_->Mismatch("storage_rw quote does not match the session's history");
    }
    return static_cast<double>(t1 - t0) / 1e3;
  }

  uint64_t seed_;
  Deployment* d_;
  Report* r_;
  QuietCpu* cpu_;
  BlockMix mix_;
  Rng payload_rng_;
  uint64_t base_[2] = {0, 0};
  std::vector<uint8_t> shadow_[2];
  std::vector<uint8_t> buf_;
  uint64_t ops_ = 0;
  uint64_t attests_ = 0;
  uint64_t invokes_[2] = {0, 0};
  uint64_t failures_[2] = {0, 0};
  uint64_t model_t0_ = 0;
  uint64_t model_us_ = 0;
  uint64_t model_ops_ = 0;
  uint64_t prefix_digest_ = kFnvSeed;
  SpanLog spans_;
  LayerSamples layers_;
};

// Replays the first |ops| ops on a fresh deployment: their read bytes and
// their SimClock time must repeat exactly.
void CheckModelRepeats(const Options& opts, const Client& first, Report* r) {
  Deployment d;
  Report scratch;
  if (!BringUp(opts.dir, &d)) {
    r->Mismatch("storage_rw re-deployment failed");
    return;
  }
  Client again(opts.seed, &d, &scratch, nullptr);
  Samples lat(kModelOps);
  if (!again.WarmUp()) {
    r->Mismatch("storage_rw re-deployment warm-up failed");
    return;
  }
  again.Pass(Mode::kPlain, 1e9, first.model_ops(), &lat);
  if (!scratch.correct || scratch.failed != 0 || again.model_ops() != first.model_ops() ||
      again.model_us() != first.model_us() || again.prefix_digest() != first.prefix_digest()) {
    r->Mismatch("storage_rw replay of the op prefix did not repeat (bytes or SimClock time)");
  }
}

}  // namespace

int RunStorageRw(const Options& opts) {
  Report r;
  Deployment d;
  QuietCpu cpu;
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    d.TearDown();
    cpu.Wait();
    bool ok = false;
    setup.push_back(TimeS([&] { ok = BringUp(opts.dir, &d); }));
    if (!ok) {
      return 1;
    }
  }
  Client client(opts.seed, &d, &r, &cpu);
  if (!client.WarmUp()) {
    std::fprintf(stderr, "storage_rw: warm-up writes failed\n");
    return 1;
  }

  if (!opts.trace) {
    EndToEnd e;
    e.op_us.StartSlices(opts.seconds, false);
    e.timed_s = client.Pass(Mode::kPlain, opts.seconds, UINT64_MAX, &e.op_us);
    e.op_us.Finish();
    e.ops = e.op_us.seen() - r.failed;
    e.setup_s = Median(setup);
    e.model_us_per_op =
        static_cast<double>(client.model_us()) / static_cast<double>(client.model_ops());
    ReportEndToEnd("storage_rw", e, &r);
    std::printf("  (model_us_per_op over the first %" PRIu64 " ops)\n", client.model_ops());
    PrintQuietCpu(cpu);
    d.TearDown();
    CheckModelRepeats(opts, client, &r);
    r.PrintJson();
    return r.correct ? 0 : 1;
  }

  // Traced run: an untraced pass, a traced pass and a telemetry-armed pass of
  // equal length over one continuing op stream.
  Samples plain, traced, armed;
  client.Pass(Mode::kPlain, opts.seconds / 3, UINT64_MAX, &plain);
  client.Pass(Mode::kTraced, opts.seconds / 3, UINT64_MAX, &traced);
  client.Pass(Mode::kArmed, opts.seconds / 3, UINT64_MAX, &armed);
  d.TearDown();

  for (int i = 0; i < kSetupReps; ++i) {
    cpu.Wait();
    uint64_t span = client.spans().Open("soc.testbed", 0, 0);
    {
      TestbedOptions o;
      o.secure_io = true;
      o.probe_drivers = false;
      Rpi3Testbed tb(o);
    }
    client.spans().Close(span);
  }
  CheckModelRepeats(opts, client, &r);

  LayerSamples& l = client.layers();
  SpanLog& spans = client.spans();
  double plain_p50 = Median(plain.Values());
  double fold_p50 = Median(spans.DurationsUs("core.integrity.fold"));
  double replayer_p50 = Median(spans.DurationsUs("core.replayer.invoke"));
  double io = static_cast<double>(l.io_ops > 0 ? l.io_ops : 1);
  std::printf("storage_rw per layer (traced pass: %" PRIu64 " ops)\n", traced.seen());
  PrintQuietCpu(cpu);
  r.Layer("core.integrity.fold_us_p50", fold_p50, "us");
  r.Layer("core.integrity.fold_share", fold_p50 / replayer_p50, "ratio");
  r.Layer("core.replayer.invoke_us_p50", replayer_p50, "us");
  r.Layer("core.replayer.events_per_op", static_cast<double>(l.events) / io, "count");
  r.Layer("core.replayer.attempts_per_op", static_cast<double>(l.attempts) / io, "count");
  r.Layer("core.replayer.resets_per_op", static_cast<double>(l.resets) / io, "count");
  r.Layer("tee.service.self_us_p50", Median(l.self_us), "us");
  r.Layer("tee.service.world_switches_per_op", static_cast<double>(l.switches) / io, "count");
  r.Layer("tee.attest.quote_us_p50", Median(spans.DurationsUs("tee.attest.quote")), "us");
  r.Layer("soc.testbed_ms", Median(spans.DurationsUs("soc.testbed")) / 1e3, "ms");
  r.Layer("obs.armed_overhead", Median(armed.Values()) / plain_p50, "ratio");
  r.Layer("bench.trace_overhead.storage_rw", Median(traced.Values()) / plain_p50, "ratio");
  if (!spans.WriteCsv(opts.dir + "/spans-storage_rw.csv")) {
    std::fprintf(stderr, "storage_rw: cannot write the span file\n");
  }
  r.PrintJson();
  return r.correct ? 0 : 1;
}

}  // namespace dlt::perf
