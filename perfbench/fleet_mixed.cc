// fleet_mixed: the scale-out serving path. A ReplayFleet of 4 shards and 3
// worker threads serves 12 pinned sessions (4 mmc, 4 usb, 2 cryptoacc, 1 fTPM,
// 1 camera) for one closed-loop client thread: 4 threads on 4 cores. Every
// dispatch is a SubmitBatch of 8 commands; the client keeps a fixed window of
// outstanding batches, no deeper than a shard queue, collects them in order
// with WaitBatchCompletion and never sleeps. The fleet is unpaced
// (invoke_floor_us = 0), so any scaling comes from the CPU. An op is one
// command; its latency is its batch's submit-to-collection time. The only
// workload on tee.fleet (locks, queues, stealing), on InvokeBatch (0.25 world
// switches per command) and on simulator-heavy camera captures.
//
// Check: per-session FNV digests over every command's status and output bytes
// must equal those of a sequential run of the same per-session commands on a
// single ReplayService. Sessions own disjoint block ranges, and the stateful
// devices (fTPM DRBG and PCRs, the camera frame sequence) have one session
// each, so no shard interleaving can change a session's outputs.
#include <cinttypes>
#include <deque>
#include <memory>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/tee/replay_fleet.h"
#include "src/workload/deploy_util.h"

namespace dlt::perf {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kThreads = 3;
constexpr size_t kBatch = 8;
// Outstanding batches: at most a shard queue (64), so no kBusy, and at most
// the camera spacing (32), so one camera buffer set is enough.
constexpr size_t kWindow = 32;
constexpr uint64_t kSessionSpan = 4096;  // blocks per block session
constexpr size_t kPoolBuffers = 16;
constexpr size_t kMaxIo = 256 * 512;

enum class Cls : uint8_t { kMmc, kUsb, kCrypto, kFtpm, kCamera };
constexpr const char* kClassName[] = {"mmc", "usb", "cryptoacc", "ftpm", "camera"};
constexpr const char* kClassEntry[] = {kMmcEntry, kUsbEntry, kCryptoaccEntry, kFtpmEntry,
                                       kCameraEntry};

struct SessionSpec {
  Cls cls;
  size_t shard;
};
// Camera and fTPM sit on different shards; every shard serves one mmc and one
// usb session.
constexpr SessionSpec kSessions[] = {
    {Cls::kMmc, 0},    {Cls::kMmc, 1},    {Cls::kMmc, 2},  {Cls::kMmc, 3},
    {Cls::kUsb, 0},    {Cls::kUsb, 1},    {Cls::kUsb, 2},  {Cls::kUsb, 3},
    {Cls::kCrypto, 2}, {Cls::kCrypto, 3}, {Cls::kFtpm, 1}, {Cls::kCamera, 0},
};
constexpr size_t kNumSessions = sizeof(kSessions) / sizeof(kSessions[0]);
constexpr size_t kCameraSession = 11;

// One command, as drawn from the seed; the reference run rebuilds the same
// request from it.
struct Cmd {
  uint32_t op = 0;  // block: 1 = write; cryptoacc: kCaOp*; fTPM: ordinal
  uint32_t a = 0;   // blkcnt / len / arg
  uint64_t b = 0;   // blkid / key
  uint32_t payload = 0;
};

struct Batch {
  uint32_t session = 0;
  bool rejected = false;
  bool traced = false;
  double lat_us = 0;
  Cmd cmds[kBatch];
};

// The seeded batch schedule: groups of 32 batches with a fixed composition
// (camera first, then 12 mmc, 12 usb, 4 cryptoacc and 3 fTPM in seeded
// order), so camera batches are 32 apart and never two in flight.
class Schedule {
 public:
  explicit Schedule(uint64_t seed) : rng_(seed ^ 0x5c4ed) {
    Rng base_rng(seed ^ 0xba5e);
    uint64_t base = 8 * base_rng.Below(1 << 16);
    for (size_t s = 0; s < kNumSessions; ++s) {
      mixes_.emplace_back(seed * 131 + s, kSessionSpan, 1);
      bases_.push_back(base + s * 65536);
      cmd_rngs_.emplace_back(seed ^ (0xc0de0000 + s));
    }
  }

  // Batches of 256-block writes that cover every block session's range once,
  // so the media stop growing before timing starts.
  std::vector<Batch> Prefill() const {
    std::vector<Batch> out;
    for (uint32_t s = 0; s < kNumSessions; ++s) {
      if (kSessions[s].cls != Cls::kMmc && kSessions[s].cls != Cls::kUsb) {
        continue;
      }
      for (uint64_t off = 0; off < kSessionSpan; off += 256 * kBatch) {
        Batch b;
        b.session = s;
        for (size_t i = 0; i < kBatch; ++i) {
          b.cmds[i] = Cmd{1, 256, bases_[s] + off + 256 * i, static_cast<uint32_t>(i)};
        }
        out.push_back(b);
      }
    }
    return out;
  }

  void Next(Batch* b) {
    if (order_.empty()) {
      for (size_t s = 0; s < 8; ++s) {
        order_.insert(order_.end(), 3, static_cast<uint32_t>(s));
      }
      order_.insert(order_.end(), 2, 8u);
      order_.insert(order_.end(), 2, 9u);
      order_.insert(order_.end(), 3, 10u);
      rng_.Shuffle(&order_);
      order_.push_back(static_cast<uint32_t>(kCameraSession));  // popped first
    }
    *b = Batch{};
    b->session = order_.back();
    order_.pop_back();
    Rng& r = cmd_rngs_[b->session];
    for (Cmd& c : b->cmds) {
      c.payload = static_cast<uint32_t>(r.Below(kPoolBuffers));
      switch (kSessions[b->session].cls) {
        case Cls::kMmc:
        case Cls::kUsb: {
          BlockOp op = mixes_[b->session].Next();
          c.op = op.write ? 1 : 0;
          c.a = op.blkcnt;
          c.b = bases_[b->session] + op.blkid;
          break;
        }
        case Cls::kCrypto: {
          uint64_t pick = r.Below(5);
          c.op = pick < 2 ? kCaOpEncrypt : pick < 4 ? kCaOpDecrypt : kCaOpDigest;
          c.a = static_cast<uint32_t>(c.op == kCaOpDigest ? kCryptoChunkBytes
                                                          : kCryptoChunkBytes * (1 + r.Below(4)));
          c.b = 0xc0ffee00 + r.Below(16);
          break;
        }
        case Cls::kFtpm: {
          const uint32_t kOrds[] = {kFtpmOrdGetRandom, kFtpmOrdPcrExtend, kFtpmOrdPcrRead,
                                    kFtpmOrdQuote};
          c.op = kOrds[r.Below(4)];
          c.a = c.op == kFtpmOrdGetRandom ? 32 * static_cast<uint32_t>(1 + r.Below(8))
                : c.op == kFtpmOrdQuote   ? 0x3
                                          : static_cast<uint32_t>(r.Below(kFtpmPcrCount));
          break;
        }
        case Cls::kCamera:
          break;
      }
    }
  }

 private:
  Rng rng_;
  std::vector<uint32_t> order_;
  std::vector<BlockMix> mixes_;
  std::vector<uint64_t> bases_;
  std::vector<Rng> cmd_rngs_;
};

// Request memory: seeded read-only payloads shared by all commands, plus
// per-slot output buffers. One camera buffer set suffices (see Schedule).
class Buffers {
 public:
  Buffers(uint64_t seed, size_t slots) {
    Rng r(seed ^ 0x9a11);
    pool_.resize(kPoolBuffers);
    for (std::vector<uint8_t>& p : pool_) {
      p.resize(kMaxIo);
      r.Fill(p.data(), p.size());
    }
    out_.resize(slots * kBatch, std::vector<uint8_t>(kMaxIo));
    frames_.resize(kBatch, std::vector<uint8_t>(Vc4Firmware::FrameBytes(1440) + 4096));
    frame_sizes_.resize(kBatch, std::vector<uint8_t>(4));
  }

  std::vector<RingCmd> Build(const Batch& b, size_t slot) {
    std::vector<RingCmd> cmds(kBatch);
    Cls cls = kSessions[b.session].cls;
    for (size_t i = 0; i < kBatch; ++i) {
      const Cmd& c = b.cmds[i];
      RingCmd& rc = cmds[i];
      rc.entry = kClassEntry[static_cast<size_t>(cls)];
      const uint8_t* in = pool_[c.payload].data();
      std::vector<uint8_t>& out = out_[slot * kBatch + i];
      switch (cls) {
        case Cls::kMmc:
        case Cls::kUsb:
          rc.args.scalars = {{"rw", c.op == 1 ? kMmcRwWrite : kMmcRwRead},
                             {"blkcnt", c.a},
                             {"blkid", c.b},
                             {"flag", 0}};
          if (c.op == 1) {
            rc.args.ro_buffers["buf"] = ConstBufferView{in, c.a * 512u};
          } else {
            std::memset(out.data(), 0, c.a * 512u);
            rc.args.buffers["buf"] = BufferView{out.data(), c.a * 512u};
          }
          break;
        case Cls::kCrypto: {
          size_t n = c.op == kCaOpDigest ? kCaDigestBytes : c.a;
          std::memset(out.data(), 0, n);
          rc.args.scalars = {{"op", c.op}, {"key", c.b}, {"len", c.a}};
          rc.args.ro_buffers["buf"] = ConstBufferView{in, c.a};
          rc.args.buffers["out"] = BufferView{out.data(), n};
          break;
        }
        case Cls::kFtpm:
          std::memset(out.data(), 0, kFtpmMaxRandom);
          rc.args.scalars = {{"ord", c.op}, {"arg", c.a}};
          rc.args.ro_buffers["req"] = ConstBufferView{in, kFtpmPcrBytes};
          rc.args.buffers["rsp"] = BufferView{out.data(), kFtpmMaxRandom};
          break;
        case Cls::kCamera:
          std::memset(frame_sizes_[i].data(), 0, 4);
          rc.args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", frames_[i].size()}};
          rc.args.buffers["buf"] = BufferView{frames_[i].data(), frames_[i].size()};
          rc.args.buffers["img_size"] = BufferView{frame_sizes_[i].data(), 4};
          break;
      }
    }
    return cmds;
  }

  // Folds command |i| of a completed batch into its session's digest.
  uint64_t Digest(uint64_t h, const Batch& b, size_t slot, size_t i, Status st) const {
    h = FnvU64(h, static_cast<uint64_t>(st));
    if (!Ok(st)) {
      return h;
    }
    const Cmd& c = b.cmds[i];
    const uint8_t* out = out_[slot * kBatch + i].data();
    switch (kSessions[b.session].cls) {
      case Cls::kMmc:
      case Cls::kUsb:
        return c.op == 1 ? h : Fnv(h, out, c.a * 512u);
      case Cls::kCrypto:
        return Fnv(h, out, c.op == kCaOpDigest ? kCaDigestBytes : c.a);
      case Cls::kFtpm: {
        size_t n = c.op == kFtpmOrdGetRandom ? c.a
                   : c.op == kFtpmOrdQuote   ? 48
                   : c.op == kFtpmOrdPcrRead ? kFtpmPcrBytes
                                             : 4;
        return Fnv(h, out, n);
      }
      case Cls::kCamera: {
        const uint8_t* sz = frame_sizes_[i].data();
        size_t n = static_cast<size_t>(sz[0]) | static_cast<size_t>(sz[1]) << 8 |
                   static_cast<size_t>(sz[2]) << 16 | static_cast<size_t>(sz[3]) << 24;
        return Fnv(Fnv(h, sz, 4), frames_[i].data(), std::min(n, frames_[i].size()));
      }
    }
    return h;
  }

 private:
  std::vector<std::vector<uint8_t>> pool_;
  std::vector<std::vector<uint8_t>> out_;
  std::vector<std::vector<uint8_t>> frames_;
  std::vector<std::vector<uint8_t>> frame_sizes_;
};

struct Fleet {
  std::unique_ptr<ReplayFleet> fleet;
  FleetSessionId sid[kNumSessions] = {};
};

// Deploy-time bring-up (what setup_s times): 4 shard testbeds and services,
// every package verified once and registered on all shards, 12 pinned
// sessions, worker pool started.
bool BringUp(const std::string& dir, Fleet* f) {
  ReplayFleetConfig cfg;
  cfg.shards = kShards;
  cfg.threads = kThreads;
  cfg.invoke_floor_us = 0;
  f->fleet = std::make_unique<ReplayFleet>(kDeveloperKey, cfg);
  for (const char* cls : kClassName) {
    Result<std::string> name = f->fleet->RegisterDriverletFile(PackagePath(dir, cls));
    if (!name.ok()) {
      std::fprintf(stderr, "fleet_mixed: register %s: %s\n", cls, StatusName(name.status()));
      return false;
    }
  }
  for (size_t s = 0; s < kNumSessions; ++s) {
    Result<FleetSessionId> id = f->fleet->OpenSessionOn(
        kSessions[s].shard, kClassName[static_cast<size_t>(kSessions[s].cls)]);
    if (!id.ok()) {
      return false;
    }
    f->sid[s] = *id;
  }
  f->fleet->Start();
  return true;
}

uint64_t ModelNowUs(ReplayFleet& fleet) {
  uint64_t sum = 0;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    sum += fleet.shard_testbed(i).clock().now_us();
  }
  return sum;
}

class Client {
 public:
  Client(uint64_t seed, Fleet* f, Report* r)
      : sched_(seed), bufs_(seed, kWindow), f_(f), r_(r) {
    digests_.assign(kNumSessions, kFnvSeed);
    batches_.reserve(1 << 20);  // address space only: pages are touched as used
  }

  // Untimed: the prefill writes, then one second of the closed loop, so
  // templates are hydrated and compiled on every shard and the allocators
  // have grown before timing starts. Its commands are not counted but do go
  // into the digests, so the reference replays them too.
  void WarmUp() {
    std::vector<Batch> prefill = sched_.Prefill();
    prefill_.assign(prefill.begin(), prefill.end());
    Pass(1.0, SIZE_MAX, false, nullptr);
  }

  // Closed loop for |seconds| or |max_batches| batches, then drains. Appends
  // one latency sample per command (none when |lat_us| is null: warm-up) and
  // returns the loop's wall time in seconds.
  double Pass(double seconds, size_t max_batches, bool traced, Samples* lat_us) {
    struct Inflight {
      uint64_t request;
      size_t batch;
      size_t slot;
      uint64_t t0;
      uint64_t root;
    };
    std::deque<Inflight> inflight;
    std::vector<size_t> free_slots;
    for (size_t s = kWindow; s-- > 0;) {
      free_slots.push_back(s);
    }
    uint64_t start = NowNs();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    size_t submitted = 0;
    while (true) {
      while (inflight.size() < kWindow && submitted < max_batches && NowNs() < deadline) {
        ++submitted;
        size_t bi = batches_.size();
        batches_.emplace_back();
        Batch& b = batches_.back();
        if (prefill_.empty()) {
          sched_.Next(&b);
        } else {
          b = prefill_.front();
          prefill_.pop_front();
        }
        b.traced = traced;
        size_t slot = free_slots.back();
        std::vector<RingCmd> cmds = bufs_.Build(b, slot);
        uint64_t root = traced ? spans_.Open("tee.fleet.batch", 0, bi) : 0;
        uint64_t sub = traced ? spans_.Open("tee.fleet.submit_batch", root, bi) : 0;
        uint64_t t0 = NowNs();
        Result<uint64_t> id = f_->fleet->SubmitBatch(f_->sid[b.session], std::move(cmds));
        if (traced) {
          spans_.Close(sub);
        }
        if (!id.ok()) {
          b.rejected = true;
          Count(lat_us, Status::kBusy, kBatch);
          if (traced) {
            spans_.Close(root);
          }
          continue;
        }
        free_slots.pop_back();
        inflight.push_back(Inflight{*id, bi, slot, t0, root});
      }
      if (inflight.empty()) {
        break;
      }
      Inflight fl = inflight.front();
      inflight.pop_front();
      uint64_t wait = traced ? spans_.Open("tee.fleet.wait_batch", fl.root, fl.batch) : 0;
      std::vector<Result<ReplayStats>> res = f_->fleet->WaitBatchCompletion(fl.request);
      uint64_t t1 = NowNs();
      if (traced) {
        spans_.Close(wait);
        spans_.Close(fl.root);
      }
      Batch& b = batches_[fl.batch];
      b.lat_us = static_cast<double>(t1 - fl.t0) / 1e3;
      for (size_t i = 0; i < kBatch; ++i) {
        Status st = i < res.size() ? res[i].status() : Status::kBadState;
        Count(lat_us, st, 1);
        digests_[b.session] = bufs_.Digest(digests_[b.session], b, fl.slot, i, st);
        if (lat_us != nullptr) {
          lat_us->Add(b.lat_us);
        }
      }
      free_slots.push_back(fl.slot);
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  // The same per-session commands, in submission order, on one
  // ReplayService: digests must match. Returns each batch's InvokeBatch time
  // (microseconds, indexed like batches(); 0 for rejected batches).
  std::vector<double> Reference(const std::string& dir, Report* r) {
    std::vector<double> invoke_us(batches_.size(), 0);
    TestbedOptions o;
    o.secure_io = true;
    o.probe_drivers = false;
    Rpi3Testbed tb(o);
    ReplayService svc(&tb.tee(), kDeveloperKey);
    SessionId sid[kNumSessions] = {};
    for (size_t s = 0; s < kNumSessions; ++s) {
      const char* cls = kClassName[static_cast<size_t>(kSessions[s].cls)];
      if (!svc.IsRegistered(cls) && !svc.RegisterDriverletFile(PackagePath(dir, cls)).ok()) {
        r->Mismatch("fleet_mixed reference registration failed");
        return invoke_us;
      }
      Result<SessionId> id = svc.OpenSession(cls);
      if (!id.ok()) {
        r->Mismatch("fleet_mixed reference session open failed");
        return invoke_us;
      }
      sid[s] = *id;
    }
    std::vector<uint64_t> want(kNumSessions, kFnvSeed);
    for (size_t bi = 0; bi < batches_.size(); ++bi) {
      const Batch& b = batches_[bi];
      if (b.rejected) {
        continue;
      }
      std::vector<RingCmd> cmds = bufs_.Build(b, 0);
      uint64_t span = b.traced ? spans_.Open("tee.service.invoke_batch", 0, bi) : 0;
      uint64_t t0 = NowNs();
      std::vector<Result<ReplayStats>> res = svc.InvokeBatch(sid[b.session], cmds.data(), kBatch);
      invoke_us[bi] = static_cast<double>(NowNs() - t0) / 1e3;
      if (span != 0) {
        spans_.Close(span);
      }
      for (size_t i = 0; i < kBatch; ++i) {
        want[b.session] = bufs_.Digest(want[b.session], b, 0, i, res[i].status());
      }
    }
    for (size_t s = 0; s < kNumSessions; ++s) {
      if (want[s] != digests_[s]) {
        std::fprintf(stderr, "fleet_mixed: session %zu (%s) digest %016llx, reference %016llx\n",
                     s, kClassName[static_cast<size_t>(kSessions[s].cls)],
                     static_cast<unsigned long long>(digests_[s]),
                     static_cast<unsigned long long>(want[s]));
        r->Mismatch("fleet_mixed per-session digest differs from the sequential reference");
      }
    }
    return invoke_us;
  }

  // Op accounting; warm-up commands (no |lat_us|) must all succeed instead.
  void Count(const Samples* lat_us, Status st, uint64_t n) {
    if (lat_us == nullptr) {
      if (!Ok(st)) {
        r_->Mismatch("fleet_mixed warm-up command failed");
      }
      return;
    }
    r_->attempted += n;
    if (Ok(st)) {
      completed_ += n;
    } else {
      r_->failed += n;
    }
  }

  uint64_t completed() const { return completed_; }
  const std::vector<Batch>& batches() const { return batches_; }
  SpanLog& spans() { return spans_; }

 private:
  Schedule sched_;
  Buffers bufs_;
  Fleet* f_;
  Report* r_;
  std::vector<Batch> batches_;
  std::deque<Batch> prefill_;
  std::vector<uint64_t> digests_;
  uint64_t completed_ = 0;
  SpanLog spans_;
};

}  // namespace

int RunFleetMixed(const Options& opts) {
  Report r;
  Fleet f;
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    f.fleet.reset();
    bool ok = false;
    setup.push_back(TimeS([&] { ok = BringUp(opts.dir, &f); }));
    if (!ok) {
      return 1;
    }
  }
  Client client(opts.seed, &f, &r);
  client.WarmUp();

  if (!opts.trace) {
    EndToEnd e;
    uint64_t model0 = ModelNowUs(*f.fleet);
    e.op_us.StartSlices(opts.seconds, true);
    e.timed_s = client.Pass(opts.seconds, SIZE_MAX, false, &e.op_us);
    e.op_us.Finish();
    // Every batch was collected, so each shard's last clock write happened
    // before this read.
    e.model_us_per_op = static_cast<double>(ModelNowUs(*f.fleet) - model0) /
                        static_cast<double>(client.completed());
    e.ops = client.completed();
    e.setup_s = Median(setup);
    ReportEndToEnd("fleet_mixed", e, &r);
    f.fleet.reset();
    client.Reference(opts.dir, &r);
    r.PrintJson();
    return r.correct ? 0 : 1;
  }

  Samples plain, traced;
  client.Pass(opts.seconds / 2, SIZE_MAX, false, &plain);
  FleetStats s0 = f.fleet->stats();
  client.Pass(opts.seconds / 2, SIZE_MAX, true, &traced);
  FleetStats s1 = f.fleet->stats();
  f.fleet.reset();
  std::vector<double> invoke_us = client.Reference(opts.dir, &r);

  std::vector<double> wait_us;
  for (size_t bi = 0; bi < client.batches().size(); ++bi) {
    const Batch& b = client.batches()[bi];
    if (b.traced && !b.rejected) {
      wait_us.push_back(b.lat_us - invoke_us[bi]);
    }
  }
  for (uint32_t seq = 0; seq < 32; ++seq) {
    uint64_t span = client.spans().Open("dev.vc4.make_frame", 0, seq);
    std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(seq, 720);
    client.spans().Close(span);
    if (frame.size() != Vc4Firmware::FrameBytes(720)) {
      r.Mismatch("fleet_mixed synthesized frame has the wrong size");
    }
  }
  double executed = static_cast<double>(s1.executed - s0.executed);
  double submitted = static_cast<double>(s1.submitted - s0.submitted);
  std::printf("fleet_mixed per layer (traced pass: %" PRIu64 " commands)\n", traced.seen());
  r.Layer("tee.fleet.batch_wait_us_p50", Percentile(&wait_us, 0.50), "us");
  r.Layer("tee.fleet.batch_wait_us_p99", Percentile(&wait_us, 0.99), "us");
  r.Layer("tee.fleet.stolen_share", static_cast<double>(s1.stolen - s0.stolen) / executed,
          "ratio");
  r.Layer("tee.fleet.busy_rejects_per_kcmd",
          static_cast<double>(s1.busy_rejects - s0.busy_rejects) * 1000.0 / submitted,
          "1/kcmd");
  r.Layer("dev.vc4.frame_synth_us", Median(client.spans().DurationsUs("dev.vc4.make_frame")),
          "us");
  r.Layer("bench.trace_overhead.fleet_mixed", Median(traced.Values()) / Median(plain.Values()), "ratio");
  if (!client.spans().WriteCsv(opts.dir + "/spans-fleet_mixed.csv")) {
    std::fprintf(stderr, "fleet_mixed: cannot write the span file\n");
  }
  r.PrintJson();
  return r.correct ? 0 : 1;
}

}  // namespace dlt::perf
