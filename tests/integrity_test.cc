// Tier-1 tests for runtime integrity measurement (src/core/integrity.h) and
// session attestation (src/tee/attestation.h): golden-measurement parity
// across both engines for every driverlet class, measurement stability,
// fault-plane divergence feeding the rung-0 integrity quarantine, the
// deferred chain's byte-identity with a step-by-step fold (diverged prefixes,
// out-of-order and foreign folds, eager vs mapped registration, package
// re-registration, fleet shards racing on a template's first golden read),
// and the signed quote's round-trip + tamper rejection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/integrity.h"
#include "src/core/replayer.h"
#include "src/dev/vc4/vc4_firmware.h"
#include "src/drv/bcm_sdhost_driver.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/soc/status.h"
#include "src/tee/attestation.h"
#include "src/tee/replay_fleet.h"
#include "src/workload/deploy_util.h"
#include "src/workload/record_campaigns.h"

namespace dlt {
namespace {

const std::vector<uint8_t>& MmcPkg() {
  static const std::vector<uint8_t>* pkg = new std::vector<uint8_t>(BuildMmcPackage());
  return *pkg;
}
const std::vector<uint8_t>& UsbPkg() {
  static const std::vector<uint8_t>* pkg = new std::vector<uint8_t>(BuildUsbPackage());
  return *pkg;
}
const std::vector<uint8_t>& CameraPkg() {
  static const std::vector<uint8_t>* pkg = new std::vector<uint8_t>(BuildCameraPackage());
  return *pkg;
}

// One covered invoke's arguments for the deployment's entry; buffers live in
// |buf|/|aux| and must outlive the call.
ReplayArgs CoveredArgs(const std::string& entry, std::vector<uint8_t>* buf,
                       std::vector<uint8_t>* aux) {
  ReplayArgs args;
  if (entry == kCameraEntry) {
    buf->assign(Vc4Firmware::FrameBytes(1440) + 4096, 0);
    aux->assign(4, 0);
    args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", buf->size()}};
    args.buffers["buf"] = BufferView{buf->data(), buf->size()};
    args.buffers["img_size"] = BufferView{aux->data(), aux->size()};
  } else {
    *buf = PatternBuf(8 * 512, 5);
    args.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 8}, {"blkid", 2048}, {"flag", 0}};
    args.ro_buffers["buf"] = ConstBufferView{buf->data(), buf->size()};
  }
  return args;
}

// Sealed packages of every registered class, recorded once per process.
const std::vector<uint8_t>& ClassPkg(const DriverletClassSpec& cls) {
  static auto* cache = new std::map<std::string, std::vector<uint8_t>>();
  auto it = cache->find(cls.name);
  if (it == cache->end()) {
    it = cache->emplace(cls.name, cls.build_package()).first;
  }
  return it->second;
}

const InteractionTemplate* FindTemplate(const TemplateStore& store,
                                        const std::string& driverlet,
                                        const std::string& name) {
  for (const InteractionTemplate* t : store.templates(driverlet)) {
    if (t->name == name) {
      return t;
    }
  }
  return nullptr;
}

const InteractionTemplate* FindTemplate(const Deployment& d, const std::string& name) {
  return FindTemplate(d.service->store(), d.driverlet, name);
}

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return n == bytes.size();
}

// One fold call: the event object and the index passed with it.
using Fold = std::pair<const TemplateEvent*, size_t>;

// The reference: an eagerly hashed chain, Begin then every fold in order.
Sha256::Digest ReferenceFold(const InteractionTemplate& tpl, const std::vector<Fold>& folds) {
  IntegrityChain chain;
  chain.Begin(tpl);
  for (const auto& [e, i] : folds) {
    chain.FoldEvent(*e, i);
  }
  return chain.digest();
}

// The first |n| events of |tpl|, in order — what a run that stopped after n
// completed events folded.
std::vector<Fold> Prefix(const InteractionTemplate& tpl, size_t n) {
  std::vector<Fold> folds;
  for (size_t i = 0; i < n; ++i) {
    folds.emplace_back(&tpl.events[i], i);
  }
  return folds;
}

// ---------------------------------------------------------------------------
// Golden parity across engines, for every driverlet class
// ---------------------------------------------------------------------------

TEST(IntegrityTest, MeasurementMatchesGoldenOnBothEnginesForEveryClass) {
  struct Case {
    const char* label;
    const std::vector<uint8_t>& pkg;
  };
  const Case kCases[] = {{"mmc", MmcPkg()}, {"usb", UsbPkg()}, {"camera", CameraPkg()}};
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.label);
    std::string measurement[2];
    for (int engine = 0; engine < 2; ++engine) {
      ReplayServiceConfig cfg;
      cfg.use_compiled = engine == 1;
      Deployment d = MakeDeployment(c.pkg, cfg);
      ASSERT_NE(d.session, 0u);
      const std::string entry =
          d.service->store().templates(d.driverlet).front()->entry;
      std::vector<uint8_t> buf, aux;
      ReplayArgs args = CoveredArgs(entry, &buf, &aux);
      Result<ReplayStats> r = d.service->Invoke(d.session, entry, args);
      ASSERT_TRUE(r.ok()) << StatusName(r.status());
      ASSERT_FALSE(r->measurement.empty());
      EXPECT_GT(r->events_measured, 0u);
      measurement[engine] = r->measurement;

      // A clean run's chain is computable statically from the template alone.
      const InteractionTemplate* tpl = FindTemplate(d, r->template_name);
      ASSERT_NE(tpl, nullptr);
      EXPECT_EQ(r->measurement, GoldenMeasurementHex(*tpl));

      // The replayer's record and the session stats agree with the result.
      const MeasurementRecord& m = d.replayer->last_measurement();
      EXPECT_TRUE(m.valid);
      EXPECT_TRUE(m.matches_golden);
      EXPECT_EQ(m.Hex(), r->measurement);
      Result<SessionStats> st = d.service->Stats(d.session);
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(st->last_measurement, r->measurement);
      EXPECT_EQ(st->measurement_mismatches, 0u);
    }
    // The acceptance bar: byte-identical chains, interpreter vs compiled.
    EXPECT_EQ(measurement[0], measurement[1]);
  }
}

TEST(IntegrityTest, MeasurementIsStableAcrossRepeatedInvokes) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);
  Result<ReplayStats> a = d.service->Invoke(d.session, entry, args);
  Result<ReplayStats> b = d.service->Invoke(d.session, entry, args);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->measurement, b->measurement);
  EXPECT_EQ(a->events_measured, b->events_measured);
}

// Identical session histories on fresh deployments produce byte-identical
// quotes: the PCR chain, counters and MAC are all deterministic.
TEST(IntegrityTest, IdenticalHistoriesProduceIdenticalQuotes) {
  std::string serialized[2];
  for (int run = 0; run < 2; ++run) {
    Deployment d = MakeDeployment(MmcPkg());
    ASSERT_NE(d.session, 0u);
    const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
    std::vector<uint8_t> buf, aux;
    ReplayArgs args = CoveredArgs(entry, &buf, &aux);
    ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
    ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
    Result<AttestationQuote> q = d.service->Attest(d.session, "stable-nonce");
    ASSERT_TRUE(q.ok());
    serialized[run] = SerializeQuote(*q);
  }
  EXPECT_EQ(serialized[0], serialized[1]);
}

// ---------------------------------------------------------------------------
// Fault-plane divergence and the rung-0 integrity quarantine
// ---------------------------------------------------------------------------

// Corrupts every MMIO read from the MMC controller so the single allowed
// attempt diverges deterministically.
FaultPlan CertainMmioCorruption(uint16_t device) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.kind = FaultKind::kMmioCorruptRead;
  spec.device = device;
  spec.arg = 0xff;
  plan.Add(spec);
  return plan;
}

TEST(IntegrityTest, FaultedRunDivergesFromGoldenAndQuarantinesAtRungZero) {
  ReplayServiceConfig cfg;
  cfg.enforce_integrity = true;
  cfg.quarantine_threshold = 0;  // rung 0 must quarantine on its own
  Deployment d = MakeDeployment(MmcPkg(), cfg);
  ASSERT_NE(d.session, 0u);
  d.replayer->set_max_attempts(1);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);

  FaultInjector injector(&d.tb->machine());
  ASSERT_EQ(injector.Arm(CertainMmioCorruption(d.tb->mmc_id())), Status::kOk);
  Result<ReplayStats> r = d.service->Invoke(d.session, entry, args);
  injector.Disarm();
  ASSERT_FALSE(r.ok());

  // The failed attempt measured a strict prefix, not the golden chain.
  const MeasurementRecord& m = d.replayer->last_measurement();
  EXPECT_TRUE(m.valid);
  EXPECT_FALSE(m.matches_golden);
  Result<SessionStats> st = d.service->Stats(d.session);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->measurement_mismatches, 1u);
  EXPECT_TRUE(st->quarantined);
  EXPECT_EQ(d.service->quarantined_sessions(), 1u);

  // Quarantine is terminal for the session: further invokes fail fast.
  EXPECT_EQ(d.service->Invoke(d.session, entry, args).status(), Status::kQuarantined);

  // The quote carries the divergence.
  Result<AttestationQuote> q = d.service->Attest(d.session, "post-fault");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->measurement_mismatches, 1u);
  EXPECT_TRUE(q->quarantined);
  EXPECT_TRUE(VerifyQuote(*q, kDeveloperKey));
}

TEST(IntegrityTest, MismatchWithoutEnforcementRecordsButDoesNotQuarantine) {
  ReplayServiceConfig cfg;
  cfg.enforce_integrity = false;
  cfg.quarantine_threshold = 0;
  Deployment d = MakeDeployment(MmcPkg(), cfg);
  ASSERT_NE(d.session, 0u);
  d.replayer->set_max_attempts(1);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);

  FaultInjector injector(&d.tb->machine());
  ASSERT_EQ(injector.Arm(CertainMmioCorruption(d.tb->mmc_id())), Status::kOk);
  Result<ReplayStats> r = d.service->Invoke(d.session, entry, args);
  injector.Disarm();
  ASSERT_FALSE(r.ok());

  Result<SessionStats> st = d.service->Stats(d.session);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->measurement_mismatches, 1u);
  EXPECT_FALSE(st->quarantined);

  // Without enforcement the session is never fenced: the next invoke may
  // need the recovery ladder, but it is not rejected out of hand.
  EXPECT_NE(d.service->Invoke(d.session, entry, args).status(), Status::kQuarantined);
}

// ---------------------------------------------------------------------------
// Deferred chains: byte-identical to the step-by-step fold
// ---------------------------------------------------------------------------

// Every fold order a chain can see — in order, a prefix, out of order, a copy
// of a template event, another template's event, a read in mid-run — gives
// exactly the eagerly hashed chain of the same calls.
TEST(IntegrityTest, DeferredChainMatchesReferenceForAnyFoldSequence) {
  Result<DriverletPackage> pkg = OpenPackage(MmcPkg().data(), MmcPkg().size(), kDeveloperKey);
  ASSERT_TRUE(pkg.ok());
  ASSERT_GE(pkg->templates.size(), 2u);
  const InteractionTemplate& tpl = pkg->templates.front();
  const InteractionTemplate& other = pkg->templates.back();
  const size_t n = tpl.events.size();
  ASSERT_GE(n, 3u);
  const TemplateEvent copy = tpl.events[0];
  GoldenCache golden;

  const std::vector<Fold> all = Prefix(tpl, n);
  std::vector<Fold> copied_first = all;
  copied_first[0].first = &copy;
  std::vector<Fold> foreign_second = Prefix(tpl, 2);
  foreign_second[1].first = &other.events[0];
  const struct {
    const char* label;
    std::vector<Fold> folds;
  } kCases[] = {
      {"complete", all},
      {"empty", {}},
      {"prefix", Prefix(tpl, 2)},
      {"out of order 0,2,1", {{&tpl.events[0], 0}, {&tpl.events[2], 2}, {&tpl.events[1], 1}}},
      {"skipped index", {{&tpl.events[0], 0}, {&tpl.events[2], 2}}},
      {"repeated event", {{&tpl.events[0], 0}, {&tpl.events[0], 0}}},
      {"copied event then in order", copied_first},
      {"foreign event", foreign_second},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.label);
    const Sha256::Digest want = ReferenceFold(tpl, c.folds);
    const GoldenCache* goldens[] = {&golden, nullptr};
    for (const GoldenCache* g : goldens) {
      IntegrityChain chain;
      chain.BeginDeferred(tpl, g);
      for (const auto& [e, i] : c.folds) {
        chain.FoldEvent(*e, i);
      }
      EXPECT_EQ(chain.folded(), c.folds.size());
      EXPECT_EQ(chain.digest(), want);
      EXPECT_EQ(chain.Hex(), Sha256::HexDigest(want));
    }
  }
  EXPECT_EQ(golden.Get(tpl), GoldenMeasurement(tpl));

  // Reading mid-run materializes; the rest folds for real to the same value.
  IntegrityChain mid;
  mid.BeginDeferred(tpl, &golden);
  mid.FoldEvent(tpl.events[0], 0);
  EXPECT_EQ(mid.digest(), ReferenceFold(tpl, Prefix(tpl, 1)));
  for (size_t i = 1; i < n; ++i) {
    mid.FoldEvent(tpl.events[i], i);
  }
  EXPECT_EQ(mid.digest(), GoldenMeasurement(tpl));

  // Extend hashes the pending chain first, exactly like the eager chain.
  IntegrityChain eager;
  eager.Begin(tpl);
  Sha256::Digest d = GoldenMeasurement(other);
  eager.Extend(d);
  IntegrityChain lazy;
  lazy.BeginDeferred(tpl, &golden);
  lazy.Extend(d);
  EXPECT_EQ(lazy.digest(), eager.digest());
  EXPECT_EQ(lazy.folded(), eager.folded());

  // A chain that already holds a value never takes the golden shortcut.
  IntegrityChain used;
  used.Extend(d);
  IntegrityChain used_ref = used;
  used.BeginDeferred(tpl, &golden);
  used_ref.Begin(tpl);
  for (size_t i = 0; i < n; ++i) {
    used.FoldEvent(tpl.events[i], i);
    used_ref.FoldEvent(tpl.events[i], i);
  }
  EXPECT_EQ(used.digest(), used_ref.digest());
  EXPECT_NE(used.digest(), GoldenMeasurement(tpl));
}

// Fault-plane divergence at several read opportunities k, for every class on
// both engines: the final attempt's digest is the step-by-step fold of the
// events it completed.
TEST(IntegrityTest, DivergedPrefixEqualsReferenceFoldForEveryClass) {
  for (const DriverletClassSpec& cls : RegisteredDriverletClasses()) {
    for (int engine = 0; engine < 2; ++engine) {
      SCOPED_TRACE(std::string(cls.name) + (engine == 1 ? " compiled" : " interpreter"));
      ReplayServiceConfig cfg;
      cfg.use_compiled = engine == 1;
      cfg.quarantine_threshold = 0;  // keep invoking after failures
      Deployment d = MakeDeployment(ClassPkg(cls), cfg);
      ASSERT_NE(d.session, 0u);
      d.replayer->set_max_attempts(1);
      std::vector<uint8_t> buf, aux;
      ReplayArgs args;
      ASSERT_TRUE(CoveredArgsFor(cls.entry, 0, &buf, &aux, &args));
      const uint16_t device = d.service->store().templates(d.driverlet).front()->primary_device;

      // Corrupted register reads, or dropped interrupts (the camera's
      // mailbox flow is IRQ-gated), after skipping the first k opportunities.
      std::set<size_t> prefixes;
      for (FaultKind kind : {FaultKind::kMmioCorruptRead, FaultKind::kIrqDrop}) {
        for (uint64_t k : {0, 1, 2, 4, 8, 16}) {
          FaultPlan plan(7);
          FaultSpec spec;
          spec.kind = kind;
          if (kind == FaultKind::kMmioCorruptRead) {
            spec.device = device;
            spec.arg = 0xff;
          }
          spec.skip = k;
          plan.Add(spec);
          FaultInjector injector(&d.tb->machine());
          ASSERT_EQ(injector.Arm(plan), Status::kOk);
          Result<ReplayStats> r = d.service->Invoke(d.session, cls.entry, args);
          injector.Disarm();
          const MeasurementRecord& m = d.replayer->last_measurement();
          if (!m.valid) {
            continue;  // the fault hit the soft reset, before the engines ran
          }
          const InteractionTemplate* tpl = FindTemplate(d, m.template_name);
          ASSERT_NE(tpl, nullptr);
          ASSERT_LE(m.events_measured, tpl->events.size());
          EXPECT_EQ(m.digest, ReferenceFold(*tpl, Prefix(*tpl, m.events_measured)))
              << FaultKindName(kind) << " k=" << k;
          EXPECT_EQ(m.matches_golden, r.ok()) << FaultKindName(kind) << " k=" << k;
          if (m.events_measured < tpl->events.size()) {
            prefixes.insert(m.events_measured);
          }
        }
      }
      // Divergence landed at several distinct events.
      EXPECT_GE(prefixes.size(), 2u);
    }
  }
}

// One package, registered eagerly and mmapped, measures identically: the
// same per-invoke digests and byte-identical session quotes.
TEST(IntegrityTest, EagerAndMappedRegistrationMeasureIdentically) {
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  for (const DriverletClassSpec& cls : RegisteredDriverletClasses()) {
    SCOPED_TRACE(cls.name);
    const std::vector<uint8_t>& sealed = ClassPkg(cls);
    Result<DriverletPackage> pkg = OpenPackage(sealed.data(), sealed.size(), kDeveloperKey);
    ASSERT_TRUE(pkg.ok());
    std::string path = ::testing::TempDir() + "/integrity_" + cls.name + ".dpkg";
    ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(*pkg, kDeveloperKey)));

    std::vector<std::string> measurements[2];
    std::string quotes[2];
    for (int mapped = 0; mapped < 2; ++mapped) {
      Rpi3Testbed tb(opts);
      ReplayService service(&tb.tee(), kDeveloperKey);
      Result<std::string> name = mapped == 1
                                     ? service.RegisterDriverletFile(path)
                                     : service.RegisterDriverlet(sealed.data(), sealed.size());
      ASSERT_TRUE(name.ok()) << StatusName(name.status());
      Result<SessionId> sid = service.OpenSession(*name);
      ASSERT_TRUE(sid.ok());
      for (int round = 0; round < 4; ++round) {
        std::vector<uint8_t> buf, aux;
        ReplayArgs args;
        ASSERT_TRUE(CoveredArgsFor(cls.entry, round, &buf, &aux, &args));
        Result<ReplayStats> r = service.Invoke(*sid, cls.entry, args);
        ASSERT_TRUE(r.ok()) << StatusName(r.status());
        const InteractionTemplate* tpl = FindTemplate(service.store(), *name, r->template_name);
        ASSERT_NE(tpl, nullptr);
        EXPECT_EQ(r->measurement, GoldenMeasurementHex(*tpl));
        measurements[mapped].push_back(r->measurement);
      }
      Result<AttestationQuote> q = service.Attest(*sid, "eager-vs-mapped");
      ASSERT_TRUE(q.ok());
      quotes[mapped] = SerializeQuote(*q);
    }
    EXPECT_EQ(measurements[0], measurements[1]);
    EXPECT_EQ(quotes[0], quotes[1]);
    std::remove(path.c_str());
  }
}

// Re-registering a driverlet with changed templates publishes a new
// population; the golden digests cached against the old one are never served
// for the new templates, on either engine.
TEST(IntegrityTest, ReRegistrationNeverServesAStaleGoldenDigest) {
  Result<DriverletPackage> original = OpenPackage(MmcPkg().data(), MmcPkg().size(),
                                                  kDeveloperKey);
  ASSERT_TRUE(original.ok());
  // Same driverlet, every template one trailing 1 us delay longer: a new
  // event sequence, hence a new golden measurement for every template.
  DriverletPackage changed = *original;
  for (InteractionTemplate& t : changed.templates) {
    TemplateEvent delay;
    delay.kind = EventKind::kDelay;
    delay.value = Expr::Const(1);
    t.events.push_back(std::move(delay));
  }
  for (int engine = 0; engine < 2; ++engine) {
    SCOPED_TRACE(engine == 1 ? "compiled" : "interpreter");
    ReplayServiceConfig cfg;
    cfg.use_compiled = engine == 1;
    Deployment d = MakeDeployment(MmcPkg(), cfg);
    ASSERT_NE(d.session, 0u);
    std::vector<uint8_t> buf, aux;
    ReplayArgs args;
    ASSERT_TRUE(CoveredArgsFor(kMmcEntry, 0, &buf, &aux, &args));

    std::string seen[3];
    const DriverletPackage* loads[3] = {nullptr, &changed, &*original};
    for (int step = 0; step < 3; ++step) {
      if (loads[step] != nullptr) {
        ASSERT_EQ(d.replayer->LoadPackage(*loads[step]), Status::kOk);
      }
      Result<ReplayStats> r = d.service->Invoke(d.session, kMmcEntry, args);
      ASSERT_TRUE(r.ok()) << StatusName(r.status());
      const InteractionTemplate* tpl = FindTemplate(d, r->template_name);
      ASSERT_NE(tpl, nullptr);
      EXPECT_EQ(r->measurement, GoldenMeasurementHex(*tpl)) << "step " << step;
      EXPECT_EQ(d.replayer->last_measurement().Hex(), r->measurement);
      seen[step] = r->measurement;
    }
    EXPECT_NE(seen[1], seen[0]);
    EXPECT_EQ(seen[2], seen[0]);  // back to the original templates
  }
}

// Fleet shards race on the first invoke of each template: the golden digest
// is computed once per template under the cache latch (hydration too, for the
// mapped package), and every shard reads the right one. The TSan job runs it.
TEST(IntegrityTest, FleetShardsRaceOnFirstGoldenRead) {
  const DriverletClassSpec* usb = FindDriverletClass("usb");
  ASSERT_NE(usb, nullptr);
  Result<DriverletPackage> usb_pkg =
      OpenPackage(ClassPkg(*usb).data(), ClassPkg(*usb).size(), kDeveloperKey);
  ASSERT_TRUE(usb_pkg.ok());
  std::string path = ::testing::TempDir() + "/integrity_fleet_usb.dpkg";
  ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(*usb_pkg, kDeveloperKey)));

  constexpr size_t kShards = 4;
  ReplayFleetConfig cfg;
  cfg.shards = kShards;
  ReplayFleet fleet(kDeveloperKey, cfg);
  ASSERT_TRUE(fleet.RegisterDriverlet(MmcPkg().data(), MmcPkg().size()).ok());
  ASSERT_TRUE(fleet.RegisterDriverletFile(path).ok());
  struct Lane {
    const char* driverlet;
    const char* entry;
  };
  const Lane kLanes[] = {{"mmc", kMmcEntry}, {"usb", kUsbEntry}};
  std::vector<FleetSessionId> sids[2];
  for (size_t lane = 0; lane < 2; ++lane) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      Result<FleetSessionId> sid = fleet.OpenSessionOn(shard, kLanes[lane].driverlet);
      ASSERT_TRUE(sid.ok());
      sids[lane].push_back(*sid);
    }
  }

  // Pool stopped: each thread drives its own shard's sessions directly, so
  // the four shards run concurrently from the first invoke on.
  constexpr int kRounds = 4;
  std::atomic<bool> go{false};
  std::vector<std::vector<Result<ReplayStats>>> results(kShards);
  std::vector<std::thread> threads;
  for (size_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([&, shard] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t lane = 0; lane < 2; ++lane) {
          std::vector<uint8_t> buf, aux;
          ReplayArgs args;
          CoveredArgsFor(kLanes[lane].entry, round, &buf, &aux, &args);
          results[shard].push_back(fleet.Invoke(sids[lane][shard], kLanes[lane].entry, args));
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }

  const TemplateStore& store = fleet.shard_service(0).store();
  for (size_t shard = 0; shard < kShards; ++shard) {
    ASSERT_EQ(results[shard].size(), 2u * kRounds);
    for (size_t i = 0; i < results[shard].size(); ++i) {
      const Result<ReplayStats>& r = results[shard][i];
      ASSERT_TRUE(r.ok()) << "shard " << shard << " op " << i << ": " << StatusName(r.status());
      const InteractionTemplate* tpl =
          FindTemplate(store, kLanes[i % 2].driverlet, r->template_name);
      ASSERT_NE(tpl, nullptr);
      EXPECT_EQ(r->measurement, GoldenMeasurementHex(*tpl)) << "shard " << shard;
      // Same op on another shard, same template, same digest.
      EXPECT_EQ(r->measurement, results[0][i].value().measurement);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Attestation quotes
// ---------------------------------------------------------------------------

TEST(AttestTest, QuoteRoundTripsAndRejectsTampering) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);
  ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());

  Result<AttestationQuote> q = d.service->Attest(d.session, "fresh-nonce");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->driverlet, d.driverlet);
  EXPECT_EQ(q->invokes, 1u);
  EXPECT_EQ(q->nonce, "fresh-nonce");
  EXPECT_FALSE(q->session_measurement.empty());
  EXPECT_TRUE(VerifyQuote(*q, kDeveloperKey));

  // Text round-trip is exact and still verifies.
  Result<AttestationQuote> rt = ParseQuote(SerializeQuote(*q));
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(SerializeQuote(*rt), SerializeQuote(*q));
  EXPECT_TRUE(VerifyQuote(*rt, kDeveloperKey));

  // Any tampered field invalidates the MAC.
  AttestationQuote t = *q;
  t.invokes = 2;
  EXPECT_FALSE(VerifyQuote(t, kDeveloperKey));
  t = *q;
  t.session_measurement[0] = t.session_measurement[0] == '0' ? '1' : '0';
  EXPECT_FALSE(VerifyQuote(t, kDeveloperKey));
  t = *q;
  t.nonce = "replayed-nonce";
  EXPECT_FALSE(VerifyQuote(t, kDeveloperKey));
  // And the wrong key never verifies.
  EXPECT_FALSE(VerifyQuote(*q, "not-the-developer-key"));

  EXPECT_EQ(d.service->Attest(9999, "n").status(), Status::kNotFound);
}

TEST(AttestTest, SessionPcrExtendsWithEveryInvoke) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);

  Result<AttestationQuote> q0 = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
  Result<AttestationQuote> q1 = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
  Result<AttestationQuote> q2 = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q2.ok());

  // Same invoke, different chain positions: the PCR commits to history, not
  // just to the set of templates run.
  EXPECT_NE(q0->session_measurement, q1->session_measurement);
  EXPECT_NE(q1->session_measurement, q2->session_measurement);
  EXPECT_EQ(q2->invokes, 2u);
}

}  // namespace
}  // namespace dlt
