// Replay compiler unit tests: lowering (operand folding, coalescing, fallback
// on unsupported shapes), the TemplateStore compile cache with its
// hit/miss/evict counters, compiled selection against the linear oracle, and
// interpreter-vs-compiled parity plus the deterministic cost model on a
// scripted fake context.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <memory>

#include "src/core/compiled_executor.h"
#include "src/core/compiled_program.h"
#include "src/core/executor.h"
#include "src/core/template_store.h"

namespace dlt {
namespace {

class FakeContext : public ReplayContext {
 public:
  std::deque<uint32_t> reg_values;
  std::map<PhysAddr, uint32_t> mem;
  std::vector<std::pair<uint64_t, uint32_t>> reg_writes;
  PhysAddr pool_next = 0x1000;
  PhysAddr pool_base = 0x1000;
  uint64_t pool_size = 0x100000;
  uint64_t now = 0;
  uint64_t charged_ns = 0;

  Result<uint32_t> RegRead32(uint16_t, uint64_t) override {
    if (reg_values.empty()) {
      return 0u;
    }
    uint32_t v = reg_values.front();
    if (reg_values.size() > 1) {
      reg_values.pop_front();
    }
    return v;
  }
  Status RegWrite32(uint16_t device, uint64_t offset, uint32_t value) override {
    reg_writes.push_back({(static_cast<uint64_t>(device) << 32) | offset, value});
    return Status::kOk;
  }
  Result<uint32_t> MemRead32(PhysAddr addr) override { return mem[addr]; }
  Status MemWrite32(PhysAddr addr, uint32_t value) override {
    mem[addr] = value;
    return Status::kOk;
  }
  Status MemCopyIn(PhysAddr dst, const uint8_t* src, size_t len) override {
    // Word-granular mirror so bulk block writes land in |mem| like MemWrite32.
    for (size_t i = 0; i + 4 <= len; i += 4) {
      uint32_t v = 0;
      std::memcpy(&v, src + i, 4);
      mem[dst + i] = v;
    }
    return Status::kOk;
  }
  Status MemCopyOut(uint8_t* dst, PhysAddr src, size_t len) override {
    for (size_t i = 0; i + 4 <= len; i += 4) {
      uint32_t v = mem.count(src + i) ? mem[src + i] : 0;
      std::memcpy(dst + i, &v, 4);
    }
    return Status::kOk;
  }
  Result<PhysAddr> DmaAlloc(uint64_t size) override {
    PhysAddr a = pool_next;
    pool_next += (size + 0xfff) & ~0xfffull;
    return a;
  }
  void DmaReleaseAll() override { pool_next = pool_base; }
  Result<uint32_t> RandomU32() override { return 0x1234u; }
  uint64_t TimestampUs() override { return now; }
  Status WaitForIrq(int, uint64_t) override { return Status::kOk; }
  void DelayUs(uint64_t us) override { now += us; }
  Status SoftResetDevice(uint16_t) override { return Status::kOk; }
  bool AddressAllowed(PhysAddr addr, size_t len) override {
    return addr >= pool_base && addr + len <= pool_base + pool_size;
  }
  void ChargeReplayOverheadNs(uint64_t ns) override { charged_ns += ns; }
};

TemplateEvent ShmWriteEv(ExprRef base, uint64_t off, uint64_t value) {
  TemplateEvent e;
  e.kind = EventKind::kShmWrite;
  e.addr = Expr::Binary(ExprOp::kAdd, std::move(base), Expr::Const(off));
  e.value = Expr::Const(value);
  return e;
}

TemplateEvent ShmReadEv(ExprRef base, uint64_t off, const std::string& bind) {
  TemplateEvent e;
  e.kind = EventKind::kShmRead;
  e.addr = Expr::Binary(ExprOp::kAdd, std::move(base), Expr::Const(off));
  e.bind = bind;
  return e;
}

TEST(CompiledProgramTest, CoalescesConsecutiveSameBaseWordWrites) {
  InteractionTemplate t;
  t.name = "T";
  for (uint64_t w = 0; w < 4; ++w) {
    t.events.push_back(ShmWriteEv(Expr::Input("dma"), 4 * w, 0x10 + w));
  }
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(1u, (*p)->ops.size());
  EXPECT_EQ(COp::kShmWriteBulk, (*p)->ops[0].code);
  EXPECT_EQ(4u, (*p)->ops[0].word_end - (*p)->ops[0].word_begin);
  EXPECT_EQ(4u, (*p)->source_events);
  // Cost model: one op + four covered words, strictly below 4 interpreted events.
  EXPECT_EQ(kCompiledOpNs + 4 * kCompiledWordNs, (*p)->StaticCompiledNs());
  EXPECT_LT((*p)->StaticCompiledNs(), (*p)->StaticInterpNs());
}

TEST(CompiledProgramTest, NonAdjacentOffsetsDoNotCoalesce) {
  InteractionTemplate t;
  t.name = "T";
  t.events.push_back(ShmWriteEv(Expr::Input("dma"), 0, 1));
  t.events.push_back(ShmWriteEv(Expr::Input("dma"), 12, 2));  // hole at +4
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(2u, (*p)->ops.size());
  EXPECT_EQ(COp::kShmWrite, (*p)->ops[0].code);
  EXPECT_EQ(COp::kShmWrite, (*p)->ops[1].code);
}

TEST(CompiledProgramTest, ReadRunStopsWhenABindFeedsTheSharedBase) {
  // Every read addresses q + k, and the first read rebinds q: coalescing the
  // run would evaluate the base once and miss the rebinding the interpreter
  // honors, so the compiler must keep these as single-word reads.
  InteractionTemplate t;
  t.name = "T";
  t.events.push_back(ShmReadEv(Expr::Input("q"), 0, "q"));
  t.events.push_back(ShmReadEv(Expr::Input("q"), 4, ""));
  t.events.push_back(ShmReadEv(Expr::Input("q"), 8, ""));
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  // The rebinding read stays a single-word op; the tail pair (no interfering
  // bind) still coalesces.
  ASSERT_EQ(2u, (*p)->ops.size());
  EXPECT_EQ(COp::kShmRead, (*p)->ops[0].code);
  EXPECT_EQ(COp::kShmReadBulk, (*p)->ops[1].code);
  EXPECT_EQ(2u, (*p)->ops[1].word_end - (*p)->ops[1].word_begin);
}

TEST(CompiledProgramTest, FoldsOperandsToImmediateSlotAndSteps) {
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent imm;
  imm.kind = EventKind::kRegWrite;
  imm.value = Expr::Binary(ExprOp::kAdd, Expr::Const(2), Expr::Const(3));  // folds to 5
  t.events.push_back(imm);
  TemplateEvent slot;
  slot.kind = EventKind::kRegWrite;
  slot.value = Expr::Input("a");
  t.events.push_back(slot);
  TemplateEvent steps;
  steps.kind = EventKind::kRegWrite;
  steps.value = Expr::Binary(ExprOp::kMul, Expr::Input("a"), Expr::Input("b"));
  t.events.push_back(steps);

  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(3u, (*p)->ops.size());
  EXPECT_EQ(Operand::Kind::kImm, (*p)->ops[0].value.kind);
  EXPECT_EQ(5u, (*p)->ops[0].value.imm);
  EXPECT_EQ(Operand::Kind::kSlot, (*p)->ops[1].value.kind);
  EXPECT_EQ(Operand::Kind::kSteps, (*p)->ops[2].value.kind);
}

TEST(CompiledProgramTest, DeepExpressionFallsBackUnsupported) {
  // Right-deep input chain: postfix evaluation needs one stack slot per level,
  // exceeding kMaxExprStack forces the interpreter fallback.
  ExprRef e = Expr::Input("p0");
  for (size_t i = 1; i < kMaxExprStack + 4; ++i) {
    e = Expr::Binary(ExprOp::kAdd, Expr::Input("p" + std::to_string(i)), std::move(e));
  }
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent wr;
  wr.kind = EventKind::kRegWrite;
  wr.value = std::move(e);
  t.events.push_back(wr);
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(Status::kUnsupported, p.status());
}

InteractionTemplate ParityTemplate() {
  InteractionTemplate t;
  t.name = "parity";
  t.entry = "entry";
  t.params.push_back(ParamSpec{"a", false});
  TemplateEvent rd;
  rd.kind = EventKind::kRegRead;
  rd.device = 1;
  rd.reg_off = 0x20;
  rd.bind = "din";
  t.events.push_back(rd);
  TemplateEvent wr;
  wr.kind = EventKind::kRegWrite;
  wr.device = 1;
  wr.reg_off = 0x30;
  wr.value = Expr::Binary(ExprOp::kAdd, Expr::Input("din"), Expr::Input("a"));
  t.events.push_back(wr);
  // Shm accesses must land inside this run's own allocations, so the writes
  // target a freshly bound DMA region. The input-rooted base also keeps the
  // +4w offsets from constant-folding away the shared-base coalescing.
  TemplateEvent alloc;
  alloc.kind = EventKind::kDmaAlloc;
  alloc.value = Expr::Const(64);
  alloc.bind = "dma";
  t.events.push_back(alloc);
  for (uint64_t w = 0; w < 3; ++w) {
    t.events.push_back(ShmWriteEv(Expr::Input("dma"), 4 * w, 0x40 + w));
  }
  return t;
}

TEST(CompiledExecutorTest, MatchesInterpreterAndChargesParityTime) {
  InteractionTemplate t = ParityTemplate();
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  ReplayArgs args;
  args.scalars["a"] = 3;

  FakeContext interp_ctx;
  interp_ctx.reg_values = {0x77};
  Executor interp(&interp_ctx, &t, &args);
  DivergenceReport r1;
  ASSERT_EQ(Status::kOk, interp.Run(&r1));

  FakeContext comp_ctx;
  comp_ctx.reg_values = {0x77};
  CompiledExecutor comp(&comp_ctx, p->get(), &args);
  DivergenceReport r2;
  ASSERT_EQ(Status::kOk, comp.Run(&r2));

  EXPECT_EQ(interp_ctx.reg_writes, comp_ctx.reg_writes);
  EXPECT_EQ(interp_ctx.mem, comp_ctx.mem);
  EXPECT_EQ(interp.events_executed(), comp.events_executed());
  // Parity charging: both engines bill the interpreter model to the clock.
  EXPECT_EQ(interp_ctx.charged_ns, comp_ctx.charged_ns);
  EXPECT_EQ(uint64_t{6} * kReplayInterpEventNs, comp_ctx.charged_ns);
  // The model cost is accounted separately and is strictly cheaper.
  EXPECT_GT(comp.cpu_model_ns(), 0u);
  EXPECT_LT(comp.cpu_model_ns(), comp_ctx.charged_ns);
  EXPECT_EQ(1u, comp.bulk_ops());
}

TEST(CompiledExecutorTest, ModelClockChargesModelCostInstead) {
  InteractionTemplate t = ParityTemplate();
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  ReplayArgs args;
  args.scalars["a"] = 3;

  FakeContext ctx;
  ctx.reg_values = {0x77};
  CompiledExecutor exec(&ctx, p->get(), &args);
  exec.set_model_clock(true);
  DivergenceReport r;
  ASSERT_EQ(Status::kOk, exec.Run(&r));
  EXPECT_EQ(exec.cpu_model_ns(), ctx.charged_ns);
  EXPECT_LT(ctx.charged_ns, uint64_t{6} * kReplayInterpEventNs);
}

TEST(CompiledExecutorTest, DivergenceReportMatchesInterpreter) {
  InteractionTemplate t;
  t.name = "T";
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input("din"), Cmp::kEq, Expr::Const(0x1)});
  TemplateEvent rd;
  rd.kind = EventKind::kRegRead;
  rd.device = 1;
  rd.reg_off = 0x20;
  rd.bind = "din";
  rd.constraint = std::move(c);
  rd.state_changing = true;
  t.events.push_back(rd);
  Result<std::shared_ptr<const CompiledProgram>> p = CompileTemplate(&t);
  ASSERT_TRUE(p.ok());
  ReplayArgs args;

  FakeContext ictx;
  ictx.reg_values = {0x2};
  Executor interp(&ictx, &t, &args);
  DivergenceReport ri;
  EXPECT_EQ(Status::kDiverged, interp.Run(&ri));

  FakeContext cctx;
  cctx.reg_values = {0x2};
  CompiledExecutor comp(&cctx, p->get(), &args);
  DivergenceReport rc;
  EXPECT_EQ(Status::kDiverged, comp.Run(&rc));

  EXPECT_EQ(ri.valid, rc.valid);
  EXPECT_EQ(ri.template_name, rc.template_name);
  EXPECT_EQ(ri.event_index, rc.event_index);
  EXPECT_EQ(ri.event_desc, rc.event_desc);
  EXPECT_EQ(ri.observed, rc.observed);
  EXPECT_EQ(ri.expected_constraint, rc.expected_constraint);
}

DriverletPackage CachePackage() {
  DriverletPackage pkg;
  pkg.driverlet = "d";
  InteractionTemplate t;
  t.name = "T";
  t.entry = "e";
  t.params.push_back(ParamSpec{"a", false});
  t.initial.AddAtom(ConstraintAtom{Expr::Input("a"), Cmp::kLe, Expr::Const(100)});
  TemplateEvent wr;
  wr.kind = EventKind::kRegWrite;
  wr.reg_off = 0x10;
  wr.value = Expr::Input("a");
  t.events.push_back(wr);
  pkg.templates.push_back(std::move(t));
  return pkg;
}

TEST(TemplateStoreCompiledTest, CompileCacheCounters) {
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(CachePackage()));

  // First selection: the winner compiles once.
  Result<TemplateStore::CompiledSelection> s1 = store.SelectCompiled("d", "e", {{"a", 1}});
  ASSERT_TRUE(s1.ok());
  ASSERT_NE(nullptr, s1->program);
  EXPECT_EQ(1u, store.compile_cache_misses());
  EXPECT_EQ(0u, store.compile_cache_hits());

  // Different value, then a different scalar signature (superset): the same
  // winner, served from the compile cache both times.
  Result<TemplateStore::CompiledSelection> s2 = store.SelectCompiled("d", "e", {{"a", 7}});
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->program.get(), s2->program.get());
  Result<TemplateStore::CompiledSelection> s3 =
      store.SelectCompiled("d", "e", {{"a", 1}, {"extra", 9}});
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s1->program.get(), s3->program.get());
  EXPECT_EQ(2u, store.compile_cache_hits());
  EXPECT_EQ(1u, store.compile_cache_misses());

  // Initial-constraint rejection is reported and compiles nothing.
  std::vector<const InteractionTemplate*> rejected;
  Result<TemplateStore::CompiledSelection> s4 =
      store.SelectCompiled("d", "e", {{"a", 1000}}, &rejected);
  EXPECT_FALSE(s4.ok());
  EXPECT_EQ(Status::kNoTemplate, s4.status());
  EXPECT_EQ(1u, rejected.size());
  EXPECT_EQ(1u, store.compile_cache_misses());

  // Reloading the driverlet invalidates the cache (template addresses die).
  ASSERT_EQ(Status::kOk, store.AddPackage(CachePackage()));
  EXPECT_EQ(1u, store.compile_cache_evictions());
  Result<TemplateStore::CompiledSelection> s5 = store.SelectCompiled("d", "e", {{"a", 1}});
  ASSERT_TRUE(s5.ok());
  EXPECT_EQ(2u, store.compile_cache_misses());
}

// One unindexed entry slot whose templates bind different scalar param sets:
// {a}, {b} and {a, b}. Every input below is covered by exactly one of them.
DriverletPackage MixedParamPackage() {
  DriverletPackage pkg;
  pkg.driverlet = "d";
  auto add = [&pkg](const char* name, std::vector<std::string> params,
                    std::vector<ConstraintAtom> atoms) {
    InteractionTemplate t;
    t.name = name;
    t.entry = "e";
    for (const std::string& p : params) {
      t.params.push_back(ParamSpec{p, false});
    }
    for (ConstraintAtom& a : atoms) {
      t.initial.AddAtom(std::move(a));
    }
    TemplateEvent wr;
    wr.kind = EventKind::kRegWrite;
    wr.reg_off = 0x10;
    wr.value = Expr::Input(params.front());
    t.events.push_back(wr);
    pkg.templates.push_back(std::move(t));
  };
  add("A", {"a"}, {ConstraintAtom{Expr::Input("a"), Cmp::kLe, Expr::Const(10)}});
  add("B", {"b"}, {ConstraintAtom{Expr::Input("b"), Cmp::kGe, Expr::Const(5)}});
  add("AB", {"a", "b"},
      {ConstraintAtom{Expr::Input("a"), Cmp::kGt, Expr::Const(10)},
       ConstraintAtom{Expr::Input("b"), Cmp::kLt, Expr::Const(5)}});
  return pkg;
}

TEST(TemplateStoreCompiledTest, SelectCompiledMatchesLinearAcrossSignaturesAndSwap) {
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(MixedParamPackage()));
  ASSERT_EQ(0u, store.indexed_slot_count());
  // Alternating scalar signatures: {a}, {b}, {a, b} with either param set's
  // winner, and back again.
  const std::vector<Bindings> inputs = {
      {{"a", 3}},  {{"b", 9}},           {{"a", 50}, {"b", 2}}, {{"a", 3}},
      {{"b", 7}},  {{"a", 50}, {"b", 9}}, {{"a", 10}},           {{"a", 50}, {"b", 2}},
  };
  auto run = [&](const char* phase) {
    std::map<const InteractionTemplate*, const CompiledProgram*> cold;
    for (const Bindings& in : inputs) {
      Result<TemplateStore::CompiledSelection> sel = store.SelectCompiled("d", "e", in);
      Result<const InteractionTemplate*> lin = store.SelectLinear("d", "e", in);
      ASSERT_TRUE(sel.ok()) << phase;
      ASSERT_TRUE(lin.ok()) << phase;
      EXPECT_EQ(*lin, sel->tpl) << phase << " winner " << sel->tpl->name;
      ASSERT_NE(nullptr, sel->program);
      EXPECT_EQ(sel->tpl, sel->program->source) << phase;
      // Warm selections hand back the very program the cold one compiled.
      auto [it, first] = cold.emplace(sel->tpl, sel->program.get());
      if (!first) {
        EXPECT_EQ(it->second, sel->program.get()) << phase << " " << sel->tpl->name;
      }
    }
    EXPECT_EQ(3u, cold.size()) << phase;
  };
  run("before swap");
  EXPECT_EQ(3u, store.compile_cache_misses());

  // Another view publishes a new population; this view resyncs lazily and
  // must select (and compile) the new snapshot's templates, never the old.
  DriverletPackage unrelated = CachePackage();
  unrelated.driverlet = "other";
  std::unique_ptr<TemplateStore> other = store.NewShardView();
  ASSERT_EQ(Status::kOk, other->AddPackage(unrelated));
  run("after swap");
  EXPECT_EQ(3u, store.compile_cache_evictions());
  EXPECT_EQ(6u, store.compile_cache_misses());
}

}  // namespace
}  // namespace dlt
