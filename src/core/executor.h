// Single-threaded, transactional event executor (paper §5, "Executing events").
// Executes one instantiated template against a ReplayContext. On the happy path
// all state-changing input constraints hold; any violation is reported as a
// divergence for the replayer to handle (soft reset + re-execution).
#ifndef SRC_CORE_EXECUTOR_H_
#define SRC_CORE_EXECUTOR_H_

#include <vector>

#include "src/core/interaction_template.h"
#include "src/core/replay_args.h"
#include "src/core/replay_context.h"

namespace dlt {

class Counter;
class Histogram;
class IntegrityChain;

class Executor {
 public:
  Executor(ReplayContext* ctx, const InteractionTemplate* tpl, const ReplayArgs* args);

  // Executes all events once. kDiverged / kTimeout fill the report.
  Status Run(DivergenceReport* report);

  size_t events_executed() const { return events_executed_; }

  // Optional integrity measurement: Run folds every completed top-level event
  // into |chain| (integrity.h). Poll bodies are excluded by the parity
  // contract — only Run's own loop folds.
  void set_integrity_chain(IntegrityChain* chain) { chain_ = chain; }

 private:
  Status RunEvents(const std::vector<TemplateEvent>& events, DivergenceReport* report);
  // RunOne wraps ExecuteOne with telemetry (per-event trace span + latency
  // histogram); the disabled path costs one branch before dispatch.
  Status RunOne(const TemplateEvent& e, size_t index, DivergenceReport* report);
  Status ExecuteOne(const TemplateEvent& e, size_t index, DivergenceReport* report);

  Result<uint64_t> EvalExpr(const ExprRef& e) const;
  Result<PhysAddr> EvalAddr(const ExprRef& e, size_t access_len) const;
  Status CheckConstraint(const TemplateEvent& e, size_t index, uint64_t observed,
                         DivergenceReport* report);
  Status BindAndCheck(const TemplateEvent& e, size_t index, uint64_t observed,
                      DivergenceReport* report);
  void FillDivergence(const TemplateEvent& e, size_t index, uint64_t observed,
                      DivergenceReport* report) const;
  // Buffer resolution is const-correct: events that store into the program
  // buffer (kCopyFromDma, kPioIn) need a writable view and are refused with
  // kPermissionDenied when the trustlet passed the buffer read-only; events
  // that only consume bytes (kCopyToDma, kPioOut) accept either flavour.
  Result<BufferView> ResolveWritable(const TemplateEvent& e, uint64_t* offset,
                                     uint64_t* len) const;
  Result<ConstBufferView> ResolveReadable(const TemplateEvent& e, uint64_t* offset,
                                          uint64_t* len) const;
  Status CheckBufferSpan(const ConstBufferView& buf, const TemplateEvent& e, uint64_t* offset,
                         uint64_t* len) const;

  ReplayContext* ctx_;
  const InteractionTemplate* tpl_;
  const ReplayArgs* args_;
  Bindings bindings_;
  // Allocations made during this run, for symbolic-address bounds checking.
  struct Alloc {
    PhysAddr base;
    uint64_t size;
  };
  std::vector<Alloc> allocs_;
  std::vector<uint32_t> pio_scratch_;  // staging words for PIO block transfers
  size_t events_executed_ = 0;
  IntegrityChain* chain_ = nullptr;
};

// Renders an event for reports: "reg_write mmc+0x34 @bcm_sdhost.cc:210".
std::string DescribeEvent(const TemplateEvent& e);

// Divergence-report choke point shared by the interpreter and the compiled
// executor (compiled_executor.cc): telemetry taps, report fields, and the
// rewound-event listing must stay byte-identical between engines.
void FillDivergenceReport(ReplayContext* ctx, const InteractionTemplate& tpl,
                          const TemplateEvent& e, size_t index, uint64_t observed,
                          DivergenceReport* report);

// Per-kind replay latency histogram, shared between engines so both record
// into the same "replay.us.<kind>" series.
Histogram& ReplayKindHistogram(EventKind k);

// "replay.events" and "replay.constraint_evals", resolved once and shared by
// both engines.
Counter& ReplayEventsCounter();
Counter& ConstraintEvalsCounter();

}  // namespace dlt

#endif  // SRC_CORE_EXECUTOR_H_
