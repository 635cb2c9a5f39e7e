// CompiledProgram: an interaction template lowered to one contiguous vector of
// fixed-size ops for the hot replay path. Lowering happens once per template
// (cached by the TemplateStore): operand expressions are flattened to postfix
// step sequences over a dense slot table (constant subtrees fold to immediates),
// constraint checks are specialized to flat atom ranges with the comparison
// baked in, poll/irq timeout defaults are resolved, and consecutive same-base
// shm word accesses are coalesced into bulk ops backed by the AddressSpace
// block transfer path. The CompiledExecutor (compiled_executor.h) dispatches
// the op vector with semantics byte-identical to the interpreter in
// executor.cc — docs/replay_compiler.md spells out the contract.
#ifndef SRC_CORE_COMPILED_PROGRAM_H_
#define SRC_CORE_COMPILED_PROGRAM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

// Deterministic replay CPU cost model (docs/replay_compiler.md). The
// interpreter charges kReplayInterpEventNs per source event (executor.cc); the
// compiled engine dispatches one fixed-size op per coalesced run at
// kCompiledOpNs plus kCompiledWordNs per covered source word, which is strictly
// cheaper for every op shape (120 + 6k < 800k for all k >= 1).
inline constexpr uint64_t kReplayInterpEventNs = 800;
inline constexpr uint64_t kCompiledOpNs = 120;
inline constexpr uint64_t kCompiledWordNs = 6;

// Flattened postfix expression step. kConst pushes |imm|, kInput pushes the
// slot's bound value (kNotFound when unbound), kNot is unary, everything else
// pops two operands and pushes Apply(op, a, b) with expr.cc semantics
// (shift >= 64 yields 0, div/mod by zero is kInvalidArg).
struct ExprStep {
  ExprOp op = ExprOp::kConst;
  uint16_t slot = 0;
  uint64_t imm = 0;
};

// Maximum postfix evaluation stack depth the executor provisions; templates
// with deeper operand expressions fail to compile and fall back to the
// interpreter (Status::kUnsupported from CompileTemplate).
inline constexpr size_t kMaxExprStack = 24;

inline constexpr uint16_t kNoSlot = 0xffff;
inline constexpr uint16_t kNoBuffer = 0xffff;

// A pre-lowered operand: immediate, single slot load, or a postfix step range.
// kNone mirrors a null ExprRef (the interpreter surfaces it as kCorrupt).
struct Operand {
  enum class Kind : uint8_t { kNone, kImm, kSlot, kSteps };
  Kind kind = Kind::kNone;
  uint16_t slot = 0;
  uint64_t imm = 0;
  uint32_t begin = 0;  // ExprStep pool range when kSteps
  uint32_t end = 0;
};

// One specialized constraint comparison: cmp baked in, operands pre-lowered.
struct CompiledAtom {
  Operand lhs;
  Operand rhs;
  Cmp cmp = Cmp::kEq;
};

// Compiled opcodes. kShmReadBulk/kShmWriteBulk cover a run of >= 2 consecutive
// same-base word accesses (CompiledWord carries the per-word metadata); every
// other op covers exactly one source event.
enum class COp : uint8_t {
  kRegRead,
  kRegWrite,
  kShmRead,
  kShmWrite,
  kShmReadBulk,
  kShmWriteBulk,
  kDmaAlloc,
  kRandom,
  kTimestamp,
  kWaitIrq,
  kCopyFromDma,
  kCopyToDma,
  kPioIn,
  kPioOut,
  kDelay,
  kPollReg,
  kPollShm,
};

const char* COpName(COp c);

// Per-word metadata of a bulk shm op: bind slot, constraint atoms, the value
// operand (writes), and the source event (divergence reports / trace parity).
struct CompiledWord {
  uint16_t bind_slot = kNoSlot;
  uint32_t atom_begin = 0;
  uint32_t atom_end = 0;
  Operand value;
  uint32_t src_event = 0;  // index into CompiledProgram::src
};

struct CompiledOp {
  COp code = COp::kRegRead;
  uint16_t device = 0;
  uint16_t bind_slot = kNoSlot;
  uint16_t buffer = kNoBuffer;  // index into CompiledProgram::buffer_names
  uint64_t reg_off = 0;
  Operand addr;     // shm address (bulk: the shared base expression)
  Operand value;    // write value / alloc size / delay us / copy+pio length
  Operand buf_off;  // copies + PIO: offset into the program buffer
  uint32_t atom_begin = 0;  // event constraint atoms (non-bulk ops)
  uint32_t atom_end = 0;
  int irq_line = -1;
  // Poll meta ops: mask/compare baked in, defaults resolved at compile time.
  uint32_t mask = 0;
  uint32_t want = 0;
  Cmp poll_cmp = Cmp::kEq;
  uint64_t timeout_us = 0;   // resolved: never 0
  uint64_t interval_us = 0;  // resolved: never 0
  uint32_t body_begin = 0;   // compiled body op range (polls)
  uint32_t body_end = 0;
  // Bulk shm ops: CompiledWord range plus the first word's constant offset
  // from the base expression (word w lives at base + base_off + 4w).
  uint32_t word_begin = 0;
  uint32_t word_end = 0;
  uint64_t base_off = 0;
  uint32_t src_event = 0;  // index into CompiledProgram::src (non-bulk ops)
};

// Source-event back reference: the template event an op (or bulk word) covers
// plus its index within its own event sequence — divergence reports and trace
// spans must match the interpreter's per-sequence indices exactly.
struct SrcEvent {
  const TemplateEvent* ev = nullptr;
  uint32_t index = 0;
};

class CompiledProgram {
 public:
  const InteractionTemplate* source = nullptr;

  std::vector<CompiledOp> ops;
  std::vector<CompiledWord> words;
  std::vector<CompiledAtom> atoms;
  std::vector<ExprStep> steps;
  std::vector<SrcEvent> src;
  // Every slot name paired with its slot id, sorted by name: Run merge-joins
  // this against the invoke's (sorted) scalar map, so programs are
  // independent of which scalar signature selected them.
  std::vector<std::pair<std::string, uint16_t>> scalar_loads;
  std::vector<std::string> buffer_names;
  uint32_t main_end = 0;  // ops[0, main_end) is the top-level sequence
  uint16_t slot_count = 0;
  uint32_t source_events = 0;  // events covered, poll bodies counted once

  // Loads |scalars| into the slot arrays (callers provide slot_count-sized
  // buffers, zeroed |bound|).
  void LoadScalars(const Bindings& scalars, uint64_t* slots, uint8_t* bound) const;

  // Evaluates an operand against bound slots. Errors mirror Expr::Eval:
  // kNotFound for an unbound input, kInvalidArg for div/mod by zero, kCorrupt
  // for a kNone operand (null source expression).
  Result<uint64_t> EvalOperand(const Operand& o, const uint64_t* slots,
                               const uint8_t* bound) const;

  // Evaluates atoms [begin, end) as a conjunction with Constraint::Eval
  // semantics: in order, first false short-circuits, first error propagates.
  Result<bool> EvalAtoms(uint32_t begin, uint32_t end, const uint64_t* slots,
                         const uint8_t* bound) const;

  // Static cost-model totals (poll iterations excluded from both).
  uint64_t StaticInterpNs() const { return uint64_t{source_events} * kReplayInterpEventNs; }
  uint64_t StaticCompiledNs() const;

  // Human-readable op listing for `driverletc compile`.
  std::string Disassemble() const;
};

// Lowers a template. kUnsupported when an operand expression exceeds
// kMaxExprStack (the caller keeps the interpreter as fallback).
Result<std::shared_ptr<const CompiledProgram>> CompileTemplate(const InteractionTemplate* tpl);

// Test hook: arms a deliberate constant-folding miscompile (constants inside
// compound operands lower off by one). Exists so the conformance harness can
// prove the cross-engine oracle catches real codegen bugs; never set outside
// tests. Armed state only affects templates compiled while it is on — caches
// holding programs compiled earlier are unaffected.
void SetCompiledFoldQuirkForTest(bool on);
bool CompiledFoldQuirkForTest();

}  // namespace dlt

#endif  // SRC_CORE_COMPILED_PROGRAM_H_
