#include "src/core/compiled_program.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace dlt {

namespace {
// Test hook: when armed, constant steps inside compound operands lower with an
// off-by-one — a planted miscompile the conformance harness must catch, shrink
// and repro (tests/conformance_test.cc). Immediate and slot operands are left
// intact so only kSteps-shaped operands misbehave.
bool g_fold_quirk = false;
}  // namespace

void SetCompiledFoldQuirkForTest(bool on) { g_fold_quirk = on; }
bool CompiledFoldQuirkForTest() { return g_fold_quirk; }

namespace {

// Mirror of Expr::Apply (expr.cc): shifts >= 64 yield 0, div/mod by zero is
// kInvalidArg. Kept in sync so compiled evaluation is bit-identical.
Result<uint64_t> ApplyOp(ExprOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case ExprOp::kAnd: return a & b;
    case ExprOp::kOr: return a | b;
    case ExprOp::kXor: return a ^ b;
    case ExprOp::kShl: return b >= 64 ? 0 : a << b;
    case ExprOp::kShr: return b >= 64 ? 0 : a >> b;
    case ExprOp::kAdd: return a + b;
    case ExprOp::kSub: return a - b;
    case ExprOp::kMul: return a * b;
    case ExprOp::kDiv:
      if (b == 0) {
        return Status::kInvalidArg;
      }
      return a / b;
    case ExprOp::kMod:
      if (b == 0) {
        return Status::kInvalidArg;
      }
      return a % b;
    case ExprOp::kConst:
    case ExprOp::kInput:
    case ExprOp::kNot:
      break;
  }
  return Status::kInvalidArg;
}

Result<uint64_t> EvalSteps(const std::vector<ExprStep>& pool, uint32_t begin, uint32_t end,
                           const uint64_t* slots, const uint8_t* bound) {
  uint64_t st[kMaxExprStack];
  size_t sp = 0;
  for (uint32_t i = begin; i < end; ++i) {
    const ExprStep& s = pool[i];
    switch (s.op) {
      case ExprOp::kConst:
        st[sp++] = s.imm;
        break;
      case ExprOp::kInput:
        if (bound[s.slot] == 0) {
          return Status::kNotFound;
        }
        st[sp++] = slots[s.slot];
        break;
      case ExprOp::kNot:
        st[sp - 1] = ~st[sp - 1];
        break;
      default: {
        uint64_t b = st[--sp];
        DLT_ASSIGN_OR_RETURN(st[sp - 1], ApplyOp(s.op, st[sp - 1], b));
        break;
      }
    }
  }
  return st[0];
}

// Splits |addr| into (base expression, constant offset): (dma0 + 0x18) becomes
// (dma0, 0x18). Non-additive shapes keep the whole expression with offset 0.
struct SplitAddr {
  ExprRef base;
  uint64_t off = 0;
};

SplitAddr SplitBase(const ExprRef& addr) {
  if (addr != nullptr && addr->op() == ExprOp::kAdd) {
    if (addr->rhs() != nullptr && addr->rhs()->is_const() && addr->lhs() != nullptr) {
      return SplitAddr{addr->lhs(), addr->rhs()->constant()};
    }
    if (addr->lhs() != nullptr && addr->lhs()->is_const() && addr->rhs() != nullptr) {
      return SplitAddr{addr->rhs(), addr->lhs()->constant()};
    }
  }
  return SplitAddr{addr, 0};
}

class Compiler {
 public:
  explicit Compiler(const InteractionTemplate* tpl) : tpl_(tpl) {
    prog_ = std::make_shared<CompiledProgram>();
    prog_->source = tpl;
  }

  Result<std::shared_ptr<const CompiledProgram>> Build() {
    DLT_RETURN_IF_ERROR(CompileSeq(tpl_->events));
    prog_->main_end = MainEnd();
    if (slots_.size() > kNoSlot) {
      return Status::kUnsupported;
    }
    prog_->slot_count = static_cast<uint16_t>(slots_.size());
    prog_->scalar_loads.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) {
      prog_->scalar_loads.emplace_back(name, slot);  // std::map: sorted by name
    }
    return std::shared_ptr<const CompiledProgram>(std::move(prog_));
  }

 private:
  // The top-level op range ends where the first deferred poll body begins; all
  // bodies are appended after their owning level finishes.
  uint32_t MainEnd() const { return main_end_; }

  uint16_t Slot(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) {
      return it->second;
    }
    uint16_t id = static_cast<uint16_t>(slots_.size());
    slots_.emplace(name, id);
    return id;
  }

  uint16_t SlotOrNone(const std::string& name) { return name.empty() ? kNoSlot : Slot(name); }

  uint16_t BufferIndex(const std::string& name) {
    for (size_t i = 0; i < prog_->buffer_names.size(); ++i) {
      if (prog_->buffer_names[i] == name) {
        return static_cast<uint16_t>(i);
      }
    }
    prog_->buffer_names.push_back(name);
    return static_cast<uint16_t>(prog_->buffer_names.size() - 1);
  }

  uint32_t AddSrc(const TemplateEvent* e, size_t index) {
    prog_->src.push_back(SrcEvent{e, static_cast<uint32_t>(index)});
    ++prog_->source_events;
    return static_cast<uint32_t>(prog_->src.size() - 1);
  }

  Status Walk(const Expr* e, size_t* cur, size_t* mx) {
    if (e == nullptr) {
      return Status::kUnsupported;  // malformed tree; interpreter owns it
    }
    switch (e->op()) {
      case ExprOp::kConst:
        prog_->steps.push_back(
            ExprStep{ExprOp::kConst, 0, e->constant() + (g_fold_quirk ? 1 : 0)});
        ++*cur;
        break;
      case ExprOp::kInput:
        prog_->steps.push_back(ExprStep{ExprOp::kInput, Slot(e->input_name()), 0});
        ++*cur;
        break;
      case ExprOp::kNot:
        DLT_RETURN_IF_ERROR(Walk(e->lhs().get(), cur, mx));
        prog_->steps.push_back(ExprStep{ExprOp::kNot, 0, 0});
        break;
      default:
        DLT_RETURN_IF_ERROR(Walk(e->lhs().get(), cur, mx));
        DLT_RETURN_IF_ERROR(Walk(e->rhs().get(), cur, mx));
        prog_->steps.push_back(ExprStep{e->op(), 0, 0});
        --*cur;
        break;
    }
    *mx = std::max(*mx, *cur);
    if (*mx > kMaxExprStack) {
      return Status::kUnsupported;
    }
    return Status::kOk;
  }

  Result<Operand> Flatten(const ExprRef& e) {
    Operand o;
    if (e == nullptr) {
      return o;  // kNone: evaluates to kCorrupt, like the interpreter
    }
    if (e->is_const()) {
      o.kind = Operand::Kind::kImm;
      o.imm = e->constant();
      return o;
    }
    if (e->is_input()) {
      o.kind = Operand::Kind::kSlot;
      o.slot = Slot(e->input_name());
      return o;
    }
    o.kind = Operand::Kind::kSteps;
    o.begin = static_cast<uint32_t>(prog_->steps.size());
    size_t cur = 0;
    size_t mx = 0;
    DLT_RETURN_IF_ERROR(Walk(e.get(), &cur, &mx));
    o.end = static_cast<uint32_t>(prog_->steps.size());
    return o;
  }

  Status AddAtoms(const Constraint& c, uint32_t* begin, uint32_t* end) {
    *begin = static_cast<uint32_t>(prog_->atoms.size());
    for (const ConstraintAtom& a : c.atoms()) {
      CompiledAtom ca;
      DLT_ASSIGN_OR_RETURN(ca.lhs, Flatten(a.lhs));
      DLT_ASSIGN_OR_RETURN(ca.rhs, Flatten(a.rhs));
      ca.cmp = a.cmp;
      prog_->atoms.push_back(ca);
    }
    *end = static_cast<uint32_t>(prog_->atoms.size());
    return Status::kOk;
  }

  // Length of the coalescible run starting at evs[i]: same kind, structurally
  // equal base expression, constant offsets stepping by exactly 4. A read that
  // binds one of the base expression's inputs ends the run after itself (the
  // next word's interpreted address evaluation would see the new binding).
  size_t MeasureRun(const std::vector<TemplateEvent>& evs, size_t i) {
    const TemplateEvent& first = evs[i];
    if (first.addr == nullptr) {
      return 1;
    }
    SplitAddr head = SplitBase(first.addr);
    std::set<std::string> base_inputs;
    head.base->CollectInputs(&base_inputs);
    size_t run = 0;
    for (size_t j = i; j < evs.size(); ++j) {
      const TemplateEvent& e = evs[j];
      if (e.kind != first.kind || e.addr == nullptr) {
        break;
      }
      SplitAddr s = SplitBase(e.addr);
      if (!Expr::Equal(s.base, head.base) || s.off != head.off + 4 * (j - i)) {
        break;
      }
      ++run;
      if (!e.bind.empty() && base_inputs.count(e.bind) != 0) {
        break;
      }
    }
    return run;
  }

  Status EmitBulk(const std::vector<TemplateEvent>& evs, size_t i, size_t run) {
    const TemplateEvent& first = evs[i];
    SplitAddr head = SplitBase(first.addr);
    CompiledOp op;
    op.code = first.kind == EventKind::kShmRead ? COp::kShmReadBulk : COp::kShmWriteBulk;
    op.device = first.device;
    DLT_ASSIGN_OR_RETURN(op.addr, Flatten(head.base));
    op.base_off = head.off;
    op.word_begin = static_cast<uint32_t>(prog_->words.size());
    for (size_t w = 0; w < run; ++w) {
      const TemplateEvent& e = evs[i + w];
      CompiledWord cw;
      cw.bind_slot = SlotOrNone(e.bind);
      DLT_RETURN_IF_ERROR(AddAtoms(e.constraint, &cw.atom_begin, &cw.atom_end));
      DLT_ASSIGN_OR_RETURN(cw.value, Flatten(e.value));
      cw.src_event = AddSrc(&e, i + w);
      prog_->words.push_back(cw);
    }
    op.word_end = static_cast<uint32_t>(prog_->words.size());
    op.src_event = prog_->words[op.word_begin].src_event;
    prog_->ops.push_back(op);
    return Status::kOk;
  }

  Status CompileOne(const TemplateEvent& e, size_t index,
                    std::vector<std::pair<uint32_t, const std::vector<TemplateEvent>*>>* bodies) {
    CompiledOp op;
    op.device = e.device;
    op.reg_off = e.reg_off;
    op.irq_line = e.irq_line;
    op.src_event = AddSrc(&e, index);
    switch (e.kind) {
      case EventKind::kRegRead: {
        op.code = COp::kRegRead;
        op.bind_slot = SlotOrNone(e.bind);
        DLT_RETURN_IF_ERROR(AddAtoms(e.constraint, &op.atom_begin, &op.atom_end));
        break;
      }
      case EventKind::kShmRead: {
        op.code = COp::kShmRead;
        DLT_ASSIGN_OR_RETURN(op.addr, Flatten(e.addr));
        op.bind_slot = SlotOrNone(e.bind);
        DLT_RETURN_IF_ERROR(AddAtoms(e.constraint, &op.atom_begin, &op.atom_end));
        break;
      }
      case EventKind::kDmaAlloc: {
        op.code = COp::kDmaAlloc;
        DLT_ASSIGN_OR_RETURN(op.value, Flatten(e.value));
        op.bind_slot = SlotOrNone(e.bind);
        DLT_RETURN_IF_ERROR(AddAtoms(e.constraint, &op.atom_begin, &op.atom_end));
        break;
      }
      case EventKind::kGetRandBytes: {
        op.code = COp::kRandom;
        op.bind_slot = SlotOrNone(e.bind);
        DLT_RETURN_IF_ERROR(AddAtoms(e.constraint, &op.atom_begin, &op.atom_end));
        break;
      }
      case EventKind::kGetTimestamp: {
        op.code = COp::kTimestamp;
        op.bind_slot = SlotOrNone(e.bind);
        DLT_RETURN_IF_ERROR(AddAtoms(e.constraint, &op.atom_begin, &op.atom_end));
        break;
      }
      case EventKind::kWaitIrq: {
        op.code = COp::kWaitIrq;
        op.timeout_us = e.timeout_us == 0 ? 1'000'000 : e.timeout_us;
        break;
      }
      case EventKind::kCopyFromDma:
      case EventKind::kCopyToDma: {
        op.code = e.kind == EventKind::kCopyFromDma ? COp::kCopyFromDma : COp::kCopyToDma;
        op.buffer = BufferIndex(e.buffer);
        DLT_ASSIGN_OR_RETURN(op.buf_off, Flatten(e.buf_offset));
        DLT_ASSIGN_OR_RETURN(op.value, Flatten(e.value));
        DLT_ASSIGN_OR_RETURN(op.addr, Flatten(e.addr));
        break;
      }
      case EventKind::kPioIn:
      case EventKind::kPioOut: {
        op.code = e.kind == EventKind::kPioIn ? COp::kPioIn : COp::kPioOut;
        op.buffer = BufferIndex(e.buffer);
        DLT_ASSIGN_OR_RETURN(op.buf_off, Flatten(e.buf_offset));
        DLT_ASSIGN_OR_RETURN(op.value, Flatten(e.value));
        break;
      }
      case EventKind::kRegWrite: {
        op.code = COp::kRegWrite;
        DLT_ASSIGN_OR_RETURN(op.value, Flatten(e.value));
        break;
      }
      case EventKind::kShmWrite: {
        op.code = COp::kShmWrite;
        DLT_ASSIGN_OR_RETURN(op.addr, Flatten(e.addr));
        DLT_ASSIGN_OR_RETURN(op.value, Flatten(e.value));
        break;
      }
      case EventKind::kDelay: {
        op.code = COp::kDelay;
        DLT_ASSIGN_OR_RETURN(op.value, Flatten(e.value));
        break;
      }
      case EventKind::kPollReg:
      case EventKind::kPollShm: {
        op.code = e.kind == EventKind::kPollReg ? COp::kPollReg : COp::kPollShm;
        if (e.kind == EventKind::kPollShm) {
          DLT_ASSIGN_OR_RETURN(op.addr, Flatten(e.addr));
        }
        op.bind_slot = SlotOrNone(e.bind);
        op.mask = e.mask;
        op.want = e.want;
        op.poll_cmp = e.poll_cmp;
        op.timeout_us = e.timeout_us == 0 ? 1'000'000 : e.timeout_us;
        op.interval_us = e.interval_us == 0 ? 1 : e.interval_us;
        bodies->emplace_back(static_cast<uint32_t>(prog_->ops.size()), &e.body);
        break;
      }
    }
    prog_->ops.push_back(op);
    return Status::kOk;
  }

  Status CompileSeq(const std::vector<TemplateEvent>& evs) {
    std::vector<std::pair<uint32_t, const std::vector<TemplateEvent>*>> bodies;
    for (size_t i = 0; i < evs.size();) {
      const TemplateEvent& e = evs[i];
      if (e.kind == EventKind::kShmRead || e.kind == EventKind::kShmWrite) {
        size_t run = MeasureRun(evs, i);
        if (run >= 2) {
          DLT_RETURN_IF_ERROR(EmitBulk(evs, i, run));
          i += run;
          continue;
        }
      }
      DLT_RETURN_IF_ERROR(CompileOne(e, i, &bodies));
      ++i;
    }
    if (depth_ == 0) {
      main_end_ = static_cast<uint32_t>(prog_->ops.size());
    }
    // Poll bodies compile after the level's own ops so every sequence occupies
    // a contiguous op range; nested bodies land after their parent level.
    ++depth_;
    for (const auto& [op_index, body] : bodies) {
      prog_->ops[op_index].body_begin = static_cast<uint32_t>(prog_->ops.size());
      DLT_RETURN_IF_ERROR(CompileSeq(*body));
      prog_->ops[op_index].body_end = static_cast<uint32_t>(prog_->ops.size());
    }
    --depth_;
    return Status::kOk;
  }

  const InteractionTemplate* tpl_;
  std::shared_ptr<CompiledProgram> prog_;
  std::map<std::string, uint16_t> slots_;
  uint32_t main_end_ = 0;
  int depth_ = 0;
};

}  // namespace

const char* COpName(COp c) {
  switch (c) {
    case COp::kRegRead: return "reg_read";
    case COp::kRegWrite: return "reg_write";
    case COp::kShmRead: return "shm_read";
    case COp::kShmWrite: return "shm_write";
    case COp::kShmReadBulk: return "shm_read_bulk";
    case COp::kShmWriteBulk: return "shm_write_bulk";
    case COp::kDmaAlloc: return "dma_alloc";
    case COp::kRandom: return "get_rand";
    case COp::kTimestamp: return "get_timestamp";
    case COp::kWaitIrq: return "wait_irq";
    case COp::kCopyFromDma: return "copy_from_dma";
    case COp::kCopyToDma: return "copy_to_dma";
    case COp::kPioIn: return "pio_in";
    case COp::kPioOut: return "pio_out";
    case COp::kDelay: return "delay";
    case COp::kPollReg: return "poll_reg";
    case COp::kPollShm: return "poll_shm";
  }
  return "?";
}

void CompiledProgram::LoadScalars(const Bindings& scalars, uint64_t* slots,
                                  uint8_t* bound) const {
  auto it = scalars.begin();
  for (const auto& [name, slot] : scalar_loads) {
    while (it != scalars.end() && it->first < name) {
      ++it;
    }
    if (it == scalars.end()) {
      return;
    }
    if (it->first == name) {
      slots[slot] = it->second;
      bound[slot] = 1;
    }
  }
}

Result<uint64_t> CompiledProgram::EvalOperand(const Operand& o, const uint64_t* slots,
                                              const uint8_t* bound) const {
  switch (o.kind) {
    case Operand::Kind::kImm:
      return o.imm;
    case Operand::Kind::kSlot:
      if (bound[o.slot] == 0) {
        return Status::kNotFound;
      }
      return slots[o.slot];
    case Operand::Kind::kSteps:
      return EvalSteps(steps, o.begin, o.end, slots, bound);
    case Operand::Kind::kNone:
      break;
  }
  return Status::kCorrupt;  // null source expression (interpreter: kCorrupt)
}

Result<bool> CompiledProgram::EvalAtoms(uint32_t begin, uint32_t end, const uint64_t* slots,
                                        const uint8_t* bound) const {
  for (uint32_t i = begin; i < end; ++i) {
    const CompiledAtom& a = atoms[i];
    DLT_ASSIGN_OR_RETURN(uint64_t lhs, EvalOperand(a.lhs, slots, bound));
    DLT_ASSIGN_OR_RETURN(uint64_t rhs, EvalOperand(a.rhs, slots, bound));
    if (!CompareValues(a.cmp, lhs, rhs)) {
      return false;
    }
  }
  return true;
}

uint64_t CompiledProgram::StaticCompiledNs() const {
  uint64_t total = 0;
  for (const CompiledOp& op : ops) {
    uint64_t w = 1;
    if (op.code == COp::kShmReadBulk || op.code == COp::kShmWriteBulk) {
      w = op.word_end - op.word_begin;
    }
    total += kCompiledOpNs + kCompiledWordNs * w;
  }
  return total;
}

std::string CompiledProgram::Disassemble() const {
  std::string out;
  char line[256];
  auto slot_name = [this](uint16_t slot) -> const char* {
    for (const auto& [name, s] : scalar_loads) {
      if (s == slot) {
        return name.c_str();
      }
    }
    return "?";
  };
  std::snprintf(line, sizeof(line), "program %s/%s: %u ops (%u main), %zu words, %zu atoms, %zu steps, %u slots\n",
                source != nullptr ? source->entry.c_str() : "?",
                source != nullptr ? source->name.c_str() : "?",
                static_cast<unsigned>(ops.size()), main_end, words.size(), atoms.size(),
                steps.size(), static_cast<unsigned>(slot_count));
  out += line;
  for (size_t i = 0; i < ops.size(); ++i) {
    const CompiledOp& op = ops[i];
    std::snprintf(line, sizeof(line), "  #%03zu %-14s", i, COpName(op.code));
    out += line;
    switch (op.code) {
      case COp::kRegRead:
      case COp::kRegWrite:
      case COp::kPioIn:
      case COp::kPioOut:
      case COp::kPollReg:
        std::snprintf(line, sizeof(line), " dev%u+0x%llx", op.device,
                      static_cast<unsigned long long>(op.reg_off));
        out += line;
        break;
      case COp::kWaitIrq:
        std::snprintf(line, sizeof(line), " irq%d timeout=%lluus", op.irq_line,
                      static_cast<unsigned long long>(op.timeout_us));
        out += line;
        break;
      default:
        break;
    }
    if (op.code == COp::kShmReadBulk || op.code == COp::kShmWriteBulk) {
      std::snprintf(line, sizeof(line), " base+0x%llx words=%u",
                    static_cast<unsigned long long>(op.base_off), op.word_end - op.word_begin);
      out += line;
    }
    if (op.code == COp::kPollReg || op.code == COp::kPollShm) {
      std::snprintf(line, sizeof(line), " mask=0x%x %s 0x%x body=[%u,%u)", op.mask,
                    CmpToken(op.poll_cmp), op.want, op.body_begin, op.body_end);
      out += line;
    }
    if (op.bind_slot != kNoSlot) {
      std::snprintf(line, sizeof(line), " bind=%s", slot_name(op.bind_slot));
      out += line;
    }
    if (op.atom_end > op.atom_begin) {
      std::snprintf(line, sizeof(line), " atoms=%u", op.atom_end - op.atom_begin);
      out += line;
    }
    if (op.buffer != kNoBuffer) {
      std::snprintf(line, sizeof(line), " buf=%s", buffer_names[op.buffer].c_str());
      out += line;
    }
    out += "\n";
  }
  return out;
}

Result<std::shared_ptr<const CompiledProgram>> CompileTemplate(const InteractionTemplate* tpl) {
  if (tpl == nullptr) {
    return Status::kInvalidArg;
  }
  return Compiler(tpl).Build();
}

}  // namespace dlt
