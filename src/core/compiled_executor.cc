#include "src/core/compiled_executor.h"

#include <cstring>

#include "src/core/executor.h"
#include "src/core/integrity.h"
#include "src/obs/edge.h"
#include "src/obs/telemetry.h"

namespace dlt {

CompiledExecutor::CompiledExecutor(ReplayContext* ctx, const CompiledProgram* prog,
                                   const ReplayArgs* args)
    : ctx_(ctx), prog_(prog), args_(args) {}

void CompiledExecutor::FoldSrc(const SrcEvent& se) {
  if (chain_ != nullptr) {
    chain_->FoldEvent(*se.ev, se.index);
  }
}

Result<uint64_t> CompiledExecutor::EvalValue(const Operand& o) const {
  Result<uint64_t> r = prog_->EvalOperand(o, slots_.data(), bound_.data());
  if (!r.ok()) {
    return Status::kCorrupt;  // template references a symbol that never bound
  }
  return r;
}

Status CompiledExecutor::CheckAddr(PhysAddr addr, size_t access_len) const {
  bool inside = false;
  for (const Alloc& a : allocs_) {
    if (addr >= a.base && addr + access_len <= a.base + a.size) {
      inside = true;
      break;
    }
  }
  if (!inside || !ctx_->AddressAllowed(addr, access_len)) {
    return Status::kPermissionDenied;
  }
  return Status::kOk;
}

Result<PhysAddr> CompiledExecutor::EvalAddrChecked(const Operand& o, size_t access_len) const {
  DLT_ASSIGN_OR_RETURN(uint64_t addr, EvalValue(o));
  DLT_RETURN_IF_ERROR(CheckAddr(addr, access_len));
  return static_cast<PhysAddr>(addr);
}

Status CompiledExecutor::CheckAtoms(uint32_t begin, uint32_t end, const SrcEvent& se,
                                    uint64_t observed, DivergenceReport* report) {
  if (begin == end) {
    return Status::kOk;
  }
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    ConstraintEvalsCounter().Inc();
    t.Instant(TraceKind::kConstraintEval, ctx_->TimestampUs(),
              se.ev->bind.empty() ? EventKindName(se.ev->kind) : se.ev->bind, observed,
              se.index, se.ev->device);
  }
  Result<bool> ok = prog_->EvalAtoms(begin, end, slots_.data(), bound_.data());
  if (!ok.ok()) {
    return Status::kCorrupt;
  }
  if (!*ok) {
    FillDivergenceReport(ctx_, *prog_->source, *se.ev, se.index, observed, report);
    return Status::kDiverged;
  }
  return Status::kOk;
}

Status CompiledExecutor::BindAndCheck(const CompiledOp& op, uint64_t observed,
                                      DivergenceReport* report) {
  if (op.bind_slot != kNoSlot) {
    slots_[op.bind_slot] = observed;
    bound_[op.bind_slot] = 1;
  }
  return CheckAtoms(op.atom_begin, op.atom_end, prog_->src[op.src_event], observed, report);
}

Status CompiledExecutor::CheckSpanRaw(const uint8_t* data, size_t buflen, const CompiledOp& op,
                                      uint64_t* off, uint64_t* len) const {
  if (data == nullptr) {
    return Status::kInvalidArg;
  }
  DLT_ASSIGN_OR_RETURN(*off, EvalValue(op.buf_off));
  DLT_ASSIGN_OR_RETURN(*len, EvalValue(op.value));
  if (*off + *len < *off || *off + *len > buflen) {
    return Status::kInvalidArg;
  }
  return Status::kOk;
}

Status CompiledExecutor::ResolveWritableBuf(const CompiledOp& op, uint8_t** data, uint64_t* off,
                                            uint64_t* len) {
  const BufSlot& b = bufs_[op.buffer];
  if (!b.have_w) {
    return b.have_ro ? Status::kPermissionDenied : Status::kInvalidArg;
  }
  DLT_RETURN_IF_ERROR(CheckSpanRaw(b.w, b.wlen, op, off, len));
  *data = b.w;
  return Status::kOk;
}

Status CompiledExecutor::ResolveReadableBuf(const CompiledOp& op, const uint8_t** data,
                                            uint64_t* off, uint64_t* len) {
  const BufSlot& b = bufs_[op.buffer];
  if (b.have_w) {
    DLT_RETURN_IF_ERROR(CheckSpanRaw(b.w, b.wlen, op, off, len));
    *data = b.w;
    return Status::kOk;
  }
  if (!b.have_ro) {
    return Status::kInvalidArg;
  }
  DLT_RETURN_IF_ERROR(CheckSpanRaw(b.r, b.rlen, op, off, len));
  *data = b.r;
  return Status::kOk;
}

Status CompiledExecutor::ExecPoll(const CompiledOp& op, DivergenceReport* report) {
  uint64_t waited = 0;
  while (true) {
    uint32_t v = 0;
    if (op.code == COp::kPollReg) {
      DLT_ASSIGN_OR_RETURN(v, ctx_->RegRead32(op.device, op.reg_off));
    } else {
      DLT_ASSIGN_OR_RETURN(PhysAddr addr, EvalAddrChecked(op.addr, 4));
      DLT_ASSIGN_OR_RETURN(v, ctx_->MemRead32(addr));
    }
    if (CompareValues(op.poll_cmp, v & op.mask, op.want)) {
      if (op.bind_slot != kNoSlot) {
        slots_[op.bind_slot] = v;
        bound_[op.bind_slot] = 1;
      }
      return Status::kOk;
    }
    if (waited >= op.timeout_us) {
      const SrcEvent& se = prog_->src[op.src_event];
      FillDivergenceReport(ctx_, *prog_->source, *se.ev, se.index, v, report);
      return Status::kDiverged;
    }
    EdgeCoverage::Get().Hit(Edge::kCompiledPollIter);
    // Poll bodies are outside the measurement (iteration counts are device
    // timing, not template structure) — suppress folds for the body range.
    IntegrityChain* saved_chain = chain_;
    chain_ = nullptr;
    Status body = ExecRange(op.body_begin, op.body_end, report);
    chain_ = saved_chain;
    DLT_RETURN_IF_ERROR(body);
    ctx_->DelayUs(op.interval_us);
    waited += op.interval_us;
  }
}

Status CompiledExecutor::Dispatch(const CompiledOp& op, DivergenceReport* report) {
  switch (op.code) {
    case COp::kRegRead: {
      DLT_ASSIGN_OR_RETURN(uint32_t v, ctx_->RegRead32(op.device, op.reg_off));
      return BindAndCheck(op, v, report);
    }
    case COp::kShmRead: {
      DLT_ASSIGN_OR_RETURN(PhysAddr addr, EvalAddrChecked(op.addr, 4));
      DLT_ASSIGN_OR_RETURN(uint32_t v, ctx_->MemRead32(addr));
      return BindAndCheck(op, v, report);
    }
    case COp::kDmaAlloc: {
      DLT_ASSIGN_OR_RETURN(uint64_t size, EvalValue(op.value));
      Result<PhysAddr> addr = ctx_->DmaAlloc(size);
      if (!addr.ok()) {
        const SrcEvent& se = prog_->src[op.src_event];
        FillDivergenceReport(ctx_, *prog_->source, *se.ev, se.index, 0, report);
        return Status::kDiverged;  // allocation failure diverges from recording
      }
      allocs_.push_back(Alloc{*addr, size});
      return BindAndCheck(op, *addr, report);
    }
    case COp::kRandom: {
      DLT_ASSIGN_OR_RETURN(uint32_t v, ctx_->RandomU32());
      return BindAndCheck(op, v, report);
    }
    case COp::kTimestamp:
      return BindAndCheck(op, ctx_->TimestampUs(), report);
    case COp::kWaitIrq: {
      Status s = ctx_->WaitForIrq(op.irq_line, op.timeout_us);
      if (!Ok(s)) {
        const SrcEvent& se = prog_->src[op.src_event];
        FillDivergenceReport(ctx_, *prog_->source, *se.ev, se.index, 0, report);
        return Status::kDiverged;
      }
      return Status::kOk;
    }
    case COp::kCopyFromDma: {
      uint8_t* data = nullptr;
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_RETURN_IF_ERROR(ResolveWritableBuf(op, &data, &off, &len));
      DLT_ASSIGN_OR_RETURN(PhysAddr src, EvalAddrChecked(op.addr, len));
      return ctx_->MemCopyOut(data + off, src, len);
    }
    case COp::kPioIn: {
      uint8_t* data = nullptr;
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_RETURN_IF_ERROR(ResolveWritableBuf(op, &data, &off, &len));
      if (len == 0) {
        return Status::kOk;
      }
      size_t words = static_cast<size_t>((len + 3) / 4);
      scratch_.assign(words, 0);
      if (words > 1) {
        ++bulk_ops_;
      }
      DLT_RETURN_IF_ERROR(ctx_->RegReadBlock32(op.device, op.reg_off, scratch_.data(), words));
      std::memcpy(data + off, scratch_.data(), static_cast<size_t>(len));
      return Status::kOk;
    }
    case COp::kRegWrite: {
      DLT_ASSIGN_OR_RETURN(uint64_t v, EvalValue(op.value));
      return ctx_->RegWrite32(op.device, op.reg_off, static_cast<uint32_t>(v));
    }
    case COp::kShmWrite: {
      DLT_ASSIGN_OR_RETURN(PhysAddr addr, EvalAddrChecked(op.addr, 4));
      DLT_ASSIGN_OR_RETURN(uint64_t v, EvalValue(op.value));
      return ctx_->MemWrite32(addr, static_cast<uint32_t>(v));
    }
    case COp::kDelay: {
      DLT_ASSIGN_OR_RETURN(uint64_t us, EvalValue(op.value));
      ctx_->DelayUs(us);
      return Status::kOk;
    }
    case COp::kCopyToDma: {
      const uint8_t* data = nullptr;
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_RETURN_IF_ERROR(ResolveReadableBuf(op, &data, &off, &len));
      DLT_ASSIGN_OR_RETURN(PhysAddr dst, EvalAddrChecked(op.addr, len));
      return ctx_->MemCopyIn(dst, data + off, len);
    }
    case COp::kPioOut: {
      const uint8_t* data = nullptr;
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_RETURN_IF_ERROR(ResolveReadableBuf(op, &data, &off, &len));
      if (len == 0) {
        return Status::kOk;
      }
      size_t words = static_cast<size_t>((len + 3) / 4);
      scratch_.assign(words, 0);  // zero-pads the tail word
      std::memcpy(scratch_.data(), data + off, static_cast<size_t>(len));
      if (words > 1) {
        ++bulk_ops_;
      }
      return ctx_->RegWriteBlock32(op.device, op.reg_off, scratch_.data(), words);
    }
    case COp::kPollReg:
    case COp::kPollShm:
      return ExecPoll(op, report);
    case COp::kShmReadBulk:
    case COp::kShmWriteBulk:
      break;  // handled by ExecBulk, never dispatched here
  }
  return Status::kUnsupported;
}

Status CompiledExecutor::ExecBulkExact(const CompiledOp& op, DivergenceReport* report,
                                       bool telemetry) {
  Telemetry& t = Telemetry::Get();
  const bool is_read = op.code == COp::kShmReadBulk;
  const size_t words = op.word_end - op.word_begin;
  uint64_t base_val = 0;
  bool base_ok = false;
  for (size_t w = 0; w < words; ++w) {
    const CompiledWord& cw = prog_->words[op.word_begin + w];
    const SrcEvent& se = prog_->src[cw.src_event];
    uint64_t t0 = telemetry ? ctx_->TimestampUs() : 0;
    ChargeEvent();
    ++events_executed_;
    Status s = Status::kOk;
    if (!base_ok) {
      // The interpreter re-evaluates the address expression per word; the
      // compiler guarantees no event in the run rebinds a base input, so one
      // evaluation at the first word is exact.
      Result<uint64_t> b = EvalValue(op.addr);
      if (!b.ok()) {
        s = b.status();
      } else {
        base_val = *b;
        base_ok = true;
      }
    }
    PhysAddr addr = 0;
    if (Ok(s)) {
      addr = static_cast<PhysAddr>(base_val + op.base_off + 4 * w);
      s = CheckAddr(addr, 4);
    }
    if (Ok(s)) {
      if (is_read) {
        Result<uint32_t> v = ctx_->MemRead32(addr);
        if (!v.ok()) {
          s = v.status();
        } else {
          if (cw.bind_slot != kNoSlot) {
            slots_[cw.bind_slot] = *v;
            bound_[cw.bind_slot] = 1;
          }
          s = CheckAtoms(cw.atom_begin, cw.atom_end, se, *v, report);
        }
      } else {
        Result<uint64_t> v = EvalValue(cw.value);
        if (!v.ok()) {
          s = v.status();
        } else {
          s = ctx_->MemWrite32(addr, static_cast<uint32_t>(*v));
        }
      }
    }
    if (telemetry) {
      uint64_t dur = ctx_->TimestampUs() - t0;
      ReplayEventsCounter().Inc();
      ReplayKindHistogram(se.ev->kind).Record(dur);
      t.Span(TraceKind::kReplayEvent, t0, dur, EventKindName(se.ev->kind), se.index,
             static_cast<uint64_t>(s), se.ev->device);
    }
    if (!Ok(s)) {
      return s;
    }
    FoldSrc(se);
  }
  return Status::kOk;
}

Status CompiledExecutor::ExecBulk(const CompiledOp& op, DivergenceReport* report,
                                  bool telemetry) {
  const size_t words = op.word_end - op.word_begin;
  AccountOp(words);
  ++bulk_ops_;
  if (telemetry) {
    // Per-word traces and histograms must match the interpreter event for
    // event, so traced runs take the exact path.
    EdgeCoverage::Get().Hit(Edge::kCompiledBulkExact);
    return ExecBulkExact(op, report, true);
  }
  // Side-effect-free pre-pass: the fast path is only safe when the base
  // evaluates and the whole range is inside one allocation and the pool.
  Result<uint64_t> base = EvalValue(op.addr);
  if (!base.ok() || !Ok(CheckAddr(static_cast<PhysAddr>(*base + op.base_off), 4 * words))) {
    EdgeCoverage::Get().Hit(Edge::kCompiledBulkExact);
    return ExecBulkExact(op, report, false);
  }
  EdgeCoverage::Get().Hit(Edge::kCompiledBulkFast);
  PhysAddr a0 = static_cast<PhysAddr>(*base + op.base_off);
  if (op.code == COp::kShmWriteBulk) {
    scratch_.assign(words, 0);
    for (size_t w = 0; w < words; ++w) {
      const CompiledWord& cw = prog_->words[op.word_begin + w];
      ChargeEvent();
      ++events_executed_;
      Result<uint64_t> v = EvalValue(cw.value);
      if (!v.ok()) {
        // The interpreter wrote the preceding words before failing here;
        // flush the staged prefix so device-visible state matches.
        if (w > 0) {
          ctx_->MemCopyIn(a0, reinterpret_cast<const uint8_t*>(scratch_.data()), 4 * w);
        }
        return v.status();
      }
      scratch_[w] = static_cast<uint32_t>(*v);
      // Measurement parity with the interpreter's per-word write: the word is
      // folded once staged — the pre-pass already admitted the whole range, so
      // the deferred block transfer cannot reject it.
      FoldSrc(prog_->src[cw.src_event]);
    }
    Status s =
        ctx_->MemCopyIn(a0, reinterpret_cast<const uint8_t*>(scratch_.data()), 4 * words);
    if (!Ok(s)) {
      // Pre-pass allowed the range but the block transfer refused (e.g. a
      // window seam); replay per word for exact per-access status.
      for (size_t w = 0; w < words; ++w) {
        DLT_RETURN_IF_ERROR(ctx_->MemWrite32(static_cast<PhysAddr>(a0 + 4 * w), scratch_[w]));
      }
    }
    return Status::kOk;
  }
  scratch_.assign(words, 0);
  Status s = ctx_->MemCopyOut(reinterpret_cast<uint8_t*>(scratch_.data()), a0, 4 * words);
  if (!Ok(s)) {
    return ExecBulkExact(op, report, false);  // nothing charged or bound yet
  }
  for (size_t w = 0; w < words; ++w) {
    const CompiledWord& cw = prog_->words[op.word_begin + w];
    ChargeEvent();
    ++events_executed_;
    uint32_t v = scratch_[w];
    if (cw.bind_slot != kNoSlot) {
      slots_[cw.bind_slot] = v;
      bound_[cw.bind_slot] = 1;
    }
    DLT_RETURN_IF_ERROR(
        CheckAtoms(cw.atom_begin, cw.atom_end, prog_->src[cw.src_event], v, report));
    FoldSrc(prog_->src[cw.src_event]);
  }
  return Status::kOk;
}

Status CompiledExecutor::ExecOp(const CompiledOp& op, DivergenceReport* report) {
  Telemetry& t = Telemetry::Get();
  // Fuzzer coverage signal: one map cell per opcode (docs/fuzzing.md).
  EdgeCoverage::Get().HitIndex(kEdgeOpBase + static_cast<size_t>(op.code));
  if (op.code == COp::kShmReadBulk || op.code == COp::kShmWriteBulk) {
    return ExecBulk(op, report, t.enabled());
  }
  if (!t.enabled()) {
    ChargeEvent();
    AccountOp(1);
    ++events_executed_;
    Status s = Dispatch(op, report);
    if (Ok(s)) {
      FoldSrc(prog_->src[op.src_event]);
    }
    return s;
  }
  const SrcEvent& se = prog_->src[op.src_event];
  uint64_t t0 = ctx_->TimestampUs();
  ChargeEvent();
  AccountOp(1);
  ++events_executed_;
  Status s = Dispatch(op, report);
  uint64_t dur = ctx_->TimestampUs() - t0;
  ReplayEventsCounter().Inc();
  ReplayKindHistogram(se.ev->kind).Record(dur);
  t.Span(TraceKind::kReplayEvent, t0, dur, EventKindName(se.ev->kind), se.index,
         static_cast<uint64_t>(s), se.ev->device);
  if (Ok(s)) {
    FoldSrc(se);
  }
  return s;
}

Status CompiledExecutor::ExecRange(uint32_t begin, uint32_t end, DivergenceReport* report) {
  for (uint32_t i = begin; i < end; ++i) {
    DLT_RETURN_IF_ERROR(ExecOp(prog_->ops[i], report));
  }
  return Status::kOk;
}

Status CompiledExecutor::Run(DivergenceReport* report) {
  slots_.assign(prog_->slot_count, 0);
  bound_.assign(prog_->slot_count, 0);
  prog_->LoadScalars(args_->scalars, slots_.data(), bound_.data());
  bufs_.assign(prog_->buffer_names.size(), BufSlot{});
  for (size_t i = 0; i < prog_->buffer_names.size(); ++i) {
    auto it = args_->buffers.find(prog_->buffer_names[i]);
    if (it != args_->buffers.end()) {
      bufs_[i].w = it->second.data;
      bufs_[i].wlen = it->second.len;
      bufs_[i].have_w = true;
    }
    auto ro = args_->ro_buffers.find(prog_->buffer_names[i]);
    if (ro != args_->ro_buffers.end()) {
      bufs_[i].r = ro->second.data;
      bufs_[i].rlen = ro->second.len;
      bufs_[i].have_ro = true;
    }
  }
  allocs_.clear();
  return ExecRange(0, prog_->main_end, report);
}

}  // namespace dlt
