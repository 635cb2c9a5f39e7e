#include "src/core/program_cache.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>

namespace dlt {

namespace {

constexpr uint32_t kMagic = 0x43544c44;  // "DLTC"
// Version 2 dropped the initial-constraint atom range from the header; a
// version-1 file is a miss, never misparsed.
constexpr uint8_t kVersion = 2;

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutVarint(s.size(), out);
  out->insert(out->end(), s.begin(), s.end());
}

void PutOperand(const Operand& o, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(o.kind));
  PutVarint(o.slot, out);
  PutVarint(o.imm, out);
  PutVarint(o.begin, out);
  PutVarint(o.end, out);
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  Result<uint64_t> Varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= len_ || shift > 63) {
        return Status::kCorrupt;
      }
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) {
        return v;
      }
      shift += 7;
    }
  }

  Result<uint8_t> Byte() {
    if (pos_ >= len_) {
      return Status::kCorrupt;
    }
    return data_[pos_++];
  }

  Result<std::string> String() {
    DLT_ASSIGN_OR_RETURN(uint64_t n, Varint());
    if (n > len_ - pos_) {
      return Status::kCorrupt;
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Result<Operand> ReadOperand() {
    Operand o;
    DLT_ASSIGN_OR_RETURN(uint8_t kind, Byte());
    if (kind > static_cast<uint8_t>(Operand::Kind::kSteps)) {
      return Status::kCorrupt;
    }
    o.kind = static_cast<Operand::Kind>(kind);
    DLT_ASSIGN_OR_RETURN(uint64_t slot, Varint());
    o.slot = static_cast<uint16_t>(slot);
    DLT_ASSIGN_OR_RETURN(o.imm, Varint());
    DLT_ASSIGN_OR_RETURN(uint64_t begin, Varint());
    o.begin = static_cast<uint32_t>(begin);
    DLT_ASSIGN_OR_RETURN(uint64_t end, Varint());
    o.end = static_cast<uint32_t>(end);
    return o;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

// Maps each event in the template's tree to its path of body indices.
void MapEventPaths(const std::vector<TemplateEvent>& events, std::vector<uint32_t>* prefix,
                   std::map<const TemplateEvent*, std::vector<uint32_t>>* out) {
  for (size_t i = 0; i < events.size(); ++i) {
    prefix->push_back(static_cast<uint32_t>(i));
    (*out)[&events[i]] = *prefix;
    if (!events[i].body.empty()) {
      MapEventPaths(events[i].body, prefix, out);
    }
    prefix->pop_back();
  }
}

const TemplateEvent* ResolveEventPath(const std::vector<TemplateEvent>& events,
                                      const std::vector<uint32_t>& path) {
  const std::vector<TemplateEvent>* level = &events;
  const TemplateEvent* ev = nullptr;
  for (uint32_t idx : path) {
    if (idx >= level->size()) {
      return nullptr;
    }
    ev = &(*level)[idx];
    level = &ev->body;
  }
  return ev;
}

// Cross-table index validation: a corrupt cache file must become a miss, not
// an out-of-bounds dispatch.
bool OperandValid(const Operand& o, const CompiledProgram& p) {
  switch (o.kind) {
    case Operand::Kind::kSlot:
      return o.slot < p.slot_count;
    case Operand::Kind::kSteps:
      return o.begin <= o.end && o.end <= p.steps.size();
    default:
      return true;
  }
}

bool ProgramValid(const CompiledProgram& p) {
  for (const ExprStep& s : p.steps) {
    if (s.op == ExprOp::kInput && s.slot >= p.slot_count) {
      return false;
    }
  }
  for (const CompiledAtom& a : p.atoms) {
    if (!OperandValid(a.lhs, p) || !OperandValid(a.rhs, p)) {
      return false;
    }
  }
  for (const CompiledWord& w : p.words) {
    if (w.bind_slot != kNoSlot && w.bind_slot >= p.slot_count) {
      return false;
    }
    if (w.atom_begin > w.atom_end || w.atom_end > p.atoms.size()) {
      return false;
    }
    if (!OperandValid(w.value, p) || w.src_event >= p.src.size()) {
      return false;
    }
  }
  for (const CompiledOp& op : p.ops) {
    if (op.bind_slot != kNoSlot && op.bind_slot >= p.slot_count) {
      return false;
    }
    if (op.buffer != kNoBuffer && op.buffer >= p.buffer_names.size()) {
      return false;
    }
    if (!OperandValid(op.addr, p) || !OperandValid(op.value, p) || !OperandValid(op.buf_off, p)) {
      return false;
    }
    if (op.atom_begin > op.atom_end || op.atom_end > p.atoms.size()) {
      return false;
    }
    if (op.body_begin > op.body_end || op.body_end > p.ops.size()) {
      return false;
    }
    if (op.word_begin > op.word_end || op.word_end > p.words.size()) {
      return false;
    }
    bool bulk = op.code == COp::kShmReadBulk || op.code == COp::kShmWriteBulk;
    if (!bulk && op.src_event >= p.src.size()) {
      return false;
    }
  }
  for (const auto& [name, slot] : p.scalar_loads) {
    if (slot >= p.slot_count) {
      return false;
    }
  }
  if (p.main_end > p.ops.size()) {
    return false;
  }
  return true;
}

}  // namespace

Result<std::vector<uint8_t>> SerializeProgram(const CompiledProgram& p) {
  if (p.source == nullptr) {
    return Status::kInvalidArg;
  }
  std::map<const TemplateEvent*, std::vector<uint32_t>> paths;
  std::vector<uint32_t> prefix;
  MapEventPaths(p.source->events, &prefix, &paths);

  std::vector<uint8_t> out;
  PutVarint(p.ops.size(), &out);
  PutVarint(p.words.size(), &out);
  PutVarint(p.atoms.size(), &out);
  PutVarint(p.steps.size(), &out);
  PutVarint(p.src.size(), &out);
  PutVarint(p.scalar_loads.size(), &out);
  PutVarint(p.buffer_names.size(), &out);
  PutVarint(p.main_end, &out);
  PutVarint(p.slot_count, &out);
  PutVarint(p.source_events, &out);

  for (const ExprStep& s : p.steps) {
    out.push_back(static_cast<uint8_t>(s.op));
    PutVarint(s.slot, &out);
    PutVarint(s.imm, &out);
  }
  for (const CompiledAtom& a : p.atoms) {
    PutOperand(a.lhs, &out);
    PutOperand(a.rhs, &out);
    out.push_back(static_cast<uint8_t>(a.cmp));
  }
  for (const SrcEvent& se : p.src) {
    auto it = paths.find(se.ev);
    if (it == paths.end()) {
      return Status::kInvalidArg;
    }
    PutVarint(it->second.size(), &out);
    for (uint32_t idx : it->second) {
      PutVarint(idx, &out);
    }
    PutVarint(se.index, &out);
  }
  for (const CompiledWord& w : p.words) {
    PutVarint(w.bind_slot, &out);
    PutVarint(w.atom_begin, &out);
    PutVarint(w.atom_end, &out);
    PutOperand(w.value, &out);
    PutVarint(w.src_event, &out);
  }
  for (const CompiledOp& op : p.ops) {
    out.push_back(static_cast<uint8_t>(op.code));
    PutVarint(op.device, &out);
    PutVarint(op.bind_slot, &out);
    PutVarint(op.buffer, &out);
    PutVarint(op.reg_off, &out);
    PutOperand(op.addr, &out);
    PutOperand(op.value, &out);
    PutOperand(op.buf_off, &out);
    PutVarint(op.atom_begin, &out);
    PutVarint(op.atom_end, &out);
    PutVarint(static_cast<uint64_t>(op.irq_line + 1), &out);
    PutVarint(op.mask, &out);
    PutVarint(op.want, &out);
    out.push_back(static_cast<uint8_t>(op.poll_cmp));
    PutVarint(op.timeout_us, &out);
    PutVarint(op.interval_us, &out);
    PutVarint(op.body_begin, &out);
    PutVarint(op.body_end, &out);
    PutVarint(op.word_begin, &out);
    PutVarint(op.word_end, &out);
    PutVarint(op.base_off, &out);
    PutVarint(op.src_event, &out);
  }
  for (const auto& [name, slot] : p.scalar_loads) {
    PutString(name, &out);
    PutVarint(slot, &out);
  }
  for (const std::string& name : p.buffer_names) {
    PutString(name, &out);
  }
  return out;
}

Result<std::shared_ptr<const CompiledProgram>> DeserializeProgram(const uint8_t* data, size_t len,
                                                                  const InteractionTemplate* tpl) {
  if (tpl == nullptr) {
    return Status::kInvalidArg;
  }
  Reader r(data, len);
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram& p = *prog;
  p.source = tpl;

  DLT_ASSIGN_OR_RETURN(uint64_t nops, r.Varint());
  DLT_ASSIGN_OR_RETURN(uint64_t nwords, r.Varint());
  DLT_ASSIGN_OR_RETURN(uint64_t natoms, r.Varint());
  DLT_ASSIGN_OR_RETURN(uint64_t nsteps, r.Varint());
  DLT_ASSIGN_OR_RETURN(uint64_t nsrc, r.Varint());
  DLT_ASSIGN_OR_RETURN(uint64_t nloads, r.Varint());
  DLT_ASSIGN_OR_RETURN(uint64_t nbuffers, r.Varint());
  // A varint decodes in at least one byte, so table sizes beyond the input
  // length are corrupt by construction — reject before reserving.
  if (nops > len || nwords > len || natoms > len || nsteps > len || nsrc > len || nloads > len ||
      nbuffers > len) {
    return Status::kCorrupt;
  }
  DLT_ASSIGN_OR_RETURN(uint64_t main_end, r.Varint());
  p.main_end = static_cast<uint32_t>(main_end);
  DLT_ASSIGN_OR_RETURN(uint64_t slot_count, r.Varint());
  p.slot_count = static_cast<uint16_t>(slot_count);
  DLT_ASSIGN_OR_RETURN(uint64_t sev, r.Varint());
  p.source_events = static_cast<uint32_t>(sev);

  p.steps.reserve(nsteps);
  for (uint64_t i = 0; i < nsteps; ++i) {
    ExprStep s;
    DLT_ASSIGN_OR_RETURN(uint8_t op, r.Byte());
    if (op > static_cast<uint8_t>(ExprOp::kNot)) {
      return Status::kCorrupt;
    }
    s.op = static_cast<ExprOp>(op);
    DLT_ASSIGN_OR_RETURN(uint64_t slot, r.Varint());
    s.slot = static_cast<uint16_t>(slot);
    DLT_ASSIGN_OR_RETURN(s.imm, r.Varint());
    p.steps.push_back(s);
  }
  p.atoms.reserve(natoms);
  for (uint64_t i = 0; i < natoms; ++i) {
    CompiledAtom a;
    DLT_ASSIGN_OR_RETURN(a.lhs, r.ReadOperand());
    DLT_ASSIGN_OR_RETURN(a.rhs, r.ReadOperand());
    DLT_ASSIGN_OR_RETURN(uint8_t cmp, r.Byte());
    if (cmp > static_cast<uint8_t>(Cmp::kGe)) {
      return Status::kCorrupt;
    }
    a.cmp = static_cast<Cmp>(cmp);
    p.atoms.push_back(a);
  }
  p.src.reserve(nsrc);
  for (uint64_t i = 0; i < nsrc; ++i) {
    DLT_ASSIGN_OR_RETURN(uint64_t plen, r.Varint());
    if (plen > 16) {  // event nesting is depth-limited at 8; be generous
      return Status::kCorrupt;
    }
    std::vector<uint32_t> path;
    for (uint64_t k = 0; k < plen; ++k) {
      DLT_ASSIGN_OR_RETURN(uint64_t idx, r.Varint());
      path.push_back(static_cast<uint32_t>(idx));
    }
    SrcEvent se;
    se.ev = ResolveEventPath(tpl->events, path);
    if (se.ev == nullptr) {
      return Status::kCorrupt;
    }
    DLT_ASSIGN_OR_RETURN(uint64_t index, r.Varint());
    se.index = static_cast<uint32_t>(index);
    p.src.push_back(se);
  }
  p.words.reserve(nwords);
  for (uint64_t i = 0; i < nwords; ++i) {
    CompiledWord w;
    DLT_ASSIGN_OR_RETURN(uint64_t bind, r.Varint());
    w.bind_slot = static_cast<uint16_t>(bind);
    DLT_ASSIGN_OR_RETURN(uint64_t ab, r.Varint());
    w.atom_begin = static_cast<uint32_t>(ab);
    DLT_ASSIGN_OR_RETURN(uint64_t ae, r.Varint());
    w.atom_end = static_cast<uint32_t>(ae);
    DLT_ASSIGN_OR_RETURN(w.value, r.ReadOperand());
    DLT_ASSIGN_OR_RETURN(uint64_t se, r.Varint());
    w.src_event = static_cast<uint32_t>(se);
    p.words.push_back(w);
  }
  p.ops.reserve(nops);
  for (uint64_t i = 0; i < nops; ++i) {
    CompiledOp op;
    DLT_ASSIGN_OR_RETURN(uint8_t code, r.Byte());
    if (code > static_cast<uint8_t>(COp::kPollShm)) {
      return Status::kCorrupt;
    }
    op.code = static_cast<COp>(code);
    DLT_ASSIGN_OR_RETURN(uint64_t device, r.Varint());
    op.device = static_cast<uint16_t>(device);
    DLT_ASSIGN_OR_RETURN(uint64_t bind, r.Varint());
    op.bind_slot = static_cast<uint16_t>(bind);
    DLT_ASSIGN_OR_RETURN(uint64_t buffer, r.Varint());
    op.buffer = static_cast<uint16_t>(buffer);
    DLT_ASSIGN_OR_RETURN(op.reg_off, r.Varint());
    DLT_ASSIGN_OR_RETURN(op.addr, r.ReadOperand());
    DLT_ASSIGN_OR_RETURN(op.value, r.ReadOperand());
    DLT_ASSIGN_OR_RETURN(op.buf_off, r.ReadOperand());
    DLT_ASSIGN_OR_RETURN(uint64_t ab, r.Varint());
    op.atom_begin = static_cast<uint32_t>(ab);
    DLT_ASSIGN_OR_RETURN(uint64_t ae, r.Varint());
    op.atom_end = static_cast<uint32_t>(ae);
    DLT_ASSIGN_OR_RETURN(uint64_t irq, r.Varint());
    op.irq_line = static_cast<int>(irq) - 1;
    DLT_ASSIGN_OR_RETURN(uint64_t mask, r.Varint());
    op.mask = static_cast<uint32_t>(mask);
    DLT_ASSIGN_OR_RETURN(uint64_t want, r.Varint());
    op.want = static_cast<uint32_t>(want);
    DLT_ASSIGN_OR_RETURN(uint8_t pcmp, r.Byte());
    if (pcmp > static_cast<uint8_t>(Cmp::kGe)) {
      return Status::kCorrupt;
    }
    op.poll_cmp = static_cast<Cmp>(pcmp);
    DLT_ASSIGN_OR_RETURN(op.timeout_us, r.Varint());
    DLT_ASSIGN_OR_RETURN(op.interval_us, r.Varint());
    DLT_ASSIGN_OR_RETURN(uint64_t bb, r.Varint());
    op.body_begin = static_cast<uint32_t>(bb);
    DLT_ASSIGN_OR_RETURN(uint64_t be, r.Varint());
    op.body_end = static_cast<uint32_t>(be);
    DLT_ASSIGN_OR_RETURN(uint64_t wb, r.Varint());
    op.word_begin = static_cast<uint32_t>(wb);
    DLT_ASSIGN_OR_RETURN(uint64_t we, r.Varint());
    op.word_end = static_cast<uint32_t>(we);
    DLT_ASSIGN_OR_RETURN(op.base_off, r.Varint());
    DLT_ASSIGN_OR_RETURN(uint64_t se, r.Varint());
    op.src_event = static_cast<uint32_t>(se);
    p.ops.push_back(op);
  }
  p.scalar_loads.reserve(nloads);
  for (uint64_t i = 0; i < nloads; ++i) {
    DLT_ASSIGN_OR_RETURN(std::string name, r.String());
    DLT_ASSIGN_OR_RETURN(uint64_t slot, r.Varint());
    p.scalar_loads.emplace_back(std::move(name), static_cast<uint16_t>(slot));
  }
  p.buffer_names.reserve(nbuffers);
  for (uint64_t i = 0; i < nbuffers; ++i) {
    DLT_ASSIGN_OR_RETURN(std::string name, r.String());
    p.buffer_names.push_back(std::move(name));
  }
  if (!r.AtEnd() || !ProgramValid(p)) {
    return Status::kCorrupt;
  }
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

std::string DiskProgramCache::path_for(const Sha256::Digest& h) const {
  return dir_ + "/" + Sha256::HexDigest(h) + ".dcp";
}

std::shared_ptr<const CompiledProgram> DiskProgramCache::Load(
    const Sha256::Digest& content_hash, const InteractionTemplate* tpl) const {
  FILE* f = std::fopen(path_for(content_hash).c_str(), "rb");
  if (f == nullptr) {
    return nullptr;
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  constexpr size_t kHeader = 4 + 1 + Sha256::kDigestSize;
  if (bytes.size() < kHeader) {
    return nullptr;
  }
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kMagic || bytes[4] != kVersion) {
    return nullptr;
  }
  if (std::memcmp(bytes.data() + 5, content_hash.data(), Sha256::kDigestSize) != 0) {
    return nullptr;
  }
  Result<std::shared_ptr<const CompiledProgram>> prog =
      DeserializeProgram(bytes.data() + kHeader, bytes.size() - kHeader, tpl);
  if (!prog.ok()) {
    return nullptr;
  }
  return *prog;
}

bool DiskProgramCache::Store(const Sha256::Digest& content_hash, const CompiledProgram& p) const {
  Result<std::vector<uint8_t>> body = SerializeProgram(p);
  if (!body.ok()) {
    return false;
  }
  std::vector<uint8_t> bytes;
  uint32_t magic = kMagic;
  bytes.resize(4);
  std::memcpy(bytes.data(), &magic, 4);
  bytes.push_back(kVersion);
  bytes.insert(bytes.end(), content_hash.begin(), content_hash.end());
  bytes.insert(bytes.end(), body->begin(), body->end());

  std::string final_path = path_for(content_hash);
  // Per-process temp name: concurrent processes warming the same cache each
  // write their own file and the rename is atomic either way.
  std::string tmp_path = final_path + ".tmp" + std::to_string(::getpid());
  FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (wrote != bytes.size()) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace dlt
