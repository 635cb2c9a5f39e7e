#include "src/core/template_store.h"

#include <algorithm>
#include <utility>

#include "src/core/program_cache.h"
#include "src/core/serialize_binary.h"
#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

namespace {

// Register-interface events are the ones that name a device; walk poll bodies
// too so nested PIO drains are accounted for.
void CollectDevices(const std::vector<TemplateEvent>& events, std::set<uint16_t>* out) {
  for (const TemplateEvent& e : events) {
    switch (e.kind) {
      case EventKind::kRegRead:
      case EventKind::kRegWrite:
      case EventKind::kPollReg:
      case EventKind::kPioIn:
      case EventKind::kPioOut:
        out->insert(e.device);
        break;
      default:
        break;
    }
    if (!e.body.empty()) {
      CollectDevices(e.body, out);
    }
  }
}

// Bumps a cache counter and mirrors it into telemetry when tracing is armed.
void CountCache(std::atomic<uint64_t>* plain, const char* metric) {
  plain->fetch_add(1, std::memory_order_relaxed);
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    t.metrics().counter(metric).Inc();
  }
}

}  // namespace

TemplateStore::TemplateStore() : shared_(std::make_shared<Shared>()) {}

TemplateStore::TemplateStore(std::shared_ptr<Shared> shared) : shared_(std::move(shared)) {}

std::unique_ptr<TemplateStore> TemplateStore::NewShardView() const {
  return std::unique_ptr<TemplateStore>(new TemplateStore(shared_));
}

Status TemplateStore::AddPackage(const uint8_t* data, size_t len,
                                 std::string_view signing_key) {
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key));
  return AddPackage(pkg);
}

Status TemplateStore::AddPackage(const DriverletPackage& pkg) {
  return AddPackageInternal(&pkg, nullptr);
}

Status TemplateStore::AddPackageFile(const std::string& path, std::string_view signing_key) {
  DLT_ASSIGN_OR_RETURN(std::shared_ptr<const MappedPackage> pkg,
                       MappedPackage::Map(path, signing_key));
  return AddMappedPackage(std::move(pkg));
}

Status TemplateStore::AddMappedPackage(std::shared_ptr<const MappedPackage> pkg) {
  if (pkg == nullptr) {
    return Status::kInvalidArg;
  }
  return AddPackageInternal(nullptr, std::move(pkg));
}

Status TemplateStore::AddPackageInternal(const DriverletPackage* eager,
                                         std::shared_ptr<const MappedPackage> mapped) {
  const std::string& name = eager != nullptr ? eager->driverlet : mapped->driverlet();
  if (name.empty()) {
    return Status::kInvalidArg;
  }
  std::lock_guard<std::mutex> swap(shared_->swap_mu);
  const Population* cur = population();

  // Copy-on-write: clone the owning storage, splice the new driverlet in, then
  // rebuild the derived indexes against the clone's stable addresses. Eagerly
  // loaded driverlets are copied template-by-template (immutable since load);
  // lazy driverlets are re-parsed from their mapped directories into *fresh
  // unhydrated* states — copying a template whose body a concurrent reader is
  // hydrating right now would race, and the directory parse is cheap.
  auto next = std::make_unique<Population>();
  if (cur != nullptr) {
    next->load_order = cur->load_order;
    next->mapped = cur->mapped;
    for (const auto& [dname, owned] : cur->by_driverlet) {
      if (dname == name || cur->mapped.find(dname) != cur->mapped.end()) {
        continue;
      }
      next->by_driverlet[dname] = owned;
    }
  }
  if (std::find(next->load_order.begin(), next->load_order.end(), name) ==
      next->load_order.end()) {
    next->load_order.push_back(name);
  }
  if (eager != nullptr) {
    next->mapped.erase(name);  // an eager re-registration drops the mapping
    next->by_driverlet[name].assign(eager->templates.begin(), eager->templates.end());
  } else {
    next->mapped[name] = std::move(mapped);
  }

  // Materialize lazy driverlets: directory headers + fresh hydration latches.
  std::map<std::string, std::vector<LazyState*>, std::less<>> lazy_of;
  for (const auto& [dname, mp] : next->mapped) {
    std::deque<InteractionTemplate>& owned = next->by_driverlet[dname];
    owned.clear();
    const PackageView& view = mp->view();
    std::vector<LazyState*>& states = lazy_of[dname];
    states.reserve(view.size());
    for (size_t i = 0; i < view.size(); ++i) {
      owned.push_back(view.header(i));
      next->lazy_states.emplace_back();
      LazyState& ls = next->lazy_states.back();
      ls.pkg = mp;
      ls.tpl_index = static_cast<uint32_t>(i);
      ls.tpl = &owned.back();
      states.push_back(&ls);
    }
  }

  for (const std::string& dname : next->load_order) {
    std::deque<InteractionTemplate>& owned = next->by_driverlet.find(dname)->second;
    std::set<uint16_t>& devs = next->devices[dname];
    auto mapped_it = next->mapped.find(dname);
    const PackageView* view =
        mapped_it != next->mapped.end() ? &mapped_it->second->view() : nullptr;
    std::vector<LazyState*>* states = view != nullptr ? &lazy_of[dname] : nullptr;
    size_t ti = 0;
    for (const InteractionTemplate& t : owned) {
      if (view != nullptr) {
        // Seal-time directory devices: admission without hydrating any body.
        const std::vector<uint16_t>& tdevs = view->devices(ti);
        devs.insert(tdevs.begin(), tdevs.end());
      } else {
        devs.insert(t.primary_device);
        CollectDevices(t.events, &devs);
      }

      auto [it, inserted] = next->index.try_emplace(std::make_pair(dname, t.entry));
      EntrySlot& slot = it->second;
      if (inserted) {
        slot.driverlet = dname;
        slot.entry = t.entry;
        next->by_entry[t.entry].push_back(&slot);
      }
      Candidate c;
      c.tpl = &t;
      c.scalar_params = t.ScalarParams();  // precompiled: never rebuilt per invoke
      if (states != nullptr) {
        c.lazy = (*states)[ti];
      }
      c.golden = &next->goldens.emplace_back();
      slot.candidates.push_back(std::move(c));
      ++ti;
    }
  }

  // Constraint indexes: built per slot once the candidate set is final, for
  // slots large enough that probing beats scanning.
  for (auto& [key, slot] : next->index) {
    if (slot.candidates.size() < EntryConstraintIndex::kMinIndexedCandidates) {
      continue;
    }
    std::vector<const Constraint*> initials;
    initials.reserve(slot.candidates.size());
    for (const Candidate& c : slot.candidates) {
      initials.push_back(&c.tpl->initial);
    }
    slot.index.Build(initials);
    slot.indexed = slot.index.discriminating();
  }

  // Publish. Readers that pinned the old population keep using it; it stays
  // alive in |epochs|. This view's compile cache flushes eagerly, other views
  // notice the generation change on their next SelectCompiled.
  shared_->pop.store(next.get(), std::memory_order_release);
  shared_->epochs.push_back(std::move(next));
  {
    std::lock_guard<std::mutex> cache(cache_mu_);
    FlushCacheLocked();
    cache_pop_ = population();
  }
  return Status::kOk;
}

void TemplateStore::set_compile_cache_dir(std::string dir) {
  std::lock_guard<std::mutex> cfg(shared_->cfg_mu);
  shared_->compile_cache_dir = std::move(dir);
}

bool TemplateStore::HasDriverlet(std::string_view driverlet) const {
  const Population* pop = population();
  return pop != nullptr && pop->by_driverlet.find(driverlet) != pop->by_driverlet.end();
}

size_t TemplateStore::package_count() const {
  const Population* pop = population();
  return pop == nullptr ? 0 : pop->by_driverlet.size();
}

size_t TemplateStore::template_count() const {
  const Population* pop = population();
  if (pop == nullptr) {
    return 0;
  }
  size_t n = 0;
  for (const auto& [name, templates] : pop->by_driverlet) {
    n += templates.size();
  }
  return n;
}

size_t TemplateStore::lazy_template_count() const {
  const Population* pop = population();
  if (pop == nullptr) {
    return 0;
  }
  size_t n = 0;
  for (const LazyState& ls : pop->lazy_states) {
    if (!ls.hydrated.load(std::memory_order_acquire)) {
      ++n;
    }
  }
  return n;
}

size_t TemplateStore::indexed_slot_count() const {
  const Population* pop = population();
  if (pop == nullptr) {
    return 0;
  }
  size_t n = 0;
  for (const auto& [key, slot] : pop->index) {
    if (slot.indexed) {
      ++n;
    }
  }
  return n;
}

std::vector<std::string> TemplateStore::driverlets() const {
  const Population* pop = population();
  return pop == nullptr ? std::vector<std::string>{} : pop->load_order;
}

std::vector<const InteractionTemplate*> TemplateStore::templates() const {
  std::vector<const InteractionTemplate*> out;
  const Population* pop = population();
  if (pop == nullptr) {
    return out;
  }
  for (const std::string& name : pop->load_order) {
    auto it = pop->by_driverlet.find(name);
    for (const InteractionTemplate& t : it->second) {
      out.push_back(&t);
    }
  }
  return out;
}

std::vector<const InteractionTemplate*> TemplateStore::templates(
    std::string_view driverlet) const {
  std::vector<const InteractionTemplate*> out;
  const Population* pop = population();
  if (pop == nullptr) {
    return out;
  }
  auto it = pop->by_driverlet.find(driverlet);
  if (it == pop->by_driverlet.end()) {
    return out;
  }
  for (const InteractionTemplate& t : it->second) {
    out.push_back(&t);
  }
  return out;
}

std::vector<uint16_t> TemplateStore::PackageDevices(const DriverletPackage& pkg) {
  std::set<uint16_t> devs;
  for (const InteractionTemplate& t : pkg.templates) {
    devs.insert(t.primary_device);
    CollectDevices(t.events, &devs);
  }
  return std::vector<uint16_t>(devs.begin(), devs.end());
}

std::vector<uint16_t> TemplateStore::DevicesOf(std::string_view driverlet) const {
  const Population* pop = population();
  if (pop == nullptr) {
    return {};
  }
  auto it = pop->devices.find(driverlet);
  if (it == pop->devices.end()) {
    return {};
  }
  return std::vector<uint16_t>(it->second.begin(), it->second.end());
}

const TemplateStore::EntrySlot* TemplateStore::FindSlot(const Population& pop,
                                                        std::string_view driverlet,
                                                        std::string_view entry) {
  // index is keyed by std::pair<std::string, std::string>; avoid constructing
  // the pair key for the common scoped lookup via the secondary index.
  auto it = pop.by_entry.find(entry);
  if (it == pop.by_entry.end()) {
    return nullptr;
  }
  for (const EntrySlot* slot : it->second) {
    if (slot->driverlet == driverlet) {
      return slot;
    }
  }
  return nullptr;
}

Status TemplateStore::EnsureHydrated(const Candidate& c) const {
  LazyState* ls = c.lazy;
  if (ls == nullptr || ls->hydrated.load(std::memory_order_acquire)) {
    return Status::kOk;
  }
  std::lock_guard<std::mutex> lk(ls->mu);
  if (ls->hydrated.load(std::memory_order_relaxed)) {
    return Status::kOk;
  }
  // Parse the event body out of the mapped bytes. The release store pairs
  // with the acquire load above: a reader that sees hydrated==true also sees
  // the fully written events vector.
  DLT_RETURN_IF_ERROR(ls->pkg->view().HydrateEvents(ls->tpl_index, ls->tpl));
  shared_->hydrated_templates.fetch_add(1, std::memory_order_relaxed);
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    t.metrics().counter("replay.store.hydrate").Inc();
  }
  ls->hydrated.store(true, std::memory_order_release);
  return Status::kOk;
}

Result<const TemplateStore::Candidate*> TemplateStore::SelectCandidate(
    const Population& pop, std::string_view driverlet, std::string_view entry,
    const Bindings& scalars, std::vector<const InteractionTemplate*>* rejected,
    bool use_index) const {
  const EntrySlot* single = nullptr;
  const std::vector<const EntrySlot*>* many = nullptr;
  if (!driverlet.empty()) {
    single = FindSlot(pop, driverlet, entry);
    if (single == nullptr) {
      return Status::kNoTemplate;
    }
  } else {
    auto it = pop.by_entry.find(entry);
    if (it == pop.by_entry.end() || it->second.empty()) {
      return Status::kNoTemplate;
    }
    many = &it->second;
  }

  const Candidate* selected = nullptr;
  uint64_t scanned = 0;
  // The reference per-candidate protocol, shared verbatim between the linear
  // walk and the index probe subset so the two paths cannot drift.
  auto consider = [&](const Candidate& c) {
    ++scanned;
    // A template whose param set this invoke does not provide cannot match;
    // skip it and keep considering the rest (same-entry templates may bind
    // different param sets).
    bool have_all = true;
    for (const std::string& p : c.scalar_params) {
      if (scalars.find(p) == scalars.end()) {
        have_all = false;
        break;
      }
    }
    if (!have_all) {
      return;
    }
    Result<bool> ok = c.tpl->initial.Eval(scalars);
    if (!ok.ok()) {
      return;  // constraint over non-initial symbols cannot gate selection
    }
    if (!*ok) {
      if (rejected != nullptr) {
        rejected->push_back(c.tpl);
      }
      return;
    }
    if (selected != nullptr) {
      // By construction no two templates cover the same inputs (the recorder
      // merges same-path templates, §4.3); tolerate but warn.
      DLT_LOG(kWarn) << "template selection ambiguous: " << selected->tpl->name << " vs "
                     << c.tpl->name;
      return;
    }
    selected = &c;
  };

  std::vector<uint32_t> probe;
  size_t slot_count = single != nullptr ? 1 : many->size();
  for (size_t si = 0; si < slot_count; ++si) {
    const EntrySlot* slot = single != nullptr ? single : (*many)[si];
    if (use_index && slot->indexed) {
      slot->index.Probe(scalars, &probe);
      shared_->index_probes.fetch_add(1, std::memory_order_relaxed);
      Telemetry& t = Telemetry::Get();
      if (t.enabled()) {
        t.metrics().counter("replay.select_index.probe").Inc();
      }
      for (uint32_t idx : probe) {
        consider(slot->candidates[idx]);
      }
    } else {
      for (const Candidate& c : slot->candidates) {
        consider(c);
      }
    }
  }
  shared_->candidates_scanned.fetch_add(scanned, std::memory_order_relaxed);
  if (selected == nullptr) {
    return Status::kNoTemplate;
  }
  return selected;
}

Result<const InteractionTemplate*> TemplateStore::Select(
    std::string_view driverlet, std::string_view entry, const Bindings& scalars,
    std::vector<const InteractionTemplate*>* rejected) const {
  DLT_ASSIGN_OR_RETURN(CompiledSelection sel,
                       SelectInterpreted(driverlet, entry, scalars, rejected));
  return sel.tpl;
}

Result<TemplateStore::CompiledSelection> TemplateStore::SelectHydrated(
    const Population* pop, std::string_view driverlet, std::string_view entry,
    const Bindings& scalars, std::vector<const InteractionTemplate*>* rejected,
    bool use_index) const {
  if (pop == nullptr) {
    return Status::kNoTemplate;
  }
  DLT_ASSIGN_OR_RETURN(const Candidate* c,
                       SelectCandidate(*pop, driverlet, entry, scalars, rejected, use_index));
  DLT_RETURN_IF_ERROR(EnsureHydrated(*c));
  CompiledSelection out;
  out.tpl = c->tpl;
  out.golden = c->golden;
  return out;
}

Result<TemplateStore::CompiledSelection> TemplateStore::SelectInterpreted(
    std::string_view driverlet, std::string_view entry, const Bindings& scalars,
    std::vector<const InteractionTemplate*>* rejected) const {
  // Rejected-candidate reporting needs the full scan: index-pruned candidates
  // never evaluate, so the subset cannot reproduce the report.
  return SelectHydrated(population(), driverlet, entry, scalars, rejected,
                        /*use_index=*/rejected == nullptr);
}

Result<const InteractionTemplate*> TemplateStore::SelectLinear(
    std::string_view driverlet, std::string_view entry, const Bindings& scalars,
    std::vector<const InteractionTemplate*>* rejected) const {
  DLT_ASSIGN_OR_RETURN(CompiledSelection sel,
                       SelectHydrated(population(), driverlet, entry, scalars, rejected,
                                      /*use_index=*/false));
  return sel.tpl;
}

void TemplateStore::FlushCacheLocked() const {
  // A population swap retires every cached template pointer at once: the
  // copy-on-write rebuild gives all templates fresh addresses, so the cache
  // drops whole.
  for (size_t i = 0; i < compile_cache_.size(); ++i) {
    CountCache(&compile_cache_evictions_, "replay.compile_cache.evict");
  }
  compile_cache_.clear();
}

std::shared_ptr<const CompiledProgram> TemplateStore::ProgramFor(
    const InteractionTemplate* tpl) const {
  auto it = compile_cache_.find(tpl);
  if (it != compile_cache_.end()) {
    CountCache(&compile_cache_hits_, "replay.compile_cache.hit");
    return it->second;
  }
  CountCache(&compile_cache_misses_, "replay.compile_cache.miss");
  std::string dir;
  {
    std::lock_guard<std::mutex> cfg(shared_->cfg_mu);
    dir = shared_->compile_cache_dir;
  }
  Sha256::Digest hash{};
  if (!dir.empty()) {
    hash = TemplateContentHash(*tpl);
    DiskProgramCache disk(dir);
    if (std::shared_ptr<const CompiledProgram> p = disk.Load(hash, tpl)) {
      CountCache(&disk_compile_hits_, "replay.compile_cache.disk_hit");
      compile_cache_.emplace(tpl, p);
      return p;
    }
  }
  Result<std::shared_ptr<const CompiledProgram>> prog = CompileTemplate(tpl);
  // Failed compiles are cached as null: a permanent interpreter-fallback
  // marker, re-probing would fail identically every invoke.
  std::shared_ptr<const CompiledProgram> p = prog.ok() ? *prog : nullptr;
  if (p != nullptr && !dir.empty() && DiskProgramCache(dir).Store(hash, *p)) {
    CountCache(&disk_compile_stores_, "replay.compile_cache.disk_store");
  }
  compile_cache_.emplace(tpl, p);
  return p;
}

Result<TemplateStore::CompiledSelection> TemplateStore::SelectCompiled(
    std::string_view driverlet, std::string_view entry, const Bindings& scalars,
    std::vector<const InteractionTemplate*>* rejected) const {
  // One pinned snapshot for the whole call: the winner, its golden cache and
  // the compile-cache generation all come from |pop|.
  const Population* pop = population();
  DLT_ASSIGN_OR_RETURN(CompiledSelection out,
                       SelectHydrated(pop, driverlet, entry, scalars, rejected,
                                      /*use_index=*/rejected == nullptr));
  std::lock_guard<std::mutex> cache(cache_mu_);
  // RCU reader resync: the population was republished since this view's
  // compile cache was built — every cached key is a retired template, so start
  // over against the snapshot this call pinned.
  if (cache_pop_ != pop) {
    FlushCacheLocked();
    cache_pop_ = pop;
  }
  out.program = ProgramFor(out.tpl);
  return out;
}

}  // namespace dlt
