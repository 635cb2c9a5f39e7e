// TemplateStore: the indexed template population behind the replay pipeline.
// Holds interaction templates from *multiple* loaded driverlet packages keyed
// by (driverlet, entry); loading a second package never evicts the first (the
// old Replayer::LoadPackage overwrite semantics are gone). Selection resolves
// an entry through the index and probes only that entry's candidates — cost is
// independent of how many other packages/entries are loaded — and, at scale,
// only the *constraint-indexed subset* of the entry's own candidates: each
// slot with enough candidates carries an EntryConstraintIndex (eq buckets /
// interval list / mask buckets / residual, constraint_index.h) built at
// registration, so per-invoke work stays O(log n) in the slot size with
// selection semantics identical to the linear scan. SelectLinear keeps the
// full scan as the differential oracle, and it also serves every call that
// asks for rejected-candidate telemetry (pruned candidates never evaluate, so
// the subset cannot reproduce that report).
//
// Packages load two ways (docs/template_store.md):
//  - AddPackage: eager — templates deep-copied into the population.
//  - AddPackageFile / AddMappedPackage: zero-copy — a sealed v2 package is
//    mmap'ed, signature-verified, and only its *directory* is parsed; the
//    population holds header-only templates whose event bodies hydrate on
//    first selection (EnsureHydrated, double-checked per-template latch).
//    Registration cost is O(directory), not O(corpus).
//
// Concurrency model (the multi-shard replay fleet, docs/replay_fleet.md):
// the post-registration state — packages, the (driverlet, entry) index, the
// precompiled candidate param lists, the constraint indexes — is an immutable
// Population published RCU-style: AddPackage builds a fresh Population and
// swaps one atomic pointer; readers load the pointer once per call and never
// take a lock. Retired populations are kept alive for the store's lifetime
// (registration is rare), so template pointers handed out by Select never
// dangle even across a concurrent package reload. Lazy event bodies and
// golden-measurement caches are the only mutations after publish; each is
// guarded by a per-template mutex + acquire/release latch, and a rebuild
// re-parses lazy directories into fresh unhydrated states (and starts fresh,
// empty golden caches) instead of copying possibly-mid-fill state.
//
// A store created with the default constructor owns its population. Shards of
// a replay fleet call NewShardView() instead: every view shares the same
// population (and candidates_scanned aggregate) but keeps its *own* compile
// cache — the mutable hot-path state — so concurrent shards never contend on a
// cache lock. A view that observes a population swap lazily flushes its cache
// on the next SelectCompiled.
#ifndef SRC_CORE_TEMPLATE_STORE_H_
#define SRC_CORE_TEMPLATE_STORE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/compiled_program.h"
#include "src/core/constraint_index.h"
#include "src/core/integrity.h"
#include "src/core/interaction_template.h"
#include "src/core/package.h"

namespace dlt {

class TemplateStore {
 public:
  // Hydration bookkeeping for one lazily-loaded template: which mapped package
  // byte range its events come from and whether they have been parsed yet.
  struct LazyState {
    std::shared_ptr<const MappedPackage> pkg;
    uint32_t tpl_index = 0;             // into pkg->view()
    InteractionTemplate* tpl = nullptr;  // population storage this state fills
    std::atomic<bool> hydrated{false};
    std::mutex mu;  // serializes the one-time body parse
  };

  // One selectable template plus everything precompiled about it at load time.
  struct Candidate {
    const InteractionTemplate* tpl = nullptr;
    // Scalar params the initial constraints bind, in declaration order. A
    // candidate whose params are not all present in the invoke args is skipped
    // (it cannot match), never an argument error — other same-entry templates
    // with a different param set remain eligible.
    std::vector<std::string> scalar_params;
    // Non-null for lazily-loaded templates: hydrate before handing out tpl.
    LazyState* lazy = nullptr;
    // The template's golden measurement, filled by the first replay that
    // reads it — never at registration, hydration or selection.
    const GoldenCache* golden = nullptr;
  };

  TemplateStore();

  // A facade over the same shared population with a fresh per-shard compile
  // cache. Packages registered through any view (or the origin) become visible
  // to all of them; cache counters and cache contents stay per-view. The origin
  // store must outlive nothing in particular — views keep the shared state
  // alive on their own.
  std::unique_ptr<TemplateStore> NewShardView() const;

  // Verifies, decompresses and parses a sealed package, then adds it.
  Status AddPackage(const uint8_t* data, size_t len, std::string_view signing_key);
  // Adds (or, for an already-loaded driverlet, atomically replaces) one
  // driverlet's templates. Replacement is per-driverlet only: other loaded
  // packages are untouched. Publishes a new population snapshot; concurrent
  // readers keep using the one they pinned at call entry.
  Status AddPackage(const DriverletPackage& pkg);

  // Zero-copy registration: mmaps + verifies a sealed v2 package and registers
  // its directory; event bodies hydrate on first selection. Same replacement
  // semantics as AddPackage (an eager re-registration of the driverlet drops
  // the mapping, and vice versa).
  Status AddPackageFile(const std::string& path, std::string_view signing_key);
  Status AddMappedPackage(std::shared_ptr<const MappedPackage> pkg);

  // Arms the disk-persisted compile cache (program_cache.h): ProgramFor
  // consults |dir| before compiling and persists fresh programs there. Set it
  // before serving traffic; the directory must exist. Shared by every view.
  void set_compile_cache_dir(std::string dir);

  bool HasDriverlet(std::string_view driverlet) const;
  size_t package_count() const;
  size_t template_count() const;
  std::vector<std::string> driverlets() const;

  // All templates in load order, optionally restricted to one driverlet.
  // Lazily-loaded templates appear with their events still empty until first
  // selection touches them.
  std::vector<const InteractionTemplate*> templates() const;
  std::vector<const InteractionTemplate*> templates(std::string_view driverlet) const;

  // Device ids referenced by a driverlet's templates (primary reset devices
  // plus every register-touching event) — the service's admission check. For
  // mapped packages this comes from the seal-time directory, no hydration.
  std::vector<uint16_t> DevicesOf(std::string_view driverlet) const;
  // Same, computed from a not-yet-loaded package (admission before load).
  static std::vector<uint16_t> PackageDevices(const DriverletPackage& pkg);

  // Selects the template registered under (driverlet, entry) whose initial
  // constraints accept |scalars|. An empty |driverlet| considers every package
  // that registered the entry. kNoTemplate when nothing covers the input.
  // When |rejected| is non-null, candidates whose constraints evaluated false
  // are appended (telemetry) — such calls take the linear path so the report
  // covers every candidate; param-set mismatches are not reported there.
  Result<const InteractionTemplate*> Select(
      std::string_view driverlet, std::string_view entry, const Bindings& scalars,
      std::vector<const InteractionTemplate*>* rejected = nullptr) const;

  // Selection result: the selected template, its compiled program and its
  // golden-measurement cache. A null |program| means the template is run by
  // the interpreter (never compiled, or kUnsupported shapes). |golden| belongs
  // to the population snapshot |tpl| came from, so a later package swap can
  // never pair a template with another snapshot's digest.
  struct CompiledSelection {
    const InteractionTemplate* tpl = nullptr;
    std::shared_ptr<const CompiledProgram> program;
    const GoldenCache* golden = nullptr;
  };

  // Select for the interpreter engine: the same winner, plus its golden
  // cache; |program| stays null.
  Result<CompiledSelection> SelectInterpreted(
      std::string_view driverlet, std::string_view entry, const Bindings& scalars,
      std::vector<const InteractionTemplate*>* rejected = nullptr) const;

  // The full linear scan, bypassing every constraint index: the differential
  // oracle for the indexed path (tests, bench digest parity) and the
  // implementation behind rejected-candidate reporting. Selection semantics
  // are the reference ones; candidates_scanned counts every candidate.
  Result<const InteractionTemplate*> SelectLinear(
      std::string_view driverlet, std::string_view entry, const Bindings& scalars,
      std::vector<const InteractionTemplate*>* rejected = nullptr) const;

  // Cumulative number of candidates examined by Select — the mixed-traffic
  // bench divides this by invokes to show selection cost stays flat as the
  // template population grows. Aggregated across every view of the population.
  uint64_t candidates_scanned() const {
    return shared_->candidates_scanned.load(std::memory_order_relaxed);
  }
  // Selections served through a constraint-index probe (vs a linear walk).
  uint64_t index_probes() const {
    return shared_->index_probes.load(std::memory_order_relaxed);
  }
  // Lazily-registered templates whose bodies have been parsed so far,
  // cumulative across population rebuilds (a rebuild re-registers lazy
  // driverlets unhydrated). Aggregated across views.
  uint64_t hydrated_templates() const {
    return shared_->hydrated_templates.load(std::memory_order_relaxed);
  }
  // Header-only templates in the current population (0 when everything loaded
  // eagerly).
  size_t lazy_template_count() const;
  // Entry slots carrying a discriminating constraint index.
  size_t indexed_slot_count() const;

  // Select + compile (docs/replay_compiler.md): the winner comes from the same
  // selection loop as Select — the index probe, or the full scan when a
  // rejected report is requested — and only the winner is hydrated and
  // compiled. Programs come from a per-template compile cache (programs are
  // immutable per load), which also remembers failed compiles as
  // interpreter-fallback markers and is optionally backed by the on-disk
  // program cache (set_compile_cache_dir). The cache belongs to this view only
  // and is guarded by a per-view mutex (uncontended when each fleet shard
  // drives its own view).
  Result<CompiledSelection> SelectCompiled(
      std::string_view driverlet, std::string_view entry, const Bindings& scalars,
      std::vector<const InteractionTemplate*>* rejected = nullptr) const;

  // Compile-cache observability (also exported as replay.compile_cache.*
  // telemetry counters when tracing is armed). Per-view: a fleet sums these
  // over its shards.
  uint64_t compile_cache_hits() const {
    return compile_cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t compile_cache_misses() const {
    return compile_cache_misses_.load(std::memory_order_relaxed);
  }
  uint64_t compile_cache_evictions() const {
    return compile_cache_evictions_.load(std::memory_order_relaxed);
  }
  // Disk program-cache traffic (0 unless set_compile_cache_dir was called).
  uint64_t disk_compile_hits() const {
    return disk_compile_hits_.load(std::memory_order_relaxed);
  }
  uint64_t disk_compile_stores() const {
    return disk_compile_stores_.load(std::memory_order_relaxed);
  }

  // True when |other| reads the same shared population (fleet shard views).
  bool SharesPopulationWith(const TemplateStore& other) const {
    return shared_ == other.shared_;
  }

 private:
  struct EntrySlot {
    std::string driverlet;
    std::string entry;
    std::vector<Candidate> candidates;
    // Discriminating-probe structure; built when the slot is large enough and
    // at least one candidate factored into a usable gate.
    EntryConstraintIndex index;
    bool indexed = false;
  };

  // The frozen post-registration state. Built once per AddPackage, published
  // via one atomic pointer swap, never mutated afterwards (lazy event bodies
  // excepted — see LazyState). Slot and template addresses are stable for the
  // population's lifetime (node-based maps and deques), and populations live
  // as long as the shared state does.
  struct Population {
    // Owning storage; deque gives stable template addresses.
    std::map<std::string, std::deque<InteractionTemplate>, std::less<>> by_driverlet;
    // Primary index, keyed (driverlet, entry).
    std::map<std::pair<std::string, std::string>, EntrySlot> index;
    // Secondary index for driverlet-agnostic lookup: entry → slots, load order.
    std::map<std::string, std::vector<const EntrySlot*>, std::less<>> by_entry;
    // Devices each driverlet's templates touch, collected at load time.
    std::map<std::string, std::set<uint16_t>, std::less<>> devices;
    std::vector<std::string> load_order;
    // Zero-copy sources by driverlet; the shared_ptr keeps each mapping alive
    // as long as any snapshot (or hydrated template pointer) references it.
    std::map<std::string, std::shared_ptr<const MappedPackage>, std::less<>> mapped;
    // Hydration latches for this snapshot's lazy templates (deque: stable
    // addresses, LazyState is neither movable nor copyable).
    std::deque<LazyState> lazy_states;
    // One golden-measurement cache per template, same storage rules. A
    // rebuild starts them all empty: the snapshot's templates are new objects.
    std::deque<GoldenCache> goldens;
  };

  // State shared by every view of one population.
  struct Shared {
    std::mutex swap_mu;  // serializes AddPackage writers
    // RCU publish pointer; readers load it once per call, lock-free.
    std::atomic<const Population*> pop{nullptr};
    // Every population ever published, newest last. Retired snapshots are kept
    // alive so template pointers pinned by readers (or sitting in a per-view
    // compile cache that has not resynced yet) never dangle. Registration is rare —
    // this grows by one small snapshot per AddPackage call.
    std::vector<std::unique_ptr<const Population>> epochs;
    std::atomic<uint64_t> candidates_scanned{0};
    std::atomic<uint64_t> index_probes{0};
    std::atomic<uint64_t> hydrated_templates{0};
    // Disk program-cache directory; empty = disabled. Guarded by cfg_mu (set
    // once at deploy time, read on compile misses only).
    std::mutex cfg_mu;
    std::string compile_cache_dir;
  };

  explicit TemplateStore(std::shared_ptr<Shared> shared);

  const Population* population() const {
    return shared_->pop.load(std::memory_order_acquire);
  }
  static const EntrySlot* FindSlot(const Population& pop, std::string_view driverlet,
                                   std::string_view entry);
  // The one selection loop: resolves slots in |pop| — the snapshot the caller
  // pinned, so the winner and everything derived from it come from one
  // population — walks either the index probe set (use_index, for slots that
  // have one) or the full candidate list, applies the param check / Eval /
  // first-match-wins / ambiguity-warning protocol, and returns the winning
  // candidate (kNoTemplate when none).
  Result<const Candidate*> SelectCandidate(
      const Population& pop, std::string_view driverlet, std::string_view entry,
      const Bindings& scalars, std::vector<const InteractionTemplate*>* rejected,
      bool use_index) const;
  // SelectCandidate on the pinned |pop| (kNoTemplate when null), then hydrates
  // the winner: the selection without a program.
  Result<CompiledSelection> SelectHydrated(
      const Population* pop, std::string_view driverlet, std::string_view entry,
      const Bindings& scalars, std::vector<const InteractionTemplate*>* rejected,
      bool use_index) const;
  // Parses a lazy template's event body on first use (no-op for eager ones).
  Status EnsureHydrated(const Candidate& c) const;
  // Registration core: exactly one of |eager| / |mapped| is set.
  Status AddPackageInternal(const DriverletPackage* eager,
                            std::shared_ptr<const MappedPackage> mapped);
  // Compile-cache lookup; remembers failures as null programs, consults the
  // disk cache when configured. cache_mu_ held; |tpl| must be hydrated.
  std::shared_ptr<const CompiledProgram> ProgramFor(const InteractionTemplate* tpl) const;
  // Drops the compile cache, counting evictions. cache_mu_ held.
  void FlushCacheLocked() const;

  std::shared_ptr<Shared> shared_;

  // Per-view mutable state: the compile cache and the population generation
  // it was built against. Guarded by cache_mu_ — uncontended in the fleet (one
  // shard, one view, one executing thread at a time).
  mutable std::mutex cache_mu_;
  mutable const Population* cache_pop_ = nullptr;
  mutable std::map<const InteractionTemplate*, std::shared_ptr<const CompiledProgram>>
      compile_cache_;
  mutable std::atomic<uint64_t> compile_cache_hits_{0};
  mutable std::atomic<uint64_t> compile_cache_misses_{0};
  mutable std::atomic<uint64_t> compile_cache_evictions_{0};
  mutable std::atomic<uint64_t> disk_compile_hits_{0};
  mutable std::atomic<uint64_t> disk_compile_stores_{0};
};

}  // namespace dlt

#endif  // SRC_CORE_TEMPLATE_STORE_H_
