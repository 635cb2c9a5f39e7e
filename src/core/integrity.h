// Runtime integrity measurement for replay (ROADMAP item 3, PDRIMA-style):
// every invoke folds the events it actually executed into a SHA-256 hash
// chain, and the chain of a clean run is — by construction — computable
// statically from the template alone (GoldenMeasurement). Comparing the two
// tells a verifier not just *that* an invoke failed but exactly how much of
// the golden trace executed before it stopped.
//
// Parity contract: both engines fold one descriptor per completed *top-level*
// template event, in template order. The descriptor covers only the fields
// that are static template structure (kind, index, device, register offset,
// irq line, bind/buffer names) — never runtime values — so interpreter and
// compiled runs of one template produce byte-identical chains, including the
// failure prefix when an attempt diverges mid-template. Poll bodies are
// excluded: their iteration count is device timing, not template structure,
// and the poll event itself is folded once on success.
//
// Cost: since a template fixes its event sequence, the chain depends only on
// (template, events completed). The replayer therefore binds each attempt's
// chain to its template in deferred mode: a clean invoke hashes nothing and
// reads the template's cached golden digest, and an attempt that stopped
// early hashes its prefix once, when the final measurement is read.
#ifndef SRC_CORE_INTEGRITY_H_
#define SRC_CORE_INTEGRITY_H_

#include <atomic>
#include <mutex>
#include <string>

#include "src/core/event.h"
#include "src/core/interaction_template.h"
#include "src/crypto/sha256.h"

namespace dlt {

// Domain separator folded into every chain's initial value.
inline constexpr const char kIntegritySeed[] = "dlt-integrity-v1";

// A template's GoldenMeasurement, computed at most once and then shared by
// every reader (the template store keeps one per template per population
// snapshot). Same double-checked latch as the store's lazy hydration: the
// first Get hashes under the mutex, later ones read the published value
// lock-free. |tpl| must be the same, fully hydrated template on every call.
class GoldenCache {
 public:
  const Sha256::Digest& Get(const InteractionTemplate& tpl) const;

 private:
  mutable std::atomic<bool> ready_{false};
  mutable std::mutex mu_;
  mutable Sha256::Digest value_{};
};

class IntegrityChain {
 public:
  IntegrityChain();

  // Folds the template identity (name, entry, top-level event count) into the
  // chain. Call once, before any FoldEvent.
  void Begin(const InteractionTemplate& tpl);

  // Begin, computed lazily; meant for a fresh chain that will fold |tpl|'s own
  // events. An in-order fold — FoldEvent(tpl.events[i], i) where i events
  // were folded since this call — only counts the event; hashing waits for
  // the first read (digest, Hex, Extend).
  // A read after every event folded returns |golden|'s cached digest, a read
  // after fewer folds the counted prefix once. Any other fold (out of order,
  // skipped, or an event object outside tpl.events) first hashes the prefix
  // and then folds for real, as does a second Begin. Every fold sequence thus
  // yields exactly the digest of Begin + the same FoldEvent calls. |tpl| and
  // |golden| must outlive the chain's first read; a null |golden| (or a chain
  // that was not fresh) hashes complete runs too.
  void BeginDeferred(const InteractionTemplate& tpl, const GoldenCache* golden);

  // Extends the chain with the structural descriptor of one completed
  // top-level event: value = SHA256(value || descriptor).
  void FoldEvent(const TemplateEvent& e, size_t index);

  // Generic PCR-style extend (session chains over per-invoke measurements).
  void Extend(const Sha256::Digest& d);

  const Sha256::Digest& digest() const {
    Materialize();
    return value_;
  }
  std::string Hex() const { return Sha256::HexDigest(digest()); }
  size_t folded() const { return folded_; }

 private:
  // Turns a deferred chain into a plain one holding the same value.
  void Materialize() const {
    if (deferred_ != nullptr) {
      MaterializeSlow();
    }
  }
  void MaterializeSlow() const;

  // Lazily materialized, hence mutable; a chain is single-threaded.
  mutable Sha256::Digest value_;
  size_t folded_ = 0;
  // Non-null while deferred: the chain's value is value_ followed by
  // Begin(*deferred_) and the template's first pending_ events.
  mutable const InteractionTemplate* deferred_ = nullptr;
  mutable size_t pending_ = 0;
  const GoldenCache* golden_ = nullptr;
};

// The chain a complete, divergence-free execution of |tpl| produces: Begin +
// FoldEvent over every top-level event in order.
Sha256::Digest GoldenMeasurement(const InteractionTemplate& tpl);
std::string GoldenMeasurementHex(const InteractionTemplate& tpl);

// What one Invoke measured, surfaced by Replayer::last_measurement() for the
// service's attestation/quarantine policy (failed invokes return a bare
// Status, so the record cannot ride on ReplayStats alone).
struct MeasurementRecord {
  bool valid = false;
  std::string template_name;
  size_t events_measured = 0;     // top-level events folded on the final attempt
  Sha256::Digest digest{};        // final-attempt chain value
  bool matches_golden = false;    // digest == GoldenMeasurement(template)
  std::string Hex() const { return Sha256::HexDigest(digest); }
};

}  // namespace dlt

#endif  // SRC_CORE_INTEGRITY_H_
