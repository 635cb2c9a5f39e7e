#include "src/core/integrity.h"

#include <cstring>

namespace dlt {

namespace {

void PutU64(Sha256* h, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  h->Update(b, sizeof(b));
}

void PutStr(Sha256* h, const std::string& s) {
  PutU64(h, s.size());
  h->Update(s.data(), s.size());
}

Sha256::Digest HashBegin(const Sha256::Digest& value, const InteractionTemplate& tpl) {
  Sha256 h;
  h.Update(value.data(), value.size());
  PutStr(&h, tpl.name);
  PutStr(&h, tpl.entry);
  PutU64(&h, tpl.events.size());
  return h.Finalize();
}

Sha256::Digest HashEvent(const Sha256::Digest& value, const TemplateEvent& e, size_t index) {
  Sha256 h;
  h.Update(value.data(), value.size());
  // Static template structure only — runtime values (bound reads, timestamps,
  // poll iteration counts) would break cross-engine and cross-run parity.
  PutU64(&h, index);
  PutU64(&h, static_cast<uint64_t>(e.kind));
  PutU64(&h, e.device);
  PutU64(&h, e.reg_off);
  PutU64(&h, static_cast<uint64_t>(static_cast<int64_t>(e.irq_line)));
  PutStr(&h, e.bind);
  PutStr(&h, e.buffer);
  return h.Finalize();
}

const Sha256::Digest& SeedValue() {
  static const Sha256::Digest kSeedValue =
      Sha256::Hash(kIntegritySeed, std::strlen(kIntegritySeed));
  return kSeedValue;
}

}  // namespace

const Sha256::Digest& GoldenCache::Get(const InteractionTemplate& tpl) const {
  if (!ready_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!ready_.load(std::memory_order_relaxed)) {
      value_ = GoldenMeasurement(tpl);
      // Pairs with the acquire load above: a reader that sees ready_ also
      // sees the whole digest.
      ready_.store(true, std::memory_order_release);
    }
  }
  return value_;
}

IntegrityChain::IntegrityChain() : value_(SeedValue()) {}

void IntegrityChain::Begin(const InteractionTemplate& tpl) {
  Materialize();
  value_ = HashBegin(value_, tpl);
}

void IntegrityChain::BeginDeferred(const InteractionTemplate& tpl, const GoldenCache* golden) {
  Materialize();
  deferred_ = &tpl;
  // The golden digest starts from the seed; a chain that already holds other
  // folds can still defer, but must hash even a complete run.
  golden_ = value_ == SeedValue() ? golden : nullptr;
}

void IntegrityChain::FoldEvent(const TemplateEvent& e, size_t index) {
  if (deferred_ != nullptr && index == pending_ && index < deferred_->events.size() &&
      &e == &deferred_->events[index]) {
    ++pending_;
    ++folded_;
    return;
  }
  Materialize();
  value_ = HashEvent(value_, e, index);
  ++folded_;
}

void IntegrityChain::Extend(const Sha256::Digest& d) {
  Materialize();
  Sha256 h;
  h.Update(value_.data(), value_.size());
  h.Update(d.data(), d.size());
  value_ = h.Finalize();
  ++folded_;
}

void IntegrityChain::MaterializeSlow() const {
  const InteractionTemplate& tpl = *deferred_;
  size_t n = pending_;
  deferred_ = nullptr;
  pending_ = 0;
  if (golden_ != nullptr && n == tpl.events.size()) {
    value_ = golden_->Get(tpl);
    return;
  }
  value_ = HashBegin(value_, tpl);
  for (size_t i = 0; i < n; ++i) {
    value_ = HashEvent(value_, tpl.events[i], i);
  }
}

Sha256::Digest GoldenMeasurement(const InteractionTemplate& tpl) {
  IntegrityChain chain;
  chain.Begin(tpl);
  for (size_t i = 0; i < tpl.events.size(); ++i) {
    chain.FoldEvent(tpl.events[i], i);
  }
  return chain.digest();
}

std::string GoldenMeasurementHex(const InteractionTemplate& tpl) {
  return Sha256::HexDigest(GoldenMeasurement(tpl));
}

}  // namespace dlt
