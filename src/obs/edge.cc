#include "src/obs/edge.h"

namespace dlt {

EdgeCoverage& EdgeCoverage::Get() {
  static EdgeCoverage* g = new EdgeCoverage();
  return *g;
}

size_t EdgeCoverage::distinct() const {
  size_t n = 0;
  for (const auto& c : cells_) {
    if (c.load(std::memory_order_relaxed) != 0) {
      ++n;
    }
  }
  return n;
}

void EdgeCoverage::Reset() {
  for (auto& c : cells_) {
    c.store(0, std::memory_order_relaxed);
  }
}

const char* EdgeName(size_t index) {
  static const char* kNames[] = {
      "service.register",         "service.register_reject",
      "service.open",             "service.open_reject",
      "service.close",            "service.invoke_ok",
      "service.invoke_fail",      "service.quarantine",
      "service.integrity_quarantine", "service.quarantine_reject",
      "service.measurement_mismatch", "service.batch",
      "service.session_gone",     "ring.push",
      "ring.full",                "ring.wrap",
      "ring.doorbell",            "ring.empty_doorbell",
      "ring.pop",                 "ring.pop_empty",
      "compiled.bulk_fast",       "compiled.bulk_exact",
      "compiled.poll_iter",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Edge::kNamedCount));
  if (index < static_cast<size_t>(Edge::kNamedCount)) {
    return kNames[index];
  }
  if (index >= kEdgeOpBase && index < kEdgeMapSize) {
    return "cop";
  }
  return "?";
}

}  // namespace dlt
