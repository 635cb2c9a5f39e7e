// Input generation. Everything here runs outside every timed region and
// outside setup_s: `perfbench gen` records and seals the driverlet packages and
// builds the 100k-template corpus (the paper's offline developer phase), and
// BlockMix draws the seeded block-IO stream the storage clients issue.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/check/scale_corpus.h"

namespace dlt::perf {

// Templates in the store_100k corpus, spread over ScaleCorpusConfig::entries.
// The corpus is one fixed population (ScaleCorpusConfig's default seed), like
// the recorded packages; --seed drives only the probe stream. Corpus seeds
// differ in body size by 3x, which would swamp every store_100k figure.
inline constexpr size_t kScaleTemplates = 100000;

// Records (on a fresh developer machine) and seals one v2 package per device
// class the workload needs, or builds the scale corpus for store_100k, into
// opts.dir. Returns a process exit code.
int Generate(const Options& opts);

// Path of the sealed v2 package of |cls| ("mmc", "usb", ... or "scale").
std::string PackagePath(const std::string& dir, const std::string& cls);

// The store_100k corpus as the benchmark's clients see it: its config and the
// per-body scalar bindings every probe carries, without the 100k templates.
bool LoadScaleCorpusShell(const std::string& dir, ScaleCorpus* out);

// One block request against a storage driverlet.
struct BlockOp {
  bool write = false;
  uint32_t blkcnt = 0;
  uint64_t blkid = 0;
  uint32_t dev = 0;  // which of the mix's devices (sessions) it targets
};

// DB-like block traffic over [base, base + span) blocks of each device. Each
// run of 100 ops has an exact composition — 60 reads / 40 writes; 70 of 1-8
// blocks, 25 of 32, 5 of 128 or 256; an even split over devices —
// in seeded order, so different seeds give the same mix and steady figures.
// blkid is 8-aligned, as the recorded constraints require.
class BlockMix {
 public:
  BlockMix(uint64_t seed, uint64_t span, uint32_t devs);
  BlockOp Next();

 private:
  void Refill();

  Rng rng_;
  uint64_t span_;
  uint32_t devs_;
  std::vector<BlockOp> pending_;
};

}  // namespace dlt::perf

#endif  // PERFBENCH_INPUTS_H_
