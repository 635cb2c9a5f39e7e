#include "perfbench/inputs.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/package.h"
#include "src/workload/deploy_util.h"

namespace dlt::perf {
namespace {

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

bool RecordAndSeal(const std::string& dir, const std::string& cls) {
  const DriverletClassSpec* spec = FindDriverletClass(cls);
  if (spec == nullptr) {
    return false;
  }
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> c = spec->record(&dev);
  if (!c.ok()) {
    std::fprintf(stderr, "perfbench gen: %s campaign failed: %s\n", cls.c_str(),
                 StatusName(c.status()));
    return false;
  }
  return WriteFile(PackagePath(dir, cls), SealPackageV2(c->MakePackage(), kDeveloperKey));
}

std::string ScalarsPath(const std::string& dir) { return dir + "/scale_scalars.txt"; }

bool BuildScale(const std::string& dir) {
  ScaleCorpusConfig cfg;
  cfg.templates = kScaleTemplates;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  if (!WriteFile(PackagePath(dir, "scale"), SealPackageV2(corpus.pkg, kDeveloperKey))) {
    return false;
  }
  std::ofstream out(ScalarsPath(dir));
  for (const Bindings& b : corpus.base_scalars) {
    for (const auto& [name, value] : b) {
      out << name << '=' << value << ' ';
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace

std::string PackagePath(const std::string& dir, const std::string& cls) {
  return dir + "/" + cls + ".dltpkg";
}

int Generate(const Options& opts) {
  std::vector<std::string> classes;
  if (opts.workload == "storage_rw") {
    classes = {"mmc", "usb"};
  } else if (opts.workload == "fleet_mixed") {
    classes = {"mmc", "usb", "cryptoacc", "ftpm", "camera"};
  } else if (opts.workload == "store_100k") {
    return BuildScale(opts.dir) ? 0 : 1;
  } else {
    std::fprintf(stderr, "perfbench gen: unknown workload %s\n", opts.workload.c_str());
    return 2;
  }
  for (const std::string& cls : classes) {
    if (!RecordAndSeal(opts.dir, cls)) {
      std::fprintf(stderr, "perfbench gen: cannot produce the %s package\n", cls.c_str());
      return 1;
    }
  }
  return 0;
}

bool LoadScaleCorpusShell(const std::string& dir, ScaleCorpus* out) {
  out->cfg = ScaleCorpusConfig{};
  out->cfg.templates = kScaleTemplates;
  out->base_scalars.clear();
  std::ifstream in(ScalarsPath(dir));
  std::string line;
  while (std::getline(in, line)) {
    Bindings b;
    std::istringstream fields(line);
    std::string field;
    while (fields >> field) {
      size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return false;
      }
      b[field.substr(0, eq)] = std::stoull(field.substr(eq + 1));
    }
    out->base_scalars.push_back(std::move(b));
  }
  return !out->base_scalars.empty();
}

BlockMix::BlockMix(uint64_t seed, uint64_t span, uint32_t devs)
    : rng_(seed), span_(span), devs_(devs) {}

void BlockMix::Refill() {
  constexpr size_t kRun = 100;
  std::vector<uint8_t> writes(kRun, 0);
  std::fill(writes.begin(), writes.begin() + 40, 1);
  std::vector<uint32_t> counts(kRun);
  for (size_t i = 0; i < kRun; ++i) {
    if (i < 70) {
      counts[i] = 1 + static_cast<uint32_t>(rng_.Below(8));
    } else if (i < 95) {
      counts[i] = 32;
    } else {
      // The recorded sizes; usb templates cover no other count above 32.
      counts[i] = rng_.Below(2) == 0 ? 128 : 256;
    }
  }
  std::vector<uint32_t> devs(kRun);
  for (size_t i = 0; i < kRun; ++i) {
    devs[i] = static_cast<uint32_t>(i % devs_);
  }
  rng_.Shuffle(&writes);
  rng_.Shuffle(&counts);
  rng_.Shuffle(&devs);
  pending_.clear();
  for (size_t i = kRun; i-- > 0;) {
    BlockOp op;
    op.write = writes[i] != 0;
    op.blkcnt = counts[i];
    op.dev = devs[i];
    uint64_t slots = (span_ - ((op.blkcnt + 7) & ~7u)) / 8 + 1;
    op.blkid = 8 * rng_.Below(slots);
    pending_.push_back(op);
  }
}

BlockOp BlockMix::Next() {
  if (pending_.empty()) {
    Refill();
  }
  BlockOp op = pending_.back();
  pending_.pop_back();
  return op;
}

}  // namespace dlt::perf
