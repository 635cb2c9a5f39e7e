// perfbench: host-time benchmark driver for the replay stack.
//
//   perfbench gen --workload W --seed N --dir D
//       records, seals and writes the inputs workload W needs into D;
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       runs W against those inputs and prints its figures, then one JSON line.
//
// run.py builds this binary and runs the two steps in separate processes, so
// input generation never counts toward a workload's time or peak RSS.
#include <cstdlib>
#include <cstring>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run --workload storage_rw|store_100k|fleet_mixed "
               "--seed N --dir D [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlt::perf;
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  Options opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      opts.dir = value;
    } else {
      return Usage();
    }
  }
  if (opts.dir.empty() || opts.seconds <= 0) {
    return Usage();
  }
  if (cmd == "gen") {
    return Generate(opts);
  }
  if (cmd != "run") {
    return Usage();
  }
  if (opts.workload == "storage_rw") {
    return RunStorageRw(opts);
  }
  if (opts.workload == "store_100k") {
    return RunStore100k(opts);
  }
  if (opts.workload == "fleet_mixed") {
    return RunFleetMixed(opts);
  }
  return Usage();
}
