// The three workloads. Each runs in its own process, reads the inputs `perfbench
// gen` wrote to opts.dir, prints its figures and ends with Report::PrintJson.
// Untraced (opts.trace false) they report the end-to-end metrics; traced they
// report the per-layer metrics of the layers on their path. Each returns the
// process exit code: nonzero on any output-check mismatch.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace dlt::perf {

int RunStorageRw(const Options& opts);
int RunStore100k(const Options& opts);
int RunFleetMixed(const Options& opts);

}  // namespace dlt::perf

#endif  // PERFBENCH_WORKLOADS_H_
