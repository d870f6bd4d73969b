// The traced run of a workload: the per-layer profile.
#ifndef SPATTER_PERFBENCH_REDRIVE_H_
#define SPATTER_PERFBENCH_REDRIVE_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace spatter::perfbench {

/// Runs `w` at `seed` untraced (at its own job count and serially), then
/// re-drives the same iteration universe serially with spans and counters
/// around every call into a layer, checks that the re-drive reproduces the
/// untraced bug set, and reports the per-layer metrics. Spans are written
/// to `trace_dir` (skipped when empty). Returns the process exit code.
int RunTraced(const Workload& w, uint64_t seed, const std::string& trace_dir);

}  // namespace spatter::perfbench

#endif  // SPATTER_PERFBENCH_REDRIVE_H_
