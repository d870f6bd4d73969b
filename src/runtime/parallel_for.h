// The runtime's one task runner. Both callers (ShardedCampaign::Run and the
// CLI's reducer) know every task up front and wait for all of them once, so
// the runner is a fixed set of threads pulling task indices from one shared
// counter.
#ifndef SPATTER_RUNTIME_PARALLEL_FOR_H_
#define SPATTER_RUNTIME_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace spatter::runtime {

/// Runs `run(i)` once for every i in [0, tasks) on min(threads, tasks)
/// freshly spawned threads (`threads` clamped to at least 1), each taking
/// the next unclaimed index until none is left, and returns once all have
/// finished. No task runs on the calling thread, so thread-local state
/// starts fresh in every call. With threads >= tasks every task has its
/// own thread and all of them run at once. If a task throws, no further
/// task starts, the running ones finish, and the first exception is
/// rethrown here.
void ParallelFor(size_t threads, size_t tasks,
                 const std::function<void(size_t)>& run);

}  // namespace spatter::runtime

#endif  // SPATTER_RUNTIME_PARALLEL_FOR_H_
