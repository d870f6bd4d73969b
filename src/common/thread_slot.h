// Per-thread shard selection for the lock-free instruments: coverage hit
// counters (common/coverage.h) and metrics counters and histograms
// (obs/metrics.h). Each of them keeps a small fixed set of cache-line-
// aligned shards and writes the calling thread's shard only, so the
// threads of a --jobs=N campaign do not bounce one cache line per hit.
#ifndef SPATTER_COMMON_THREAD_SLOT_H_
#define SPATTER_COMMON_THREAD_SLOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace spatter {

namespace internal {
/// The calling thread's slot, SIZE_MAX until it first asks.
inline thread_local size_t thread_slot = SIZE_MAX;
}  // namespace internal

/// The calling thread's slot: 0 for the first thread that asks, 1 for the
/// next, and so on. An instrument with S shards writes shard slot % S, so
/// any S threads that start one after another write S different shards.
/// (Hashing std::thread::id makes no such promise: it can put two of
/// three threads into one shard.)
inline size_t ThreadSlot() {
  if (internal::thread_slot == SIZE_MAX) {
    static std::atomic<size_t> next{0};
    internal::thread_slot = next.fetch_add(1, std::memory_order_relaxed);
  }
  return internal::thread_slot;
}

}  // namespace spatter

#endif  // SPATTER_COMMON_THREAD_SLOT_H_
