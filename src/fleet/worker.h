// Fleet worker: the loop that runs one assignment of a fleet campaign
// inside a worker process (net::RunFleetClient calls it once per ASSIGN,
// with the connection's socket as both frame directions).
//
// An assignment is an explicit set of global SplitSeed slices: slice s (a
// global index in [0, total_slices)) runs iterations s, s + total_slices,
// s + 2*total_slices, ... on its own fuzz::Campaign — exactly the
// ShardedCampaign partition, with the stride widened from one process's
// shard count to the fleet-wide slice count. Because
// Campaign::RunIterationAt reseeds from (seed, iteration), any
// (processes × jobs) factorization of the same total slice count walks
// the identical pure-generate test-case universe.
//
// Protocol duties (see wire.h): INFLIGHT before every iteration (the
// supervisor's crash-recovery anchor), BUG per discrepancy as found (a
// killed worker loses at most its in-flight iteration), ENTRY per fresh
// corpus admission (cross-process corpus sync; entries arriving from the
// supervisor are Restored, never re-echoed), SLICEPROGRESS after every
// completed iteration, COV/STATS heartbeats, and one DONE with final
// counters.
#ifndef SPATTER_FLEET_WORKER_H_
#define SPATTER_FLEET_WORKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/campaign.h"

namespace spatter::fleet {

struct WorkerOptions {
  /// Per-slice campaign template. `base.seed` is the fleet master seed;
  /// `base.iterations` the fleet-wide TOTAL budget (batch mode).
  fuzz::CampaignConfig base;
  /// Dialects to fuzz; empty = just base.dialect. Every dialect gets the
  /// full slice set (mirrors ShardedCampaign fleet mode).
  std::vector<engine::Dialect> dialects;
  size_t index = 0;          ///< assignment index, for HELLO and logs
  size_t total_slices = 1;   ///< global stride (processes × jobs)
  /// The global slices to run, one worker thread each. Contiguous on a
  /// first assignment; arbitrary after the supervisor requeues a dead
  /// worker's slices onto a survivor.
  std::vector<uint64_t> slices;
  /// 0 = batch mode (run the iteration budget); > 0 = duration mode (run
  /// until this many seconds elapse — the campaign's remaining budget).
  double duration_seconds = 0.0;
  /// Resume state: completed iteration count per (dialect value, slice),
  /// from a checkpoint or from a dead worker's SLICEPROGRESS marks.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> completed;
  /// Seconds between COV heartbeats.
  double cov_interval_seconds = 0.2;
  /// Test-only deterministic fault injection: when > 0, the worker
  /// SIGKILLs itself immediately after writing this many frames — a real
  /// SIGKILL death at a reproducible point in the protocol stream, so
  /// crash-isolation tests need no timing-dependent external killer.
  uint64_t die_after_frames = 0;
};

/// Runs one assignment, reading supervisor frames from `in_fd` and writing
/// worker frames to `out_fd` (the same socket in practice). Returns 0 on a
/// clean run (DONE sent), 1 on a write failure.
int RunWorker(const WorkerOptions& options, int in_fd, int out_fd);

}  // namespace spatter::fleet

#endif  // SPATTER_FLEET_WORKER_H_
