// Fleet client: the body of every fleet worker process — a local child
// forked by `spatter --fleet` or a remote `spatter --connect=HOST:PORT` —
// looping over assignments from the one supervisor (net/fleet_server.h).
//
// Protocol: one assignment per TCP connection, carried by one
// net::FrameChannel. The client connects (with a retry budget, so remote
// workers may start before the supervisor), sends NETHELLO <proto> <pid>,
// and waits until the supervisor answers — ASSIGN (a hex-encoded
// EncodeCheckpoint document carrying the campaign identity and the
// assignment's (dialect, slice, completed) marks) or BYE (no work now or
// ever). On ASSIGN it runs runtime::ShardedCampaign over the assignment's
// slices — the stride is the fleet-wide slice count, the marks are the
// resume points — with an observer that streams the wire.h frames of
// every iteration, and reconnects for the next assignment once DONE is on
// the wire. The supervisor holding an idle connection open IS the
// elastic-membership waiting room: the client just waits in its read
// loop until work is requeued or the campaign ends.
//
// Reconnect rule: the first connect spends the whole retry budget, so a
// worker may start before its supervisor. After an assignment, a refused
// connection (nothing listens: the supervisor has exited) ends the worker
// at once with status 0; any other connect error keeps the budget.
//
// Nothing host-specific crosses the wire: no file paths, no corpus
// directories. Corpus state arrives as streamed ENTRY frames.
#ifndef SPATTER_NET_FLEET_CLIENT_H_
#define SPATTER_NET_FLEET_CLIENT_H_

#include <cstdint>
#include <string>

namespace spatter::net {

struct FleetClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Retry budget for each (re)connect attempt (a refusal after an
  /// assignment ends it early; see the reconnect rule above).
  double connect_retry_seconds = 10.0;
  /// Seconds between COV heartbeats.
  double cov_interval_seconds = 0.2;
  /// Test-only: the first assignment's worker SIGKILLs itself right after
  /// writing this many frames after NETHELLO — a real SIGKILL death at a
  /// reproducible point in the protocol stream, the seam the
  /// elastic-membership tests kill a worker with
  /// (FleetConfig::worker0_die_after_frames for a local child). Cleared
  /// after the first assignment.
  uint64_t die_after_frames = 0;
};

/// Runs assignments until the server says BYE (returns 0), the server
/// vanishes (returns 0 after a completed assignment, 1 when the initial
/// connect never succeeded), or a protocol error occurs (returns 1).
int RunFleetClient(const FleetClientConfig& config);

}  // namespace spatter::net

#endif  // SPATTER_NET_FLEET_CLIENT_H_
