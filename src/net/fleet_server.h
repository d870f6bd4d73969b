// FleetServer: the one fleet supervisor — the process tier of the runtime
// (threads -> shards -> processes -> machines). It hands batches of global
// SplitSeed slices to worker processes over TCP and merges their BUG /
// ENTRY / COV / SLICEPROGRESS frame streams into one Aggregator, one fleet
// corpus, one Figure-8 curve, and one CheckpointState.
//
// Two ways to run it, one code path:
//   - `spatter --fleet=P --jobs=J` binds 127.0.0.1:0 and forks P local
//     children, each calling RunFleetClient against that port. Children
//     are respawned while work remains, die with the supervisor
//     (PR_SET_PDEATHSIG), and are killed and reaped when the campaign
//     ends.
//   - `spatter --serve=PORT` binds 0.0.0.0:PORT, spawns nothing, and
//     waits for remote `spatter --connect=HOST:PORT` workers.
// Either way the slice universe is P*J, handed out J slices per
// assignment, so every factorization walks the same pure-generate
// test-case universe as the in-process `--jobs=P*J` run.
//
// Membership is elastic: workers may join at any time (a connection that
// finds the work queue empty is held open and assigned the moment work
// appears), and a worker that dies mid-assignment — local or remote — has
// its unfinished slices requeued at their SLICEPROGRESS high-water marks
// and re-factored onto whichever peer asks next. Because marks count
// COMPLETED iterations, the dead worker's in-flight iteration is re-run,
// never skipped, and its re-reported unique bugs dedup in the aggregator's
// earliest-logical-position order: a campaign with a worker SIGKILLed
// mid-run reports the identical `bug-set:` / `bug-set-by-oracle:` lines
// and counts as an uninterrupted one. A slice is in flight from its
// INFLIGHT to its SLICEPROGRESS, and its in-flight iteration is the one
// at its mark (slice + mark * slices). Every death persists each
// in-flight iteration (pure-generate mode) as an `inflight-*.sptc`
// reproducer plus a `flight-*.trace.jsonl` dump in the crash dir. After
// kMaxDeathsPerAssignment consecutive deaths the supervisor assumes a
// deterministic killer and moves the mark past the in-flight iteration,
// trading that one case for campaign liveness.
//
// Handshake: the client's first frame is NETHELLO <proto> <pid>; the
// supervisor BYEs any peer with a different fleet::kNetProtocolVersion.
// One assignment per connection: ASSIGN carries a hex-encoded
// EncodeCheckpoint document (campaign identity + the assignment's
// (dialect, slice, completed) marks), the worker streams its frames, and
// DONE ends the connection; the client reconnects for more work. No file
// path crosses the wire: workers are seeded purely by streamed ENTRY
// frames, and fresh corpus signatures are rebroadcast to every other live
// peer as they arrive.
//
// Work is credited in one place: each iteration's SLICEPROGRESS, its
// last frame, carries its queries, checks and findings, and the
// supervisor merges one iteration with them when the frame arrives.
// Neither a heartbeat, nor DONE, nor a worker's death credits anything,
// so a dead worker's uncredited iteration is credited once, when it is
// re-run; the status line, the curve, /fleet and checkpoints all read
// what has been credited. Peers are untrusted: an INFLIGHT or
// SLICEPROGRESS for a (dialect, slice) the peer's assignment does not
// hold, or for a batch slice at its budget, and a SLICEPROGRESS whose mark
// is not the slice's next one are protocol errors and credit nothing.
//
// Unique bugs follow the in-process rule: a worker sends each iteration's
// unique bugs (its first report of each fault) as BUG frames, and the
// supervisor merges each by fuzz::DetectedEarlier
// (runtime::Aggregator::MergeUniqueBug), as it does a checkpoint's bugs on
// resume; it keeps no memory of who reported what.
#ifndef SPATTER_NET_FLEET_SERVER_H_
#define SPATTER_NET_FLEET_SERVER_H_

#include <sys/types.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus.h"
#include "fleet/checkpoint.h"
#include "fleet/curve.h"
#include "fleet/wire.h"
#include "fuzz/campaign.h"
#include "net/status_endpoint.h"
#include "obs/metrics.h"
#include "runtime/aggregator.h"

namespace spatter::net {

struct FleetConfig {
  /// Campaign template: `base.seed` the master seed, `base.iterations`
  /// the fleet-wide batch budget (total, per dialect).
  fuzz::CampaignConfig base;
  /// Dialects every assignment covers; empty = base.dialect only.
  std::vector<engine::Dialect> dialects;
  /// The slice universe is processes * jobs, handed out `jobs` slices per
  /// assignment. Local mode also forks `processes` children.
  size_t processes = 2;
  size_t jobs = 1;
  /// false: local fleet (127.0.0.1, `processes` forked children).
  /// true: `--serve` (0.0.0.0:`port`, 0 = kernel-picked; no children).
  bool serve = false;
  uint16_t port = 0;
  /// > 0: duration-budget campaign; 0: batch mode.
  double duration_seconds = 0.0;
  /// Merged-corpus persistence directory (never sent to workers). Empty =
  /// corpus mode off unless base.corpus.enabled.
  std::string corpus_dir;
  /// Where a dead worker's in-flight reproducer and flight dump go
  /// (pure-generate mode only); empty = skip persisting.
  std::string crash_dir;
  /// Replay merged corpus entries across dialects after the run.
  bool cross_dialect_transfer = true;
  /// Seconds between COV heartbeats of local children.
  double cov_interval_seconds = 0.2;
  /// > 0: print a live fleet status line to stderr every S seconds
  /// (iters/s, engine-us/query, per-oracle p99, bugs, corpus, worker
  /// liveness) and flag workers silent for 3x the interval as stale.
  /// Stderr, never stdout: the bug-set report must stay byte-identical
  /// with telemetry on.
  double status_interval_seconds = 0.0;
  /// Non-empty: write the fleet MetricsSnapshot as spatter-metrics-v1
  /// JSON here (atomic write-rename) every `metrics_interval_seconds` of
  /// wall time — or on the status tick when that is 0 — plus once at
  /// completion.
  std::string metrics_out;
  double metrics_interval_seconds = 0.0;
  /// Serve the read-only status endpoint (GET /metrics, /fleet, /bugs)
  /// on `status_port` (0 = kernel-picked; status_port() after Start()).
  bool serve_status = false;
  uint16_t status_port = 0;
  /// Checkpoint/resume. With `checkpoint_dir` set the supervisor persists
  /// a CheckpointState (fleet/checkpoint.h) every
  /// `checkpoint_interval_seconds` of wall time plus once at completion,
  /// via atomic write-rename. `resume` re-queues every slice at its
  /// completed high-water mark, pre-populates the aggregator with the
  /// restored unique-bug set, restores the covered-site set and curve
  /// prefix, and continues the duration budget from its elapsed time.
  /// processes*jobs must equal `resume->total_slices`.
  std::string checkpoint_dir;
  double checkpoint_interval_seconds = 30.0;
  std::optional<fleet::CheckpointState> resume;

  /// Test-only deterministic fault injection (0 = off): the supervisor
  /// SIGKILLs ITSELF right after handling this many valid frames /
  /// writing this many checkpoints — run it in a forked child — and the
  /// first local child's first assignment SIGKILLs itself after writing
  /// `worker0_die_after_frames` frames.
  uint64_t die_after_frames = 0;
  uint64_t die_after_checkpoints = 0;
  uint64_t worker0_die_after_frames = 0;
};

class FleetServer {
 public:
  explicit FleetServer(const FleetConfig& config);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Binds and listens. After this, port() is the live port.
  Status Start();
  uint16_t port() const { return port_; }

  /// Supervises the workers until every slice of the universe has run its
  /// budget (batch) or the duration budget is consumed, then BYEs all
  /// peers, kills and reaps local children, and returns the aggregated
  /// result (same shape as ShardedCampaign::Run). Local mode forks from
  /// the calling thread, so no other thread should be running then (a
  /// child inherits only the caller, and any lock another thread held).
  fuzz::CampaignResult Run();

  size_t peers_seen() const { return peers_seen_; }
  size_t disconnects() const { return disconnects_; }
  /// Slices requeued from dead workers onto survivors.
  size_t reassigned_slices() const { return reassigned_slices_; }
  /// Malformed frames skipped (torn or garbage lines, bad payloads).
  size_t protocol_errors() const;
  size_t checkpoints_written() const { return checkpoints_written_; }
  size_t fleet_covered_sites() const { return covered_keys_.size(); }
  /// In-flight iterations bumped past after repeated deaths.
  size_t crash_skips() const { return crash_skips_; }
  /// Local children forked to replace dead ones.
  size_t respawns() const { return respawns_; }
  /// In-flight reproducers persisted for dead workers.
  size_t crash_reproducers_persisted() const { return inflight_persisted_; }
  /// Live port of the status endpoint (0 unless serve_status).
  uint16_t status_port() const { return status_.port(); }
  /// HTTP requests the status endpoint has answered.
  size_t status_requests_served() const { return status_.requests_served(); }

  /// Merged fleet corpus; null unless corpus mode. Valid after Run().
  corpus::Corpus* merged_corpus() { return corpus_.get(); }
  /// The Figure-8 curve sampled from COV frames. Valid after Run().
  const fleet::CurveRecorder& curve() const { return curve_; }

  /// Fleet-wide telemetry: restored baseline + retired incarnations +
  /// live peers' latest COV metrics + fleet.* instruments.
  obs::MetricsSnapshot FleetMetricsSnapshot() const;

 private:
  struct Assignment;
  struct Peer;

  void BuildInitialQueue();
  /// The peer's assignment mark for the frame's (dialect, slice) when the
  /// peer holds that slice and it has a next iteration; null otherwise.
  uint64_t* NextIterationMark(Peer* peer, const fleet::Frame& frame);
  void HandleFrame(Peer* peer, const fleet::Frame& frame);
  void HandleDisconnect(Peer* peer);
  void PersistInflight(const Peer& peer);
  void TryAssign();
  void BroadcastEntry(const std::vector<uint8_t>& payload, const Peer* from);
  void SeedPeerCorpus(Peer* peer);
  void AddCurveSample();
  fleet::CheckpointState CampaignIdentity() const;
  fleet::CheckpointState GatherCheckpoint() const;
  void MaybeCheckpoint(bool force);
  /// Status tick: stale-worker detection, the stderr status line, and the
  /// --metrics-out rewrite (own clock with --metrics-every).
  void MaybeStatus(bool force);
  uint64_t IterationTarget(uint64_t slice) const;
  /// Local mode: forks child slot `index`, reaps dead ones, respawns
  /// while work is pending, and kills + reaps them all at the end.
  void SpawnChild(size_t index, uint64_t die_after_frames);
  void SuperviseChildren();
  void KillChildren();
  /// Status-endpoint route table: path -> JSON body ("" = 404).
  std::string HandleStatusRoute(const std::string& path) const;
  std::string MetricsJson() const;
  std::string FleetJson() const;
  std::string BugsJson() const;

  FleetConfig config_;
  std::vector<engine::Dialect> dialects_;
  size_t total_slices_ = 1;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  double t0_ = 0.0;

  std::deque<std::unique_ptr<Assignment>> pending_;
  std::vector<std::unique_ptr<Peer>> peers_;
  size_t next_worker_index_ = 0;
  /// Local children by slot (-1 = dead or not yet forked).
  std::vector<pid_t> children_;

  runtime::Aggregator aggregator_;
  std::unique_ptr<corpus::Corpus> corpus_;
  std::set<uint64_t> covered_keys_;
  fleet::CurveRecorder curve_;
  /// Server-wide completed high-water marks per (dialect value, global
  /// slice) — the checkpoint's progress section; each accepted
  /// SLICEPROGRESS moves one, with its assignment's mark.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> completed_;

  StatusEndpoint status_;

  size_t peers_seen_ = 0;
  size_t disconnects_ = 0;
  size_t reassigned_slices_ = 0;
  size_t protocol_errors_ = 0;
  size_t checkpoints_written_ = 0;
  size_t version_skews_ = 0;
  size_t crash_skips_ = 0;
  size_t respawns_ = 0;
  size_t inflight_persisted_ = 0;
  uint64_t frames_handled_ = 0;  ///< valid frames, for the fault seam
  uint64_t stale_intervals_ = 0;
  double last_checkpoint_ = 0.0;
  double last_status_ = 0.0;
  double last_metrics_ = 0.0;
  obs::MetricsSnapshot base_metrics_;  ///< checkpoint-restored baseline
  obs::MetricsSnapshot dead_metrics_;  ///< retired incarnations
};

}  // namespace spatter::net

#endif  // SPATTER_NET_FLEET_SERVER_H_
