#include "net/fleet_server.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/fsio.h"
#include "corpus/codec.h"
#include "engine/dialect.h"
#include "faults/fault.h"
#include "fleet/wire.h"
#include "fuzz/transfer.h"
#include "net/fleet_client.h"
#include "net/socket.h"
#include "obs/trace.h"

namespace spatter::net {

namespace {

using fleet::CheckpointState;
using fleet::Frame;
using fleet::FrameType;
using fuzz::Campaign;
using fuzz::CampaignResult;

/// Duration mode: seconds past the deadline before workers still holding
/// an assignment are dropped (a wedged worker must not hang the campaign).
constexpr double kStragglerGraceSeconds = 30.0;
/// Consecutive deaths of one assignment before its in-flight iteration is
/// assumed to be a deterministic killer and skipped.
constexpr size_t kMaxDeathsPerAssignment = 3;
/// Local mode: respawns allowed per child slot (caps pathological churn).
constexpr size_t kMaxRespawnsPerChild = 8;

/// "<kind>-w<worker>-<dialect>-i<iteration><ext>": a dead worker's
/// in-flight reproducer ("inflight", ".sptc") or the flight-recorder dump
/// next to it ("flight", ".trace.jsonl").
std::string CrashFileName(const char* kind, size_t worker,
                          engine::Dialect dialect, uint64_t iteration,
                          const char* ext) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s-w%zu-%s-i%" PRIu64 "%s", kind, worker,
                engine::DialectName(dialect), iteration, ext);
  return buf;
}

/// Rebuilds pure-generate iteration `iteration`'s database with tracing
/// on (sampling 1, the recorder's state restored after) and puts that
/// iteration's events alone in `events`, so a tracing supervisor's own
/// history stays out. A SIGKILLed worker sends nothing, but its input and
/// the narrative of building it are a pure function of (seed, iteration).
fuzz::DatabaseSpec RebuildTraced(const fuzz::CampaignConfig& config,
                                 uint64_t iteration,
                                 obs::TraceSnapshot* events) {
  obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
  const bool was_enabled = tracer.enabled();
  const uint64_t was_sample = tracer.sample_every();
  tracer.Enable(1);
  tracer.BeginIteration(iteration);
  fuzz::DatabaseSpec sdb = Campaign::GenerateDatabaseFor(
      config, static_cast<size_t>(iteration));
  tracer.EndIteration();
  obs::TraceSnapshot all = tracer.Snapshot();
  if (was_enabled) {
    tracer.Enable(was_sample);
  } else {
    tracer.Disable();
  }
  for (auto& ev : all.events) {
    if (ev.iteration == iteration) events->events.push_back(std::move(ev));
  }
  return sdb;
}

}  // namespace

/// One unit of work: a batch of global slices (contiguous on first
/// assignment, arbitrary after requeues) with per-(dialect, slice)
/// completed high-water marks, moved by each accepted SLICEPROGRESS, that
/// the next worker resumes from.
struct FleetServer::Assignment {
  std::vector<uint64_t> slices;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> completed;
  size_t deaths = 0;
};

struct FleetServer::Peer {
  explicit Peer(int fd) : channel(fd) {}

  FrameChannel channel;
  bool helloed = false;  ///< NETHELLO received and version-validated
  bool got_done = false;
  bool closed = false;  ///< fully handled; reaped by the main loop
  size_t index = 0;     ///< worker index sent in ASSIGN
  std::unique_ptr<Assignment> assignment;
  /// (dialect, slice) pairs whose next iteration, at the assignment's
  /// mark, an INFLIGHT announced and no SLICEPROGRESS completed yet.
  std::set<std::pair<uint64_t, uint64_t>> inflight;
  /// What this peer's SLICEPROGRESS frames credited, for /fleet.
  uint64_t credited_iterations = 0;
  uint64_t credited_queries = 0;
  /// The metrics snapshot of this peer's latest COV.
  obs::MetricsSnapshot latest_metrics;
  /// Wall clock of the accept, for the /fleet per-worker rates.
  double connected_at = 0.0;
  /// Wall clock of the last valid frame, for stale-worker detection; one
  /// warning per staleness episode, re-armed by the next frame.
  double last_frame_at = 0.0;
  bool stale_warned = false;
};

FleetServer::FleetServer(const FleetConfig& config) : config_(config) {
  dialects_ = config.dialects;
  if (dialects_.empty()) dialects_.push_back(config.base.dialect);
  config_.processes = std::max<size_t>(1, config_.processes);
  config_.jobs = std::max<size_t>(1, config_.jobs);
  total_slices_ = config_.processes * config_.jobs;
}

FleetServer::~FleetServer() {
  KillChildren();
  for (const auto& peer : peers_) {
    if (peer) peer->channel.Close();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status FleetServer::Start() {
  auto fd = config_.serve ? Listen(config_.port)
                          : Listen(0, /*loopback_only=*/true);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  auto port = LocalPort(listen_fd_);
  if (!port.ok()) return port.status();
  port_ = port.value();
  if (config_.serve_status) {
    const Status status = status_.Start(config_.status_port);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

size_t FleetServer::protocol_errors() const {
  // Retired peers were folded in by HandleDisconnect; open ones still
  // hold their rejected-line count in the channel.
  size_t errors = protocol_errors_;
  for (const auto& peer : peers_) {
    if (peer && !peer->closed) errors += peer->channel.rejected();
  }
  return errors;
}

std::string FleetServer::HandleStatusRoute(const std::string& path) const {
  if (path == "/metrics") return MetricsJson();
  if (path == "/fleet") return FleetJson();
  if (path == "/bugs") return BugsJson();
  return std::string();  // 404
}

std::string FleetServer::MetricsJson() const {
  obs::MetricsJsonInfo info;
  for (const engine::Dialect d : dialects_) {
    if (!info.label.empty()) info.label += ",";
    info.label += engine::DialectCliToken(d);
  }
  info.seed = config_.base.seed;
  info.fleet = config_.processes;
  info.jobs = config_.jobs;
  info.elapsed_seconds = Campaign::NowSeconds() - t0_;
  return obs::MetricsToJson(FleetMetricsSnapshot(), info);
}

std::string FleetServer::FleetJson() const {
  const double now = Campaign::NowSeconds();
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":\"spatter-fleet-v1\",\"elapsed_seconds\":%.3f,"
                "\"peers_seen\":%zu,\"disconnects\":%zu,"
                "\"reassigned_slices\":%zu,\"crash_skips\":%zu,"
                "\"respawns\":%zu,\"version_skews\":%zu,"
                "\"pending_assignments\":%zu,\"workers\":[",
                now - t0_, peers_seen_, disconnects_, reassigned_slices_,
                crash_skips_, respawns_, version_skews_, pending_.size());
  std::string out = buf;
  bool first = true;
  for (const auto& peer : peers_) {
    if (!peer || peer->closed) continue;
    const double up = now - peer->connected_at;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"index\":%zu,\"active\":%s,\"iterations\":%" PRIu64
                  ",\"queries\":%" PRIu64 ",\"iters_per_sec\":%.2f}",
                  first ? "" : ",", peer->index,
                  peer->assignment ? "true" : "false",
                  peer->credited_iterations, peer->credited_queries,
                  up > 0 ? static_cast<double>(peer->credited_iterations) / up
                         : 0.0);
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

std::string FleetServer::BugsJson() const {
  const auto& bugs = aggregator_.current().unique_bugs;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":\"spatter-bugs-v1\",\"count\":%zu,\"bugs\":[",
                bugs.size());
  std::string out = buf;
  bool first = true;
  for (const auto& [id, d] : bugs) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"fault\":\"%s\",\"oracle\":\"%s\",\"iteration\":%zu,"
                  "\"query\":%zu,\"crash\":%s}",
                  first ? "" : ",", faults::GetFaultInfo(id).name,
                  fuzz::OracleKindName(d.oracle), d.iteration, d.query_index,
                  d.is_crash ? "true" : "false");
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

uint64_t FleetServer::IterationTarget(uint64_t slice) const {
  // Batch mode: slice s runs iterations s, s+T, s+2T, ... below the
  // budget — (budget - 1 - s) / T + 1 of them when s is in range.
  const uint64_t budget = config_.base.iterations;
  if (slice >= budget) return 0;
  return (budget - 1 - slice) / total_slices_ + 1;
}

void FleetServer::BuildInitialQueue() {
  for (size_t offset = 0; offset < total_slices_; offset += config_.jobs) {
    auto assignment = std::make_unique<Assignment>();
    bool work_remains = config_.duration_seconds > 0;
    for (size_t s = offset; s < offset + config_.jobs; ++s) {
      assignment->slices.push_back(s);
      for (const engine::Dialect dialect : dialects_) {
        const auto key = std::make_pair(static_cast<uint64_t>(dialect),
                                        static_cast<uint64_t>(s));
        const auto it = completed_.find(key);
        const uint64_t mark = it == completed_.end() ? 0 : it->second;
        assignment->completed[key] = mark;
        if (config_.duration_seconds <= 0 && mark < IterationTarget(s)) {
          work_remains = true;
        }
      }
    }
    // A resumed-finished window queues nothing: resume is idempotent.
    if (work_remains) pending_.push_back(std::move(assignment));
  }
}

CheckpointState FleetServer::CampaignIdentity() const {
  CheckpointState state;
  state.base = config_.base;
  state.dialects = dialects_;
  state.total_slices = total_slices_;
  state.duration_seconds = config_.duration_seconds;
  state.elapsed_seconds = Campaign::NowSeconds() - t0_;
  return state;
}

void FleetServer::TryAssign() {
  for (const auto& peer : peers_) {
    if (pending_.empty()) return;
    if (!peer || peer->closed || !peer->helloed || peer->assignment ||
        peer->got_done) {
      continue;
    }
    std::unique_ptr<Assignment> assignment = std::move(pending_.front());
    pending_.pop_front();

    CheckpointState state = CampaignIdentity();
    state.completed = assignment->completed;

    const std::string doc = fleet::EncodeCheckpoint(state);
    Frame assign;
    assign.type = FrameType::kAssign;
    assign.worker = next_worker_index_++;
    assign.payload.assign(doc.begin(), doc.end());
    peer->index = assign.worker;
    if (!peer->channel.WriteFrame(assign)) {
      pending_.push_front(std::move(assignment));
      HandleDisconnect(peer.get());
      continue;
    }
    peer->assignment = std::move(assignment);
    // Workers have no corpus directory: everything the fleet has merged
    // so far arrives as streamed ENTRY frames (signature dedup on the
    // worker side absorbs overlap with earlier assignments).
    SeedPeerCorpus(peer.get());
  }
}

void FleetServer::SeedPeerCorpus(Peer* peer) {
  if (!corpus_) return;
  for (const corpus::TestCaseRecord& record : corpus_->Entries()) {
    auto encoded = corpus::TestCaseCodec::Encode(record);
    if (!encoded.ok()) continue;
    Frame entry;
    entry.type = FrameType::kEntry;
    entry.payload = encoded.Take();
    if (!peer->channel.WriteFrame(entry)) return;
  }
}

void FleetServer::BroadcastEntry(const std::vector<uint8_t>& payload,
                                 const Peer* from) {
  Frame frame;
  frame.type = FrameType::kEntry;
  frame.payload = payload;
  for (const auto& peer : peers_) {
    if (!peer || peer.get() == from || peer->closed || !peer->helloed ||
        !peer->assignment) {
      continue;
    }
    peer->channel.WriteFrame(frame);
  }
}

void FleetServer::AddCurveSample() {
  const CampaignResult& credited = aggregator_.current();
  curve_.Add(Campaign::NowSeconds() - t0_, covered_keys_.size(),
             credited.unique_bugs.size(), credited.iterations_run);
}

uint64_t* FleetServer::NextIterationMark(Peer* peer, const Frame& frame) {
  if (!peer->assignment) return nullptr;
  auto& marks = peer->assignment->completed;
  const auto it = marks.find({frame.dialect, frame.slice});
  if (it == marks.end()) return nullptr;
  // A batch slice at its budget has no next iteration.
  if (config_.duration_seconds <= 0 &&
      it->second >= IterationTarget(frame.slice)) {
    return nullptr;
  }
  return &it->second;
}

void FleetServer::HandleFrame(Peer* peer, const Frame& frame) {
  frames_handled_++;
  peer->last_frame_at = Campaign::NowSeconds();
  peer->stale_warned = false;
  switch (frame.type) {
    case FrameType::kNetHello: {
      if (frame.proto != fleet::kNetProtocolVersion) {
        // Version skew is a clean rejection, not a guess: BYE, close,
        // and the peer exits with a diagnostic instead of mis-decoding
        // ASSIGN payloads.
        version_skews_++;
        std::fprintf(stderr,
                     "fleet: rejecting peer with protocol %" PRIu64
                     " (want %" PRIu64 ")\n",
                     frame.proto, fleet::kNetProtocolVersion);
        Frame bye;
        bye.type = FrameType::kBye;
        peer->channel.WriteFrame(bye);
        HandleDisconnect(peer);
        break;
      }
      peer->helloed = true;
      break;
    }
    case FrameType::kInflight:
      // A peer may announce only the next iteration of a slice it holds.
      if (NextIterationMark(peer, frame) == nullptr) {
        protocol_errors_++;
        break;
      }
      peer->inflight.insert({frame.dialect, frame.slice});
      break;
    case FrameType::kSliceProgress: {
      // The iteration's last frame, so its commit point: its work is
      // credited here and nowhere else, and only for the next iteration of
      // a slice the peer holds, so a peer cannot credit phantom work or
      // move marks past iterations that never ran. The marks advance with
      // it, so a checkpoint gathered at ANY instant reflects everything
      // already merged, and a requeue resumes from them.
      uint64_t* mark = NextIterationMark(peer, frame);
      if (mark == nullptr || frame.completed != *mark + 1) {
        protocol_errors_++;
        break;
      }
      *mark = frame.completed;
      completed_[{frame.dialect, frame.slice}] = frame.completed;
      peer->inflight.erase({frame.dialect, frame.slice});
      CampaignResult iteration;
      iteration.iterations_run = 1;
      iteration.queries_run = frame.queries;
      iteration.checks_run = frame.checks;
      iteration.findings = frame.findings;
      iteration.busy_seconds = frame.busy_seconds;
      iteration.engine_seconds = frame.engine_seconds;
      aggregator_.Merge(std::move(iteration));
      peer->credited_iterations++;
      peer->credited_queries += frame.queries;
      break;
    }
    case FrameType::kCov: {
      for (uint64_t key : frame.site_keys) covered_keys_.insert(key);
      // Cumulative-since-start per incarnation: replace, don't merge.
      peer->latest_metrics = frame.metrics;
      AddCurveSample();
      break;
    }
    case FrameType::kEntry: {
      if (!corpus_) break;  // not in corpus mode: ignore strays
      auto record = corpus::TestCaseCodec::Decode(frame.payload);
      if (!record.ok()) {
        protocol_errors_++;
        break;
      }
      // Restore (signature dedup only): the worker's Admit already judged
      // coverage in its own context. A fresh signature is rebroadcast so
      // every other worker can fold it into its shard corpora.
      if (corpus_->Restore(record.Take())) {
        BroadcastEntry(frame.payload, peer);
      }
      break;
    }
    case FrameType::kBug: {
      // One of an iteration's unique bugs, merged now by the rule that
      // merges an in-process iteration, so a bug of an iteration that never
      // completes is kept; its iteration's SLICEPROGRESS counts findings.
      auto d = fleet::BugFrameToDiscrepancy(frame);
      if (!d.ok()) {
        protocol_errors_++;
        break;
      }
      aggregator_.MergeUniqueBug(static_cast<faults::FaultId>(frame.fault),
                                 d.Take());
      break;
    }
    case FrameType::kDone:
      peer->got_done = true;
      // One assignment per connection: DONE completes it; the client
      // closes and reconnects for more work.
      peer->assignment.reset();
      break;
    case FrameType::kAssign:
    case FrameType::kBye:
      break;  // supervisor-to-worker frames; a peer echoing them is harmless
  }
  if (config_.die_after_frames > 0 &&
      frames_handled_ == config_.die_after_frames) {
    // Crash-equivalence seam: die like an OOM-killed supervisor at a
    // reproducible point in the merged stream (after this frame took
    // effect but before any later checkpoint could persist it).
    ::kill(::getpid(), SIGKILL);
  }
}

void FleetServer::PersistInflight(const Peer& peer) {
  if (config_.crash_dir.empty() || peer.inflight.empty()) return;
  if (config_.base.corpus.enabled) {
    // Mutants depend on the dead worker's corpus history; (seed,
    // iteration) cannot reconstruct them. Honest failure beats a wrong
    // reproducer.
    std::fprintf(stderr,
                 "fleet: worker %zu died in corpus mode; in-flight case "
                 "not reconstructable\n",
                 peer.index);
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.crash_dir, ec);
  const std::filesystem::path dir(config_.crash_dir);
  for (const auto& key : peer.inflight) {
    const uint64_t iteration =
        key.second + peer.assignment->completed.at(key) * total_slices_;
    const auto dialect = static_cast<engine::Dialect>(key.first);
    fuzz::CampaignConfig cfg = config_.base;
    cfg.dialect = dialect;
    // A reconstructed in-flight database is input, not an oracle finding:
    // a generation finding with no query. Its one rebuild also records
    // the flight-recorder dump that goes next to the reproducer.
    fuzz::Discrepancy d;
    d.iteration = iteration;
    d.oracle = fuzz::OracleKind::kGeneration;
    d.dialect = dialect;
    obs::TraceSnapshot flight;
    d.sdb1 = RebuildTraced(cfg, iteration, &flight);
    auto encoded =
        corpus::TestCaseCodec::Encode(fuzz::ReproducerOf(d, cfg.seed));
    if (encoded.ok()) {
      const std::filesystem::path path =
          dir / CrashFileName("inflight", peer.index, dialect, iteration,
                              ".sptc");
      if (AtomicWriteFile(path.string(), encoded.value().data(),
                          encoded.value().size())
              .ok()) {
        inflight_persisted_++;
      }
    }
    const std::string flight_path =
        (dir / CrashFileName("flight", peer.index, dialect, iteration,
                             ".trace.jsonl"))
            .string();
    const Status written = obs::WriteTraceFile(flight_path, flight);
    std::fprintf(stderr, "fleet: flight record: %s\n",
                 written.ok() ? flight_path.c_str()
                              : written.ToString().c_str());
  }
}

void FleetServer::HandleDisconnect(Peer* peer) {
  if (peer->closed) return;
  peer->closed = true;
  peer->channel.Close();
  disconnects_++;
  protocol_errors_ += peer->channel.rejected();
  // The incarnation is over: retire its cumulative metrics reading.
  dead_metrics_.Merge(peer->latest_metrics);
  peer->latest_metrics = obs::MetricsSnapshot{};
  if (peer->got_done || !peer->assignment) return;

  // Died mid-assignment. Its SLICEPROGRESS frames already credited every
  // iteration it completed and moved the assignment's marks, and its BUG
  // frames were merged live, so no bug is lost. Persist the in-flight
  // iterations, then requeue the unfinished slices at the marks: an
  // iteration never credited is RE-RUN by whoever picks the work up and
  // credited once, and its re-reported bugs dedup in the aggregator.
  Assignment* assignment = peer->assignment.get();
  PersistInflight(*peer);

  assignment->deaths++;
  if (assignment->deaths >= kMaxDeathsPerAssignment) {
    // Every incarnation died at the same point: assume a deterministic
    // killer and skip past the in-flight iteration — liveness over that
    // one case (its reproducer is already on disk).
    for (const auto& key : peer->inflight) {
      uint64_t& mark = assignment->completed.at(key);
      std::fprintf(stderr,
                   "fleet: assignment died %zu times; skipping iteration "
                   "%" PRIu64 " of slice %" PRIu64 "\n",
                   assignment->deaths, key.second + mark * total_slices_,
                   key.second);
      mark++;
      crash_skips_++;
    }
    assignment->deaths = 0;
  }

  bool work_remains = false;
  if (config_.duration_seconds > 0) {
    work_remains = Campaign::NowSeconds() - t0_ < config_.duration_seconds;
  } else {
    for (const auto& [key, mark] : assignment->completed) {
      if (mark < IterationTarget(key.second)) {
        work_remains = true;
        break;
      }
    }
  }
  if (work_remains) {
    reassigned_slices_ += assignment->slices.size();
    std::fprintf(stderr,
                 "fleet: worker %zu died mid-assignment; requeueing %zu "
                 "slice(s) at their progress marks\n",
                 peer->index, assignment->slices.size());
    pending_.push_front(std::move(peer->assignment));
  } else {
    peer->assignment.reset();
  }
}

obs::MetricsSnapshot FleetServer::FleetMetricsSnapshot() const {
  obs::MetricsSnapshot snap = base_metrics_;
  snap.Merge(dead_metrics_);
  size_t active = 0;
  for (const auto& peer : peers_) {
    if (!peer || peer->closed) continue;
    if (peer->assignment) active++;
    snap.Merge(peer->latest_metrics);
  }
  // Supervisor-synthesized instruments. Counters ADD onto whatever a
  // resumed baseline carried (they are this process's deltas); gauges are
  // instantaneous readings and overwrite.
  snap.counters["fleet.disconnects"] += disconnects_;
  snap.counters["fleet.reassigned_slices"] += reassigned_slices_;
  snap.counters["fleet.crash_skips"] += crash_skips_;
  snap.counters["fleet.respawns"] += respawns_;
  snap.counters["fleet.version_skews"] += version_skews_;
  snap.counters["fleet.protocol_errors"] += protocol_errors();
  snap.counters["fleet.stale_intervals"] += stale_intervals_;
  snap.counters["fleet.checkpoints_written"] += checkpoints_written_;
  snap.gauges["fleet.peers"] = static_cast<int64_t>(peers_seen_);
  snap.gauges["fleet.workers_live"] = static_cast<int64_t>(active);
  snap.gauges["fleet.covered_sites"] =
      static_cast<int64_t>(covered_keys_.size());
  snap.gauges["fleet.unique_bugs"] =
      static_cast<int64_t>(aggregator_.current().unique_bugs.size());
  return snap;
}

void FleetServer::MaybeStatus(bool force) {
  const bool status_on = config_.status_interval_seconds > 0;
  const bool metrics_on = !config_.metrics_out.empty();
  if (!status_on && !metrics_on) return;
  const double now = Campaign::NowSeconds();
  const bool status_due =
      status_on &&
      (force || now - last_status_ >= config_.status_interval_seconds);
  // --metrics-every puts the metrics rewrite on its own clock; without it
  // the write rides the status tick (plus the final forced write).
  const bool metrics_due =
      metrics_on &&
      (force || (config_.metrics_interval_seconds > 0
                     ? now - last_metrics_ >= config_.metrics_interval_seconds
                     : status_due));
  if (metrics_due) {
    last_metrics_ = now;
    const Status written = AtomicWriteFile(config_.metrics_out, MetricsJson());
    if (!written.ok()) {
      std::fprintf(stderr, "fleet: metrics-out: %s\n",
                   written.ToString().c_str());
    }
  }
  if (!status_due) return;
  last_status_ = now;

  // Stale-worker detection: a worker holding an assignment but silent for
  // 3x the status interval is flagged — warned once per episode (its next
  // frame re-arms the warning), counted once per stale tick.
  size_t open = 0;
  size_t active = 0;
  size_t stale = 0;
  for (const auto& peer : peers_) {
    if (!peer || peer->closed) continue;
    open++;
    if (!peer->assignment) continue;
    active++;
    if (now - peer->last_frame_at <= 3 * config_.status_interval_seconds) {
      continue;
    }
    stale++;
    if (!peer->stale_warned) {
      std::fprintf(stderr,
                   "fleet: warning: worker %zu stale — no frame for %.1fs "
                   "(> 3x the %.1fs status interval)\n",
                   peer->index, now - peer->last_frame_at,
                   config_.status_interval_seconds);
      peer->stale_warned = true;
    }
  }
  if (stale > 0) stale_intervals_++;

  const obs::MetricsSnapshot snap = FleetMetricsSnapshot();
  const uint64_t iterations = aggregator_.current().iterations_run;
  const double elapsed = now - t0_;
  const uint64_t queries = snap.CounterOr("campaign.queries");
  const obs::HistogramData* stmt = snap.FindHistogram("engine.statement");
  const double engine_us_per_query =
      (stmt != nullptr && queries > 0)
          ? static_cast<double>(stmt->sum_ns) * 1e-3 /
                static_cast<double>(queries)
          : 0.0;
  std::string oracle_p99;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("oracle.", 0) != 0) continue;
    const size_t suffix = name.rfind(".check");
    if (suffix == std::string::npos || suffix + 6 != name.size()) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s=%.0fus",
                  oracle_p99.empty() ? "" : " ",
                  name.substr(7, suffix - 7).c_str(),
                  h.QuantileSeconds(0.99) * 1e6);
    oracle_p99 += buf;
  }
  // Stderr, never stdout: stdout carries the bug-set report that CI
  // diffs byte-for-byte with telemetry on and off.
  std::fprintf(stderr,
               "fleet: t=%.1fs iters=%" PRIu64
               " (%.1f/s) engine=%.0fus/q oracle-p99[%s] bugs=%zu "
               "corpus=%zu workers=%zu/%zu%s\n",
               elapsed, iterations,
               elapsed > 0 ? static_cast<double>(iterations) / elapsed : 0.0,
               engine_us_per_query, oracle_p99.c_str(),
               aggregator_.current().unique_bugs.size(),
               corpus_ ? corpus_->size() : static_cast<size_t>(0), active,
               open, stale > 0 ? " [stale]" : "");
}

CheckpointState FleetServer::GatherCheckpoint() const {
  CheckpointState state = CampaignIdentity();
  state.completed = completed_;
  const CampaignResult& acc = aggregator_.current();
  state.iterations_run = acc.iterations_run;
  state.queries_run = acc.queries_run;
  state.checks_run = acc.checks_run;
  state.findings = acc.findings;
  state.busy_seconds = acc.busy_seconds;
  state.engine_seconds = acc.engine_seconds;
  for (const auto& [id, d] : acc.unique_bugs) {
    state.unique_bugs.emplace_back(id, d);
  }
  state.covered_sites = covered_keys_;
  state.curve = curve_.samples();
  state.metrics = FleetMetricsSnapshot();

  if (corpus_ && !config_.corpus_dir.empty()) {
    state.corpus_dir = config_.corpus_dir;
    for (const corpus::TestCaseRecord& record : corpus_->Entries()) {
      state.corpus_signatures.push_back(
          corpus::TestCaseCodec::SiteSignature(record.sites));
    }
  }
  return state;
}

void FleetServer::MaybeCheckpoint(bool force) {
  if (config_.checkpoint_dir.empty()) return;
  const double now = Campaign::NowSeconds();
  if (!force &&
      now - last_checkpoint_ < config_.checkpoint_interval_seconds) {
    return;
  }
  last_checkpoint_ = now;
  if (corpus_ && !config_.corpus_dir.empty()) {
    // The checkpoint's corpus manifest must describe what is actually on
    // disk, so the corpus is persisted first (entry writes are atomic
    // too: a kill inside this save tears nothing).
    const Status saved = corpus_->SaveTo(config_.corpus_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "fleet: checkpoint corpus save: %s\n",
                   saved.ToString().c_str());
    }
  }
  const Status written =
      fleet::WriteCheckpoint(config_.checkpoint_dir, GatherCheckpoint());
  if (!written.ok()) {
    std::fprintf(stderr, "fleet: checkpoint: %s\n",
                 written.ToString().c_str());
    return;
  }
  checkpoints_written_++;
  obs::TraceRecorder::Instance().Emit("checkpoint.write",
                                      checkpoints_written_);
  if (config_.die_after_checkpoints > 0 &&
      checkpoints_written_ == config_.die_after_checkpoints) {
    ::kill(::getpid(), SIGKILL);  // crash-equivalence seam, see above
  }
}

void FleetServer::SpawnChild(size_t index, uint64_t die_after_frames) {
  // The child inherits stdio buffers and never flushes them (_exit).
  std::fflush(nullptr);
  const pid_t supervisor = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "fleet: fork() failed: %s\n", std::strerror(errno));
    return;
  }
  if (pid == 0) {
    // Die with the supervisor; the getppid check closes the race where it
    // died before the prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != supervisor) ::_exit(1);
    // Drop every inherited descriptor above stdio: a copy of the listener,
    // a sibling's connection, or a status-endpoint client would keep that
    // socket open after the supervisor closes it.
    ::close_range(3, ~0U, 0);
    FleetClientConfig client;
    client.port = port_;
    client.cov_interval_seconds = config_.cov_interval_seconds;
    client.die_after_frames = die_after_frames;
    ::_exit(RunFleetClient(client));
  }
  children_[index] = pid;
}

void FleetServer::SuperviseChildren() {
  for (pid_t& child : children_) {
    int status = 0;
    if (child <= 0 || ::waitpid(child, &status, WNOHANG) != child) continue;
    // Every exit before the campaign ends is abnormal (a clean child
    // exits only on BYE); its connection's EOF requeues the work.
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "fleet: worker process %d killed by signal %d\n",
                   static_cast<int>(child), WTERMSIG(status));
    } else {
      std::fprintf(stderr, "fleet: worker process %d exited with status %d\n",
                   static_cast<int>(child), WEXITSTATUS(status));
    }
    child = -1;
  }
  if (pending_.empty()) return;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i] > 0 ||
        respawns_ >= kMaxRespawnsPerChild * children_.size()) {
      continue;
    }
    respawns_++;
    SpawnChild(i, /*die_after_frames=*/0);  // the seam fires once
  }
}

void FleetServer::KillChildren() {
  for (pid_t& child : children_) {
    if (child <= 0) continue;
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    child = -1;
  }
}

CampaignResult FleetServer::Run() {
  // A worker can die between our poll and our write to it; that must be
  // an EPIPE we handle, not a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  t0_ = Campaign::NowSeconds();
  last_checkpoint_ = last_status_ = last_metrics_ = t0_;

  if (config_.resume) {
    const CheckpointState& resume = *config_.resume;
    // Shift the campaign clock back by the consumed budget: the duration
    // deadline, straggler drop, curve samples, and the next checkpoint's
    // elapsed all continue from where the dead run stopped.
    t0_ -= resume.elapsed_seconds;
    CampaignResult restored;
    restored.iterations_run = resume.iterations_run;
    restored.queries_run = resume.queries_run;
    restored.checks_run = resume.checks_run;
    restored.findings = resume.findings;
    restored.busy_seconds = resume.busy_seconds;
    restored.engine_seconds = resume.engine_seconds;
    aggregator_.Merge(std::move(restored));
    for (const auto& [id, d] : resume.unique_bugs) {
      aggregator_.MergeUniqueBug(id, d);
    }
    covered_keys_ = resume.covered_sites;
    curve_.Preload(resume.curve);
    base_metrics_ = resume.metrics;
    completed_ = resume.completed;
  }
  if (config_.base.corpus.enabled) {
    corpus_ = std::make_unique<corpus::Corpus>(config_.base.corpus);
    // Workers never save; the supervisor owns persistence, so it must
    // hold the seed entries too or SaveTo would delete their files.
    if (!config_.corpus_dir.empty()) {
      auto loaded = corpus_->LoadFrom(config_.corpus_dir);
      if (!loaded.ok()) {
        std::fprintf(stderr, "fleet: corpus load: %s\n",
                     loaded.status().ToString().c_str());
      }
    }
    if (config_.resume && config_.resume->base.corpus.enabled) {
      // Verify the reloaded directory against the checkpoint's manifest:
      // a pruned or swapped corpus dir silently changes the resumed
      // universe, which the operator should know about (it is legal —
      // corpus-mode determinism is per-jobs-count anyway — just loud).
      std::set<uint64_t> on_disk;
      for (const corpus::TestCaseRecord& record : corpus_->Entries()) {
        on_disk.insert(corpus::TestCaseCodec::SiteSignature(record.sites));
      }
      const std::vector<uint64_t>& manifest =
          config_.resume->corpus_signatures;
      size_t missing = 0;
      for (uint64_t sig : manifest) {
        if (on_disk.find(sig) == on_disk.end()) missing++;
      }
      if (missing > 0 || on_disk.size() != manifest.size()) {
        std::fprintf(stderr,
                     "fleet: resume corpus mismatch: manifest lists %zu "
                     "entries, dir has %zu (%zu manifest entries missing)\n",
                     manifest.size(), on_disk.size(), missing);
      }
    }
  }
  BuildInitialQueue();
  if (!config_.serve && !pending_.empty()) {
    children_.assign(config_.processes, -1);
    for (size_t i = 0; i < children_.size(); ++i) {
      SpawnChild(i, i == 0 ? config_.worker0_die_after_frames : 0);
    }
  }

  bool stragglers_dropped = false;
  while (true) {
    const double now = Campaign::NowSeconds();
    const bool deadline_passed = config_.duration_seconds > 0 &&
                                 now - t0_ >= config_.duration_seconds;
    // Duration budget consumed: unstarted work is simply not run.
    if (deadline_passed) pending_.clear();
    if (deadline_passed && !stragglers_dropped &&
        now - t0_ > config_.duration_seconds + kStragglerGraceSeconds) {
      for (const auto& peer : peers_) {
        if (!peer || peer->closed || !peer->assignment) continue;
        std::fprintf(stderr, "fleet: dropping straggler worker %zu\n",
                     peer->index);
        HandleDisconnect(peer.get());
      }
      stragglers_dropped = true;
    }
    const bool any_active =
        std::any_of(peers_.begin(), peers_.end(), [](const auto& p) {
          return p && !p->closed && p->assignment;
        });
    if (pending_.empty() && !any_active &&
        (config_.duration_seconds <= 0 || deadline_passed)) {
      break;
    }
    if (!children_.empty() && !pending_.empty() &&
        std::all_of(children_.begin(), children_.end(),
                    [](pid_t c) { return c <= 0; }) &&
        respawns_ >= kMaxRespawnsPerChild * children_.size()) {
      std::fprintf(stderr,
                   "fleet: every worker died and the respawn budget is "
                   "spent; finishing early\n");
      break;
    }

    std::vector<struct pollfd> pfds;
    std::vector<Peer*> pfd_peers;
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfd_peers.push_back(nullptr);
    for (const auto& peer : peers_) {
      if (peer && !peer->closed) {
        pfds.push_back({peer->channel.fd(), POLLIN, 0});
        pfd_peers.push_back(peer.get());
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0 && errno != EINTR) break;

    if ((pfds[0].revents & POLLIN) != 0) {
      int fd;
      while ((fd = AcceptOne(listen_fd_)) >= 0) {
        peers_.push_back(std::make_unique<Peer>(fd));
        peers_.back()->connected_at = Campaign::NowSeconds();
        peers_.back()->last_frame_at = peers_.back()->connected_at;
        peers_seen_++;
      }
    }
    for (size_t i = 1; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Peer* peer = pfd_peers[i];
      if (peer->closed) continue;
      std::vector<Frame> frames;
      const bool open = peer->channel.ReadFrames(0, &frames);
      for (const Frame& frame : frames) {
        if (peer->closed) break;  // a BYE'd skewed peer sends no more
        HandleFrame(peer, frame);
      }
      if (!open) HandleDisconnect(peer);
    }
    // Reap fully handled peers (keeps the poll set and broadcasts small).
    peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                                [](const auto& p) {
                                  return !p || (p->closed && !p->assignment);
                                }),
                 peers_.end());

    TryAssign();
    SuperviseChildren();
    MaybeCheckpoint(/*force=*/false);
    MaybeStatus(/*force=*/false);
    if (status_.started()) {
      status_.PollOnce(
          [this](const std::string& path) { return HandleStatusRoute(path); });
    }
  }

  AddCurveSample();
  // Final checkpoint with every slice at its budget: resuming a finished
  // campaign runs zero iterations and re-reports the same result
  // (resume is idempotent). Must happen before Finish() empties the
  // aggregator the gather reads from.
  MaybeCheckpoint(/*force=*/true);
  MaybeStatus(/*force=*/true);
  status_.Close();

  // Campaign over: BYE every peer — including idle ones still waiting for
  // an assignment — so remote clients exit cleanly instead of on
  // ECONNRESET. Local children are killed outright: one between
  // assignments would otherwise spend its reconnect budget knocking on a
  // closed listener.
  Frame bye;
  bye.type = FrameType::kBye;
  for (const auto& peer : peers_) {
    if (!peer || peer->closed) continue;
    peer->channel.WriteFrame(bye);
    peer->channel.Close();
  }
  KillChildren();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  CampaignResult result = aggregator_.Finish(Campaign::NowSeconds() - t0_);
  // Transfer only when the fleet actually fuzzes several dialects — a
  // single-dialect campaign would pay the replays and the corpus-cap
  // pressure without ever scheduling the transferred copies.
  if (corpus_ && dialects_.size() > 1) {
    const fuzz::TransferStats transfer = fuzz::CrossDialectCorpusTransfer(
        corpus_.get(), config_.base.enable_faults);
    if (transfer.admitted > 0) {
      std::fprintf(stderr,
                   "fleet: cross-dialect transfer admitted %zu of %zu "
                   "replays\n",
                   transfer.admitted, transfer.replays);
    }
  }
  return result;
}

}  // namespace spatter::net
