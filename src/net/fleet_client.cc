#include "net/fleet_client.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/coverage.h"
#include "corpus/codec.h"
#include "fleet/checkpoint.h"
#include "fleet/wire.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sharded_campaign.h"

namespace spatter::net {

namespace {

using fleet::CheckpointState;
using fleet::Frame;
using fleet::FrameType;
using fuzz::Campaign;

/// The runtime config of one assignment. The checkpoint identity block is
/// authoritative: a worker adopts the server's campaign wholesale, exactly
/// as `--resume` does. The progress entries enumerate every (dialect,
/// slice, completed) of the assignment — zero counts included — so they
/// are both the owned slice set and the resume marks, and the stride is
/// the fleet-wide slice count.
runtime::ShardedCampaignConfig AssignmentConfig(const CheckpointState& state) {
  runtime::ShardedCampaignConfig config;
  config.base = state.base;
  // Fresh admissions leave as ENTRY frames; seeds arrive as ENTRY frames.
  config.base.corpus.log_admissions = config.base.corpus.enabled;
  config.dialects = state.dialects;
  config.shards = state.total_slices;
  config.completed = state.completed;
  std::set<uint64_t> slices;
  for (const auto& [key, count] : state.completed) slices.insert(key.second);
  config.slices.assign(slices.begin(), slices.end());
  config.jobs = std::max<size_t>(1, config.slices.size());
  if (state.duration_seconds > 0) {
    config.duration_seconds =
        std::max(0.1, state.duration_seconds - state.elapsed_seconds);
  }
  // Transfer needs the fleet-wide corpus: the supervisor's job.
  config.cross_dialect_transfer = false;
  return config;
}

/// Runs one assignment on the in-process runtime, streaming it to the
/// supervisor through `channel` (frame order in wire.h): ShardedCampaign's
/// observer hooks carry the per-iteration duties. `backlog` holds
/// the frames that arrived behind ASSIGN in the handshake's reads. Slice
/// threads write concurrently under one mutex, so frames never
/// interleave; a reader thread collects ENTRY frames until the assignment
/// ends or the supervisor goes away.
void RunAssignment(const runtime::ShardedCampaignConfig& campaign_config,
                   const FleetClientConfig& config, FrameChannel* channel,
                   const std::vector<Frame>& backlog) {
  const uint64_t seed = campaign_config.base.seed;

  // Set by the reader on EOF and by a failed write: slices wind down
  // instead of fuzzing into a dead socket.
  std::atomic<bool> stop{false};
  std::mutex write_mu;
  uint64_t frames_written = 0;
  auto write = [&](const Frame& frame) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!channel->WriteFrame(frame)) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    // Test seam: a deterministic SIGKILL right after the Nth frame lands
    // whole on the wire (FleetClientConfig::die_after_frames).
    if (config.die_after_frames > 0 &&
        ++frames_written == config.die_after_frames) {
      ::kill(::getpid(), SIGKILL);
    }
  };

  // Supervisor input. Entries are append-only and drained before each
  // iteration through a per-(dialect, slice) cursor (Restore semantics:
  // signature dedup, never re-echoed).
  std::mutex entries_mu;
  std::vector<corpus::TestCaseRecord> entries;
  std::map<std::pair<engine::Dialect, uint64_t>, size_t> cursors;
  auto receive = [&](const std::vector<Frame>& frames) {
    for (const Frame& frame : frames) {
      if (frame.type != FrameType::kEntry) continue;
      auto decoded = corpus::TestCaseCodec::Decode(frame.payload);
      if (!decoded.ok()) continue;
      std::lock_guard<std::mutex> lock(entries_mu);
      entries.push_back(decoded.Take());
    }
  };
  receive(backlog);
  std::atomic<bool> finished{false};
  std::thread reader([&] {
    std::vector<Frame> frames;
    while (!finished.load(std::memory_order_relaxed)) {
      frames.clear();
      const bool open = channel->ReadFrames(200, &frames);
      receive(frames);
      if (!open) {  // supervisor closed the connection: finish up
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
  });

  // COV heartbeat: one snapshot for the whole process (the coverage and
  // metrics registries are process-global), sent by whichever slice
  // crosses the interval first; its metrics are cumulative since the
  // assignment started.
  const double t0 = Campaign::NowSeconds();
  std::mutex cov_mu;
  std::vector<uint64_t> cov_snapshot;  // empty = everything is new
  double last_cov = t0;
  auto heartbeat = [&](double now) {  // cov_mu held
    auto& registry = CoverageRegistry::Instance();
    Frame cov;
    cov.type = FrameType::kCov;
    cov.elapsed = now - t0;
    // Snapshot BEFORE diffing: a site another slice first-hits between
    // the two calls then lands in this delta AND the next (a harmless
    // double report into a set union); the other order would bake it into
    // the snapshot unreported and lose it from the curve forever.
    std::vector<uint64_t> next_snapshot = registry.SnapshotHits();
    cov.site_keys = registry.KeysCoveredSince(cov_snapshot);
    cov_snapshot = std::move(next_snapshot);
    cov.metrics = obs::MetricsRegistry::Instance().Snapshot();
    last_cov = now;
    write(cov);
  };

  runtime::ShardedCampaign::Observer observer;
  observer.before = [&](Campaign& campaign, uint64_t slice, size_t) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const engine::Dialect dialect = campaign.config().dialect;
    if (campaign.corpus() != nullptr) {
      std::vector<corpus::TestCaseRecord> fresh;
      {
        std::lock_guard<std::mutex> lock(entries_mu);
        size_t& cursor = cursors[{dialect, slice}];
        fresh.assign(entries.begin() + static_cast<ptrdiff_t>(cursor),
                     entries.end());
        cursor = entries.size();
      }
      for (auto& record : fresh) campaign.corpus()->Restore(record);
    }
    Frame inflight;
    inflight.type = FrameType::kInflight;
    inflight.dialect = static_cast<uint64_t>(dialect);
    inflight.slice = slice;
    write(inflight);
    return true;
  };
  observer.after = [&](Campaign& campaign, uint64_t slice, uint64_t completed,
                       fuzz::CampaignResult* delta) {
    // The iteration's unique bugs, its first report of each fault: the
    // supervisor merges them as the in-process runtime merges `delta`.
    for (const auto& [id, d] : delta->unique_bugs) {
      auto bug = fleet::MakeBugFrame(id, d, seed);
      if (bug.ok()) write(bug.value());
    }
    // Streamed, not kept: a long duration assignment must not grow.
    delta->discrepancies.clear();
    delta->unique_bugs.clear();
    if (campaign.corpus() != nullptr) {
      for (const auto& record : campaign.corpus()->TakeNewlyAdmitted()) {
        auto encoded = corpus::TestCaseCodec::Encode(record);
        if (!encoded.ok()) continue;
        Frame entry;
        entry.type = FrameType::kEntry;
        entry.payload = encoded.Take();
        write(entry);
      }
    }
    {
      std::lock_guard<std::mutex> lock(cov_mu);
      const double now = Campaign::NowSeconds();
      if (now - last_cov >= config.cov_interval_seconds) heartbeat(now);
    }
    // SLICEPROGRESS is the LAST frame of the iteration and its commit
    // point: the supervisor credits the iteration with the counts it
    // carries and takes the slice out of flight, and a checkpoint that
    // includes this mark has necessarily merged everything the iteration
    // produced (the stream preserves order), so skipping the iteration on
    // resume loses neither bugs nor coverage. The converse tear only
    // re-runs the iteration, which is then credited once, and the
    // re-reports dedup away. The mark is absolute (resume offset
    // included): the supervisor accepts it only as its own mark plus one.
    Frame progress;
    progress.type = FrameType::kSliceProgress;
    progress.dialect = static_cast<uint64_t>(campaign.config().dialect);
    progress.slice = slice;
    progress.completed = completed;
    progress.queries = delta->queries_run;
    progress.checks = delta->checks_run;
    progress.findings = delta->findings;
    write(progress);
  };
  const fuzz::CampaignResult result =
      runtime::ShardedCampaign(campaign_config).Run(observer);

  // A final COV so the supervisor's curve sees the tail and its merged
  // fleet view is complete before DONE retires this incarnation.
  {
    std::lock_guard<std::mutex> lock(cov_mu);
    heartbeat(Campaign::NowSeconds());
  }
  Frame done;
  done.type = FrameType::kDone;
  done.busy_seconds = result.busy_seconds;
  done.engine_seconds = result.engine_seconds;
  write(done);

  finished.store(true, std::memory_order_relaxed);
  reader.join();
}

}  // namespace

int RunFleetClient(const FleetClientConfig& config) {
  // The supervisor may die while we write; surface that as a latched
  // write failure, not a SIGPIPE kill (which would be indistinguishable
  // from a genuine worker crash and trigger a pointless respawn).
  ::signal(SIGPIPE, SIG_IGN);
  // Flight dumps are synthesized by the supervisor from (seed, iteration),
  // so a worker keeps no ring; a child forked from a --trace-out
  // supervisor drops the recorder it inherited.
  obs::TraceRecorder::Instance().Disable();

  FleetClientConfig current = config;
  size_t assignments_run = 0;
  for (;;) {
    // After an assignment, a refusal means the supervisor is gone, so the
    // worker ends at once instead of polling out its retry budget.
    auto connected =
        ConnectWithRetry(current.host, current.port,
                         current.connect_retry_seconds,
                         /*refusal_ends=*/assignments_run > 0);
    if (!connected.ok()) {
      if (assignments_run > 0) return 0;  // server finished and went away
      std::fprintf(stderr, "net: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    // Writes wait as long as the supervisor stays connected: a slow
    // supervisor must not make a worker drop its assignment.
    FrameChannel channel(connected.value(), /*write_timeout_ms=*/-1);
    // Fresh-process coverage and metrics for every connection, even when
    // forked from a warm parent: COV deltas and their cumulative metrics
    // snapshots describe this assignment only, as the supervisor expects.
    // Before the handshake, so its reads are counted too.
    CoverageRegistry::Instance().ResetHits();
    obs::MetricsRegistry::Instance().Reset();

    Frame hello;
    hello.type = FrameType::kNetHello;
    hello.proto = fleet::kNetProtocolVersion;
    hello.pid = static_cast<uint64_t>(::getpid());
    if (!channel.WriteFrame(hello)) {
      channel.Close();
      return assignments_run > 0 ? 0 : 1;
    }

    // Wait for ASSIGN or BYE. The server may hold an idle connection
    // open indefinitely — that is the elastic-membership waiting room.
    std::vector<Frame> frames;
    auto reply = frames.end();
    for (bool open = true; open && reply == frames.end();) {
      open = channel.ReadFrames(200, &frames);
      reply = std::find_if(frames.begin(), frames.end(), [](const Frame& f) {
        return f.type == FrameType::kAssign || f.type == FrameType::kBye;
      });
    }
    if (reply == frames.end() || reply->type == FrameType::kBye) {
      // BYE, or the server gone without one: a clean exit if we did any
      // work, else the campaign never started for us.
      const bool bye = reply != frames.end();
      channel.Close();
      return bye || assignments_run > 0 ? 0 : 1;
    }

    const std::string doc(reply->payload.begin(), reply->payload.end());
    auto state = fleet::DecodeCheckpoint(doc);
    if (!state.ok()) {
      std::fprintf(stderr, "net: bad ASSIGN payload: %s\n",
                   state.status().ToString().c_str());
      channel.Close();
      return 1;
    }
    const runtime::ShardedCampaignConfig campaign_config =
        AssignmentConfig(state.value());
    std::fprintf(stderr, "net: assignment %" PRIu64 ": %zu slice(s) of %zu\n",
                 reply->worker, campaign_config.slices.size(),
                 campaign_config.shards);
    RunAssignment(campaign_config, current, &channel,
                  std::vector<Frame>(reply + 1, frames.end()));
    // The fault seam fires once: later assignments must complete.
    current.die_after_frames = 0;
    assignments_run++;
    channel.Close();
  }
}

}  // namespace spatter::net
