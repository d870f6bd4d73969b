#include "net/fleet_client.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <vector>

#include "fleet/checkpoint.h"
#include "fleet/wire.h"
#include "fleet/worker.h"
#include "net/socket.h"

namespace spatter::net {

namespace {

using fleet::CheckpointState;
using fleet::Frame;
using fleet::FrameType;

/// The checkpoint identity block is authoritative: a remote worker
/// adopts the server's campaign wholesale, exactly as `--resume` does.
fuzz::CampaignConfig CampaignConfigFrom(const CheckpointState& state) {
  fuzz::CampaignConfig config;
  config.seed = state.seed;
  config.iterations = state.iterations;
  config.queries_per_iteration = state.queries_per_iteration;
  config.generator.num_geometries = state.num_geometries;
  config.enable_faults = state.enable_faults;
  config.generator.derivative_enabled = state.derivative_enabled;
  config.dialect = state.dialects.empty() ? config.dialect
                                          : state.dialects.front();
  config.oracles = state.oracles;
  config.corpus.enabled = state.corpus_enabled;
  config.corpus.mutate_pct = state.mutate_pct;
  return config;
}

fleet::WorkerOptions WorkerOptionsFrom(const CheckpointState& state,
                                       uint64_t worker_index,
                                       const FleetClientConfig& config) {
  fleet::WorkerOptions options;
  options.base = CampaignConfigFrom(state);
  options.dialects = state.dialects;
  options.index = worker_index;
  options.total_slices = state.total_slices;
  // The assignment's progress entries enumerate every (dialect, slice,
  // completed) of the work — zero counts included — so the slice set is
  // exactly their slice values.
  std::set<uint64_t> slices;
  for (const auto& [key, count] : state.completed) {
    slices.insert(key.second);
    options.completed[key] = count;
  }
  options.slices.assign(slices.begin(), slices.end());
  if (state.duration_seconds > 0) {
    options.duration_seconds =
        std::max(0.1, state.duration_seconds - state.elapsed_seconds);
  }
  options.cov_interval_seconds = config.cov_interval_seconds;
  options.die_after_frames = config.die_after_frames;
  return options;
}

}  // namespace

int RunFleetClient(const FleetClientConfig& config) {
  FleetClientConfig current = config;
  size_t assignments_run = 0;
  for (;;) {
    auto connected =
        ConnectWithRetry(current.host, current.port,
                         current.connect_retry_seconds);
    if (!connected.ok()) {
      if (assignments_run > 0) return 0;  // server finished and went away
      std::fprintf(stderr, "net: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    FrameChannel channel(connected.value());

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
    // Byte-at-a-time reads: the ENTRY/TUNE frames the server streams
    // right after ASSIGN must stay in the kernel buffer for RunWorker's
    // reader, not die in a handshake buffer.
    bool got_assign = false;
    Frame assign;
    while (!got_assign) {
      auto frame = ReadOneFrame(channel.fd());
      if (!frame.ok()) {
        // Server gone without BYE: clean exit if we did any work, else
        // the campaign never started for us.
        channel.Close();
        return assignments_run > 0 ? 0 : 1;
      }
      if (frame.value().type == FrameType::kBye) {
        channel.Close();
        return 0;
      }
      if (frame.value().type == FrameType::kAssign) {
        assign = frame.Take();
        got_assign = true;
      }
    }

    const std::string doc(assign.payload.begin(), assign.payload.end());
    auto state = fleet::DecodeCheckpoint(doc);
    if (!state.ok()) {
      std::fprintf(stderr, "net: bad ASSIGN payload: %s\n",
                   state.status().ToString().c_str());
      channel.Close();
      return 1;
    }
    const fleet::WorkerOptions options =
        WorkerOptionsFrom(state.value(), assign.worker, current);
    // The fault seam fires once: later assignments must complete.
    current.die_after_frames = 0;

    std::fprintf(stderr,
                 "net: assignment %" PRIu64 ": %zu slice(s) of %zu\n",
                 assign.worker, options.slices.size(), options.total_slices);
    // The socket is both frame directions for RunWorker's writer and
    // reader. Blocking from here on: RunWorker's writer treats EAGAIN as a
    // dead peer (its reader polls before every read, so it never blocks).
    SetBlocking(channel.fd(), true);
    fleet::RunWorker(options, channel.fd(), channel.fd());
    assignments_run++;
    channel.Close();
  }
}

}  // namespace spatter::net
