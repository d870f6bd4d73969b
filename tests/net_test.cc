// Socket fleet tests: the TCP transport (FrameChannel reassembly under
// arbitrary byte splits, garbage/oversize resync), the worker's side of
// the stream (every frame a real fleet client sends for a scripted
// assignment, and a hostile supervisor that cannot grow its line buffer),
// the NETHELLO version gate, the read-only status endpoint (served by
// `--serve` and local `--fleet` supervisors alike), and the
// elastic-membership pin — a two-remote-worker socket campaign
// with one worker SIGKILLed mid-assignment must report the identical
// unique-bug set (and per-oracle attribution) as an uninterrupted
// in-process run over the same slice universe, and must leave the dead
// worker's in-flight reproducer and flight-recorder dump behind.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fleet/checkpoint.h"
#include "fleet/wire.h"
#include "fuzz/campaign.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "runtime/sharded_campaign.h"

namespace spatter::net {
namespace {

using engine::Dialect;
using fleet::DecodeFrame;
using fleet::EncodeFrame;
using fleet::Frame;
using fleet::FrameType;
using fuzz::CampaignConfig;
using fuzz::CampaignResult;

std::set<faults::FaultId> BugKeys(const CampaignResult& r) {
  std::set<faults::FaultId> keys;
  for (const auto& [id, _] : r.unique_bugs) keys.insert(id);
  return keys;
}

CampaignConfig SmallConfig(uint64_t seed, size_t iterations) {
  CampaignConfig config;
  config.dialect = Dialect::kPostgis;
  config.seed = seed;
  config.iterations = iterations;
  config.queries_per_iteration = 25;
  config.generator.num_geometries = 8;
  return config;
}

/// One frame of every wire type, socket-tier types included. The frames
/// carry distinctive field values so a re-encode comparison catches any
/// field that failed to survive the byte stream.
std::vector<Frame> EveryFrameType() {
  std::vector<Frame> frames;

  Frame inflight;
  inflight.type = FrameType::kInflight;
  inflight.dialect = 2;
  inflight.slice = 5;
  frames.push_back(inflight);

  Frame slice_progress;
  slice_progress.type = FrameType::kSliceProgress;
  slice_progress.dialect = 2;
  slice_progress.slice = 3;
  slice_progress.completed = 987654;
  slice_progress.queries = 40;
  slice_progress.checks = 80;
  slice_progress.findings = 3;
  slice_progress.busy_seconds = 2.5;
  slice_progress.engine_seconds = 1.25;
  frames.push_back(slice_progress);

  Frame cov;
  cov.type = FrameType::kCov;
  cov.site_keys = {0xdeadbeefULL, 0x1ULL, 0xffffffffffffffffULL};
  cov.metrics.counters["campaign.iterations"] = 1234;
  cov.metrics.gauges["corpus.size"] = -3;
  frames.push_back(cov);

  Frame entry;
  entry.type = FrameType::kEntry;
  entry.payload = {1, 2, 3, 254};
  frames.push_back(entry);

  Frame bug;
  bug.type = FrameType::kBug;
  bug.fault = static_cast<uint64_t>(faults::FaultId::kMysqlOverlapsSwappedAxes);
  bug.query_index = 17;
  bug.is_crash = true;
  bug.detail = "count 3 vs 4, with spaces\tand tabs";
  bug.payload = {9, 9, 9};
  frames.push_back(bug);

  Frame done;
  done.type = FrameType::kDone;
  frames.push_back(done);

  Frame nethello;
  nethello.type = FrameType::kNetHello;
  nethello.proto = fleet::kNetProtocolVersion;
  frames.push_back(nethello);

  Frame assign;
  assign.type = FrameType::kAssign;
  assign.worker = 9;
  const std::string doc = "config not-really-a-checkpoint\n";
  assign.payload.assign(doc.begin(), doc.end());
  frames.push_back(assign);

  Frame bye;
  bye.type = FrameType::kBye;
  frames.push_back(bye);

  return frames;
}

/// A connected loopback TCP pair built from the real transport helpers
/// (so Listen/LocalPort/ConnectWithRetry/AcceptOne are themselves under
/// test). Both fds are non-blocking.
struct LoopbackPair {
  int client = -1;
  int server = -1;

  LoopbackPair() {
    auto listen = Listen(0);
    EXPECT_TRUE(listen.ok()) << listen.status().ToString();
    auto port = LocalPort(listen.value());
    EXPECT_TRUE(port.ok());
    auto connected = ConnectWithRetry("127.0.0.1", port.value(), 5.0);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client = connected.value();
    for (int i = 0; i < 500 && server < 0; ++i) {
      struct pollfd pfd = {listen.value(), POLLIN, 0};
      ::poll(&pfd, 1, 10);
      server = AcceptOne(listen.value());
    }
    EXPECT_GE(server, 0) << "accept never fired";
    ::close(listen.value());
  }

  ~LoopbackPair() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
  }
};

/// Runs a fleet client as a real child process — SIGKILL must take a
/// whole process, so a thread will not do. The child first closes every
/// inherited fd (above stdio): a forked test child still holds a copy of
/// the server's LISTENING socket, and that copy would keep the listen
/// queue alive after the server closes its own — parking the client's
/// final reconnect in a backlog nobody will ever accept. A real
/// `--connect` worker is a fresh process and inherits nothing.
pid_t SpawnClient(const FleetClientConfig& config) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  for (int fd = 3; fd < 256; ++fd) ::close(fd);
  _exit(RunFleetClient(config));
}

/// Writes `data` to a non-blocking fd in chunks of `chunk` bytes,
/// tolerating short writes and EAGAIN (the reader side drains slowly).
void WriteChunked(int fd, const std::string& data, size_t chunk) {
  size_t off = 0;
  while (off < data.size()) {
    const size_t want = std::min(chunk, data.size() - off);
    const ssize_t n = ::write(fd, data.data() + off, want);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    FAIL() << "write failed";
  }
}

// --- FrameChannel reassembly ------------------------------------------------

TEST(FrameChannel, ReassemblesEveryFrameTypeUnderArbitrarySplits) {
  const std::vector<Frame> frames = EveryFrameType();
  std::string stream;
  for (const Frame& frame : frames) stream += EncodeFrame(frame);

  // One byte at a time, mid-frame chunks, and everything coalesced: the
  // channel must deliver the identical frame sequence regardless of how
  // TCP happens to split the bytes.
  for (const size_t chunk : {size_t{1}, size_t{7}, stream.size()}) {
    LoopbackPair pair;
    std::thread writer(
        [&pair, &stream, chunk] { WriteChunked(pair.client, stream, chunk); });
    FrameChannel channel(pair.server);
    std::vector<Frame> got;
    while (got.size() < frames.size()) {
      ASSERT_TRUE(channel.ReadFrames(1000, &got)) << "premature EOF";
    }
    writer.join();
    ASSERT_EQ(got.size(), frames.size()) << "chunk=" << chunk;
    for (size_t i = 0; i < frames.size(); ++i) {
      // The codec is canonical, so re-encode equality is field equality.
      EXPECT_EQ(EncodeFrame(got[i]), EncodeFrame(frames[i]))
          << "frame " << i << " chunk=" << chunk;
    }
    EXPECT_EQ(channel.rejected(), 0u);
  }
}

TEST(FrameChannel, ResyncsAfterGarbageLines) {
  LoopbackPair pair;
  Frame bye;
  bye.type = FrameType::kBye;
  const std::string stream = "complete garbage, not a frame\n" +
                             std::string("SPTW1 HELLO half a frame\n") +
                             EncodeFrame(bye);
  std::thread writer(
      [&pair, &stream] { WriteChunked(pair.client, stream, stream.size()); });
  FrameChannel channel(pair.server);
  std::vector<Frame> got;
  while (got.empty()) {
    ASSERT_TRUE(channel.ReadFrames(1000, &got));
  }
  writer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, FrameType::kBye);
  EXPECT_EQ(channel.rejected(), 2u) << "both garbage lines counted";
}

TEST(FrameChannel, DropsOversizedUnterminatedLinesAndRecovers) {
  // A hostile peer streaming an endless line must not grow the
  // reassembly buffer past kMaxFrameBytes; the channel drops the bytes,
  // counts one rejection, and resyncs at the next newline.
  LoopbackPair pair;
  Frame bye;
  bye.type = FrameType::kBye;
  const std::string oversized(fleet::kMaxFrameBytes + 4096, 'x');
  const std::string stream = oversized + "\n" + EncodeFrame(bye);
  std::thread writer([&pair, &stream] {
    WriteChunked(pair.client, stream, 65536);
  });
  FrameChannel channel(pair.server);
  std::vector<Frame> got;
  while (got.empty()) {
    ASSERT_TRUE(channel.ReadFrames(1000, &got));
  }
  writer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, FrameType::kBye);
  EXPECT_GE(channel.rejected(), 1u);
}

TEST(FrameChannel, EofAfterBufferedFramesStillDeliversThem) {
  LoopbackPair pair;
  Frame bye;
  bye.type = FrameType::kBye;
  // A peer that dies mid-line leaves a torn tail after its last frame.
  const std::string stream = EncodeFrame(bye) + "SPTW1 COV -";
  WriteChunked(pair.client, stream, stream.size());
  ::shutdown(pair.client, SHUT_WR);
  FrameChannel channel(pair.server);
  std::vector<Frame> got;
  // The closing read both drains the final frame and observes EOF.
  while (channel.ReadFrames(1000, &got)) {
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, FrameType::kBye);
  EXPECT_TRUE(channel.eof());
  EXPECT_EQ(channel.rejected(), 1u) << "the torn tail counts as rejected";
}

// --- The worker's side of the stream ---------------------------------------

/// The ASSIGN document of a one-dialect assignment of `config`'s campaign
/// that owns `slice` of `total_slices`, resumed at `completed` iterations.
fleet::CheckpointState AssignmentFor(const CampaignConfig& config,
                                     uint64_t total_slices, uint64_t slice,
                                     uint64_t completed) {
  fleet::CheckpointState state;
  state.base = config;
  state.dialects = {config.dialect};
  state.total_slices = total_slices;
  state.completed[{static_cast<uint64_t>(config.dialect), slice}] = completed;
  return state;
}

/// How RunScriptedAssignment runs its client.
struct Script {
  double connect_retry_seconds = 0.2;
  /// The client starts this long before the supervisor listens.
  double late_supervisor_seconds = 0.0;
  /// Out: from the listener's close to the client's exit.
  double exit_seconds = 0.0;
};

/// The supervisor's side of RunScriptedAssignment, on its listener.
std::vector<Frame> RunScript(const fleet::CheckpointState& state,
                             const std::string& after_assign, int listen_fd,
                             pid_t pid, Script* script) {
  std::vector<Frame> got;
  int fd = -1;
  for (int i = 0; i < 1000 && fd < 0; ++i) {
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    ::poll(&pfd, 1, 10);
    fd = AcceptOne(listen_fd);
  }
  EXPECT_GE(fd, 0) << "the client never connected";
  if (fd >= 0) {
    FrameChannel channel(fd);
    std::vector<Frame> hello;
    while (hello.empty() && channel.ReadFrames(1000, &hello)) {
    }
    EXPECT_EQ(hello.size(), 1u);
    EXPECT_TRUE(!hello.empty() && hello[0].type == FrameType::kNetHello);
    Frame assign;
    assign.type = FrameType::kAssign;
    const std::string doc = fleet::EncodeCheckpoint(state);
    assign.payload.assign(doc.begin(), doc.end());
    WriteChunked(fd, EncodeFrame(assign) + after_assign, 65536);
    const double deadline = fuzz::Campaign::NowSeconds() + 120.0;
    while ((got.empty() || got.back().type != FrameType::kDone) &&
           fuzz::Campaign::NowSeconds() < deadline &&
           channel.ReadFrames(1000, &got)) {
    }
    channel.Close();
  }
  ::close(listen_fd);
  const double closed = fuzz::Campaign::NowSeconds();
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  script->exit_seconds = fuzz::Campaign::NowSeconds() - closed;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return got;
}

/// A scripted supervisor for one real fleet client, forked like a remote
/// worker: it answers the client's NETHELLO with an ASSIGN carrying
/// `state`, writes the raw bytes `after_assign` behind it, and returns
/// every frame the worker writes up to and including DONE. The listener
/// then closes, so the client's reconnect ends it with exit status 0.
std::vector<Frame> RunScriptedAssignment(const fleet::CheckpointState& state,
                                         const std::string& after_assign,
                                         Script* script = nullptr) {
  Script defaults;
  if (script == nullptr) script = &defaults;
  std::vector<Frame> got;
  auto listen = Listen(0, /*loopback_only=*/true);
  EXPECT_TRUE(listen.ok()) << listen.status().ToString();
  if (!listen.ok()) return got;
  FleetClientConfig client;
  client.port = LocalPort(listen.value()).value();
  client.connect_retry_seconds = script->connect_retry_seconds;
  client.cov_interval_seconds = 0.0;  // COV after every iteration
  if (script->late_supervisor_seconds == 0) {
    return RunScript(state, after_assign, listen.value(), SpawnClient(client),
                     script);
  }
  // Nothing listens on the port until the supervisor comes up.
  ::close(listen.value());
  const pid_t pid = SpawnClient(client);
  ::poll(nullptr, 0, static_cast<int>(script->late_supervisor_seconds * 1000));
  listen = Listen(client.port, /*loopback_only=*/true);
  EXPECT_TRUE(listen.ok()) << listen.status().ToString();
  if (!listen.ok()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return got;
  }
  return RunScript(state, after_assign, listen.value(), pid, script);
}

/// One letter per frame, for matching the stream's shape.
char FrameLetter(FrameType type) {
  switch (type) {
    case FrameType::kInflight: return 'I';
    case FrameType::kBug: return 'B';
    case FrameType::kEntry: return 'E';
    case FrameType::kCov: return 'C';
    case FrameType::kSliceProgress: return 'P';
    case FrameType::kDone: return 'X';
    default: return '?';
  }
}

/// Pins what a worker sends for a one-slice assignment: the frame order,
/// the iterations it announces (each at the mark the supervisor holds, as
/// INFLIGHT carries none) and completes, BUG frames equal to each
/// iteration's unique bugs from a Campaign running the same iterations,
/// and the counts each SLICEPROGRESS credits, which are its own
/// iteration's.
void ExpectWorkerStream(const CampaignConfig& config, uint64_t total_slices,
                        uint64_t slice, uint64_t completed,
                        const std::vector<uint64_t>& iterations) {
  SCOPED_TRACE("slice " + std::to_string(slice) + " of " +
               std::to_string(total_slices));
  const std::vector<Frame> frames = RunScriptedAssignment(
      AssignmentFor(config, total_slices, slice, completed), "");

  std::string shape;
  for (const Frame& f : frames) shape += FrameLetter(f.type);
  EXPECT_TRUE(std::regex_match(shape, std::regex("(I[BE]*C?P)+CX")))
      << shape;

  const uint64_t dialect = static_cast<uint64_t>(config.dialect);
  uint64_t mark = completed;
  std::vector<uint64_t> announced;
  // {mark, queries, checks, findings} per SLICEPROGRESS.
  std::vector<std::vector<uint64_t>> progress;
  std::vector<std::string> bugs;
  for (const Frame& f : frames) {
    if (f.type == FrameType::kInflight) {
      EXPECT_EQ(f.dialect, dialect);
      EXPECT_EQ(f.slice, slice);
      announced.push_back(slice + mark * total_slices);
    } else if (f.type == FrameType::kSliceProgress) {
      EXPECT_EQ(f.dialect, dialect);
      EXPECT_EQ(f.slice, slice);
      EXPECT_EQ(f.completed, mark + 1) << "the mark moves by one";
      mark = f.completed;
      progress.push_back({f.completed, f.queries, f.checks, f.findings});
    } else if (f.type == FrameType::kBug) {
      bugs.push_back(EncodeFrame(f));
    }
  }
  EXPECT_EQ(announced, iterations);

  // The reference: one Campaign running the same iterations in order,
  // each into its own result, as the worker's slice loop does.
  fuzz::Campaign reference(config);
  std::vector<std::vector<uint64_t>> want_progress;
  std::vector<std::string> want_bugs;
  size_t findings = 0;
  for (uint64_t i : iterations) {
    CampaignResult one;
    reference.RunIterationAt(i, &one);
    want_progress.push_back({completed + want_progress.size() + 1,
                             one.queries_run, one.checks_run, one.findings});
    findings += one.findings;
    for (const auto& [id, d] : one.unique_bugs) {
      auto bug = fleet::MakeBugFrame(id, d, config.seed);
      ASSERT_TRUE(bug.ok());
      want_bugs.push_back(EncodeFrame(bug.value()));
    }
  }
  EXPECT_FALSE(want_bugs.empty()) << "the pinned iterations find something";
  EXPECT_LT(want_bugs.size(), findings)
      << "an iteration's repeated reports of a fault are not sent";
  EXPECT_EQ(bugs, want_bugs);
  EXPECT_EQ(progress, want_progress);
}

TEST(FleetClient, WorkerStreamIsPinnedFrameByFrame) {
  // Every oracle, so iterations report some faults more than once.
  CampaignConfig config = SmallConfig(/*seed=*/77, /*iterations=*/4);
  config.oracles = fuzz::ParseOracleSuite("all").Take();
  // (a) one dialect, slice 0 of 1, four iterations.
  ExpectWorkerStream(config, /*total_slices=*/1, /*slice=*/0,
                     /*completed=*/0, {0, 1, 2, 3});
  // (b) slice 1 of 3 resumed at one completed iteration: iteration 1 is
  // done, so the worker announces 4, 7 and 10 and reports marks 2, 3, 4.
  config.iterations = 12;
  ExpectWorkerStream(config, /*total_slices=*/3, /*slice=*/1,
                     /*completed=*/1, {4, 7, 10});
}

TEST(FleetClient, HostileSupervisorCannotGrowTheLineBuffer) {
  // An endless unterminated line behind ASSIGN: the worker's reader must
  // drop it at kMaxFrameBytes and count it, and still finish its
  // assignment. The one-second wall budget leaves the reader time to
  // drain the junk before the final COV's metrics snapshot.
  fleet::CheckpointState state =
      AssignmentFor(SmallConfig(/*seed=*/91, /*iterations=*/1),
                    /*total_slices=*/1, /*slice=*/0, /*completed=*/0);
  state.duration_seconds = 1.0;
  const std::vector<Frame> frames = RunScriptedAssignment(
      state, std::string(fleet::kMaxFrameBytes + (1u << 20), 'x'));
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kDone);
  const Frame* last_cov = nullptr;
  for (const Frame& f : frames) {
    if (f.type == FrameType::kCov) last_cov = &f;
  }
  ASSERT_NE(last_cov, nullptr);
  const auto rejected = last_cov->metrics.counters.find("wire.rejected");
  ASSERT_NE(rejected, last_cov->metrics.counters.end())
      << "the unterminated line was buffered, never rejected";
  EXPECT_GE(rejected->second, 1u);
}

// Once its supervisor has exited, a worker's reconnect is refused and the
// worker ends at once, not after its retry budget.
TEST(FleetClient, ExitsAtOnceWhenItsSupervisorIsGone) {
  Script script;
  script.connect_retry_seconds = 10.0;
  const std::vector<Frame> frames = RunScriptedAssignment(
      AssignmentFor(SmallConfig(/*seed=*/5, /*iterations=*/1),
                    /*total_slices=*/1, /*slice=*/0, /*completed=*/0),
      "", &script);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kDone);
  EXPECT_LT(script.exit_seconds, 2.0);
}

// The first connect keeps its budget: a worker started before its
// supervisor still gets its assignment.
TEST(FleetClient, WaitsForASupervisorThatStartsLate) {
  Script script;
  script.connect_retry_seconds = 10.0;
  script.late_supervisor_seconds = 0.3;
  const std::vector<Frame> frames = RunScriptedAssignment(
      AssignmentFor(SmallConfig(/*seed=*/5, /*iterations=*/1),
                    /*total_slices=*/1, /*slice=*/0, /*completed=*/0),
      "", &script);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kDone);
  EXPECT_LT(script.exit_seconds, 2.0);
}

// --- Status endpoint --------------------------------------------------------

/// One blocking-ish HTTP/1.0 exchange against the status endpoint: send
/// the request, drain until the server closes (Connection: close).
std::string HttpGet(uint16_t port, const std::string& request) {
  auto fd = ConnectWithRetry("127.0.0.1", port, 5.0);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return "";
  WriteChunked(fd.value(), request, request.size());
  std::string response;
  char buf[4096];
  for (int i = 0; i < 1000; ++i) {
    struct pollfd pfd = {fd.value(), POLLIN, 0};
    ::poll(&pfd, 1, 10);
    const ssize_t n = ::read(fd.value(), buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;  // server closed: response complete
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
  }
  ::close(fd.value());
  return response;
}

/// Asserts one status-endpoint response: 200, JSON, and `schema_field`.
void ExpectStatusJson(const std::string& response,
                      const std::string& schema_field) {
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(response.find(schema_field), std::string::npos) << response;
}

TEST(FleetServer, StatusEndpointAnswersMidCampaign) {
  FleetConfig config;
  config.base = SmallConfig(/*seed=*/555, /*iterations=*/4);
  config.processes = 1;
  config.jobs = 2;
  config.serve = true;
  config.serve_status = true;
  config.status_port = 0;  // kernel-picked
  FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.status_port(), 0);
  ASSERT_NE(server.status_port(), server.port());

  std::thread serve([&server] { server.Run(); });

  // No worker has connected yet, so the campaign is parked mid-flight in
  // the accept loop — exactly when an operator would poke the endpoint.
  ExpectStatusJson(
      HttpGet(server.status_port(), "GET /metrics HTTP/1.0\r\n\r\n"),
      "\"schema\": \"spatter-metrics-v1\"");
  const std::string fleet =
      HttpGet(server.status_port(), "GET /fleet HTTP/1.0\r\n\r\n");
  ExpectStatusJson(fleet, "\"schema\":\"spatter-fleet-v1\"");
  EXPECT_NE(fleet.find("\"workers\":["), std::string::npos);
  ExpectStatusJson(
      HttpGet(server.status_port(), "GET /bugs HTTP/1.0\r\n\r\n"),
      "\"schema\":\"spatter-bugs-v1\"");

  const std::string missing =
      HttpGet(server.status_port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  const std::string post =
      HttpGet(server.status_port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos);

  // Now let a worker drain the campaign so Run() returns.
  FleetClientConfig client;
  client.port = server.port();
  client.connect_retry_seconds = 0.2;
  std::thread worker([&client] { EXPECT_EQ(RunFleetClient(client), 0); });
  serve.join();
  worker.join();
  EXPECT_GE(server.status_requests_served(), 5u);
}

TEST(FleetServer, LocalFleetAnswersStatusEndpoint) {
  // A plain local fleet — no --serve — carries the same endpoint. The
  // scraper is a forked process, so Run() (which forks the local workers)
  // stays on a single-threaded process.
  FleetConfig config;
  config.base = SmallConfig(/*seed=*/555, /*iterations=*/4);
  config.processes = 2;
  config.jobs = 1;
  config.duration_seconds = 2.0;  // keeps the campaign up for the scraper
  config.serve_status = true;
  FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.status_port(), 0);

  const std::string out =
      ::testing::TempDir() + "/net_local_status_" + std::to_string(getpid());
  const pid_t scraper = fork();
  if (scraper == 0) {
    ::close_range(3, ~0U, 0);  // hold no copy of the supervisor's sockets
    std::ofstream file(out, std::ios::binary);
    for (const char* path : {"/metrics", "/fleet", "/bugs"}) {
      file << HttpGet(server.status_port(),
                      std::string("GET ") + path + " HTTP/1.0\r\n\r\n")
           << "\n=====\n";
    }
    file.close();
    _exit(0);
  }
  ASSERT_GT(scraper, 0);
  const CampaignResult result = server.Run();
  int status = 0;
  ASSERT_EQ(::waitpid(scraper, &status, 0), scraper);
  EXPECT_GT(result.iterations_run, 0u);

  std::ifstream in(out, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string> responses;
  for (size_t start = 0, end;
       (end = text.find("\n=====\n", start)) != std::string::npos;
       start = end + 7) {
    responses.push_back(text.substr(start, end - start));
  }
  ASSERT_EQ(responses.size(), 3u) << text;
  ExpectStatusJson(responses[0], "\"schema\": \"spatter-metrics-v1\"");
  ExpectStatusJson(responses[1], "\"schema\":\"spatter-fleet-v1\"");
  ExpectStatusJson(responses[2], "\"schema\":\"spatter-bugs-v1\"");
  EXPECT_GE(server.status_requests_served(), 3u);
  std::filesystem::remove(out);
}

// --- Version gate -----------------------------------------------------------

TEST(FleetServer, ByesVersionSkewedClientsAndFinishesWithGoodOnes) {
  FleetConfig config;
  config.base = SmallConfig(/*seed=*/321, /*iterations=*/4);
  config.processes = 1;
  config.jobs = 2;
  config.serve = true;
  FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::thread serve([&server] { server.Run(); });

  // A skewed client gets an immediate BYE, never an assignment: a newer
  // one, and a protocol-5 one whose NETHELLO still carries its pid.
  Frame newer;
  newer.type = FrameType::kNetHello;
  newer.proto = fleet::kNetProtocolVersion + 1;
  for (const std::string& hello :
       {EncodeFrame(newer), std::string("SPTW1 NETHELLO 5 777\n")}) {
    SCOPED_TRACE(hello);
    auto skewed = ConnectWithRetry("127.0.0.1", port, 5.0);
    ASSERT_TRUE(skewed.ok());
    WriteChunked(skewed.value(), hello, hello.size());
    FrameChannel channel(skewed.value());
    std::vector<Frame> reply;
    while (reply.empty() && channel.ReadFrames(1000, &reply)) {
    }
    ASSERT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply[0].type, FrameType::kBye);
    channel.Close();
  }

  // A current-version client runs the whole campaign to completion. The
  // short retry budget only trims the final reconnect (which finds the
  // server gone) — the first connect always lands, the listener is live.
  FleetClientConfig client;
  client.port = port;
  client.connect_retry_seconds = 0.2;
  std::thread worker([&client] { EXPECT_EQ(RunFleetClient(client), 0); });
  serve.join();
  worker.join();
  EXPECT_GE(server.peers_seen(), 2u);
}

// --- Elastic membership pin -------------------------------------------------

TEST(FleetServer, SigkilledWorkerReassignedWithoutChangingTheBugSet) {
  // Reference: an uninterrupted in-process run over the identical
  // 4-slice universe.
  CampaignConfig base = SmallConfig(/*seed=*/77, /*iterations=*/24);
  base.queries_per_iteration = 40;
  runtime::ShardedCampaignConfig ref;
  ref.base = base;
  ref.jobs = 4;
  runtime::ShardedCampaign baseline(ref);
  const CampaignResult expected = baseline.Run();
  ASSERT_FALSE(expected.unique_bugs.empty());

  FleetConfig config;
  config.base = base;
  config.processes = 2;
  config.jobs = 2;
  config.serve = true;
  // The server synthesizes the dead worker's in-flight iteration trace
  // and persists it here, next to the reconstructed in-flight reproducer.
  config.crash_dir = ::testing::TempDir() + "/net_flight_dump";
  std::filesystem::remove_all(config.crash_dir);
  FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // Two remote workers as real child processes, forked before Run() so
  // no other thread exists at fork time.
  FleetClientConfig doomed;
  doomed.port = port;
  doomed.connect_retry_seconds = 0.2;
  // The worker writes at least two frames per iteration, and its first
  // assignment owns 12 iterations: frame 24 always lands mid-assignment,
  // before DONE.
  doomed.die_after_frames = 24;
  const pid_t killed_pid = SpawnClient(doomed);
  ASSERT_GE(killed_pid, 0);

  FleetClientConfig healthy;
  healthy.port = port;
  healthy.connect_retry_seconds = 0.2;
  const pid_t survivor_pid = SpawnClient(healthy);
  ASSERT_GE(survivor_pid, 0);

  const CampaignResult result = server.Run();

  int status = 0;
  ASSERT_EQ(::waitpid(killed_pid, &status, 0), killed_pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the seamed worker must die by SIGKILL mid-assignment";
  ASSERT_EQ(::waitpid(survivor_pid, &status, 0), survivor_pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the survivor finishes cleanly on BYE";

  // The pin: dead worker's slices were re-factored onto the survivor at
  // their SLICEPROGRESS marks, the in-flight iteration re-ran, and its
  // re-reported bugs deduplicated — so the unique-bug set AND the
  // per-oracle attribution are identical to the uninterrupted run.
  EXPECT_EQ(BugKeys(result), BugKeys(expected));
  EXPECT_EQ(result.UniqueBugsByOracle(), expected.UniqueBugsByOracle());
  EXPECT_EQ(result.iterations_run, expected.iterations_run)
      << "requeue re-runs the in-flight iteration, never skips it";
  EXPECT_GE(server.disconnects(), 1u);
  EXPECT_GE(server.reassigned_slices(), 1u);
  EXPECT_EQ(server.protocol_errors(), 0u);

  // Crash forensics: the dead worker left an in-flight reproducer and a
  // flight-recorder dump: a spatter-trace-v1 header that counts its event
  // lines, each tagged with the in-flight iteration its name gives.
  std::vector<std::string> dumps;
  size_t reproducers = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.crash_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("inflight-w", 0) == 0) reproducers++;
    if (name.rfind("flight-w", 0) == 0) {
      dumps.push_back(entry.path().string());
    }
  }
  EXPECT_GE(reproducers, 1u) << "no reproducer in " << config.crash_dir;
  EXPECT_EQ(reproducers, server.crash_reproducers_persisted());
  ASSERT_FALSE(dumps.empty()) << "no flight record in " << config.crash_dir;
  const size_t ext = dumps[0].rfind(".trace.jsonl");
  const size_t at = dumps[0].rfind("-i");
  ASSERT_NE(ext, std::string::npos);
  ASSERT_NE(at, std::string::npos);
  const std::string iter =
      ",\"iter\":" + dumps[0].substr(at + 2, ext - at - 2) + ",";
  std::ifstream in(dumps[0]);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u) << "a header and at least one event";
  EXPECT_EQ(lines[0].rfind("{\"schema\":\"spatter-trace-v1\",\"events\":" +
                               std::to_string(lines.size() - 1) + ",",
                           0),
            0u)
      << lines[0];
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(iter), std::string::npos) << lines[i];
  }
}

}  // namespace
}  // namespace spatter::net
