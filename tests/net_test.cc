// Socket fleet tests: the TCP transport (FrameChannel reassembly under
// arbitrary byte splits, garbage/oversize resync, handshake reads that
// never over-read), the NETHELLO version gate, the read-only status
// endpoint (served by `--serve` and local `--fleet` supervisors alike),
// and the elastic-membership pin — a two-remote-worker socket campaign
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
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fleet/wire.h"
#include "fuzz/campaign.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "obs/trace.h"
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

  Frame hello;
  hello.type = FrameType::kHello;
  hello.worker = 3;
  hello.pid = 4242;
  hello.slice_offset = 6;
  hello.slice_count = 2;
  hello.total_slices = 8;
  frames.push_back(hello);

  Frame inflight;
  inflight.type = FrameType::kInflight;
  inflight.dialect = 2;
  inflight.slice = 5;
  inflight.iteration = 1234567;
  frames.push_back(inflight);

  Frame slice_done;
  slice_done.type = FrameType::kSliceDone;
  slice_done.dialect = 1;
  slice_done.slice = 6;
  frames.push_back(slice_done);

  Frame slice_progress;
  slice_progress.type = FrameType::kSliceProgress;
  slice_progress.dialect = 2;
  slice_progress.slice = 3;
  slice_progress.completed = 987654;
  frames.push_back(slice_progress);

  Frame cov;
  cov.type = FrameType::kCov;
  cov.elapsed = 1.25;
  cov.iterations = 42;
  cov.queries = 4200;
  cov.site_keys = {0xdeadbeefULL, 0x1ULL, 0xffffffffffffffffULL};
  frames.push_back(cov);

  Frame entry;
  entry.type = FrameType::kEntry;
  entry.payload = {1, 2, 3, 254};
  frames.push_back(entry);

  Frame bug;
  bug.type = FrameType::kBug;
  bug.query_index = 17;
  bug.is_crash = true;
  bug.oracle = static_cast<uint64_t>(fuzz::OracleKind::kIndex);
  bug.elapsed = 0.5;
  bug.detail = "count 3 vs 4, with spaces\tand tabs";
  bug.payload = {9, 9, 9};
  frames.push_back(bug);

  Frame stats;
  stats.type = FrameType::kStats;
  stats.elapsed = 2.75;
  stats.stats.counters["campaign.iterations"] = 1234;
  stats.stats.gauges["corpus.size"] = -3;
  frames.push_back(stats);

  Frame done;
  done.type = FrameType::kDone;
  done.iterations = 10;
  done.queries = 1000;
  done.checks = 1000;
  done.busy_seconds = 2.5;
  done.engine_seconds = 1.25;
  frames.push_back(done);

  Frame nethello;
  nethello.type = FrameType::kNetHello;
  nethello.proto = fleet::kNetProtocolVersion;
  nethello.pid = 777;
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

  Frame tune;
  tune.type = FrameType::kTune;
  tune.mutate_pct = 85;
  frames.push_back(tune);

  Frame trace;
  trace.type = FrameType::kTrace;
  trace.elapsed = 3.5;
  trace.trace.dropped = 2;
  obs::TraceEvent ev;
  ev.t_us = 42;
  ev.thread = 1;
  ev.iteration = 7;
  ev.value = 11;
  ev.name = "iter.begin";
  ev.detail = "with \"quotes\" and\ttabs";
  trace.trace.events.push_back(ev);
  frames.push_back(trace);

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
  const std::string stream = EncodeFrame(bye) + "SPTW1 COV 1.0";
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

// --- Handshake reads --------------------------------------------------------

TEST(ReadOneFrame, NeverReadsPastTheFrame) {
  // The fleet client handshake hands the fd to RunWorker right after
  // ASSIGN; every byte after ASSIGN's newline (corpus seeds, TUNE) must
  // still be in the kernel buffer — byte-identically.
  LoopbackPair pair;
  Frame assign;
  assign.type = FrameType::kAssign;
  assign.worker = 2;
  const std::string doc = "pretend checkpoint";
  assign.payload.assign(doc.begin(), doc.end());
  Frame tune;
  tune.type = FrameType::kTune;
  tune.mutate_pct = 60;
  const std::string first = EncodeFrame(assign);
  const std::string rest = EncodeFrame(tune) + EncodeFrame(tune);
  WriteChunked(pair.client, first + rest, first.size() + rest.size());

  auto got = ReadOneFrame(pair.server);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().type, FrameType::kAssign);
  EXPECT_EQ(EncodeFrame(got.value()), first);

  // Drain what is left in the kernel buffer: exactly `rest`.
  std::string leftover;
  char buf[4096];
  for (int i = 0; i < 100 && leftover.size() < rest.size(); ++i) {
    struct pollfd pfd = {pair.server, POLLIN, 0};
    ::poll(&pfd, 1, 100);
    const ssize_t n = ::read(pair.server, buf, sizeof(buf));
    if (n > 0) leftover.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(leftover, rest);
}

TEST(ReadOneFrame, SkipsMalformedLinesAndReportsEof) {
  LoopbackPair pair;
  Frame bye;
  bye.type = FrameType::kBye;
  const std::string stream =
      "garbage first\n" + EncodeFrame(bye);
  WriteChunked(pair.client, stream, stream.size());
  auto got = ReadOneFrame(pair.server);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().type, FrameType::kBye);

  ::shutdown(pair.client, SHUT_WR);
  auto eof = ReadOneFrame(pair.server);
  EXPECT_FALSE(eof.ok());
}

TEST(FrameCodec, RejectsTraceFramesWithInvalidEmbeddedDocuments) {
  // The payload hex-decodes but is not a spatter-trace-v1 document; the
  // frame must be rejected whole, like a corrupt STATS frame.
  const std::string bogus = "626f6775730a";  // hex("bogus\n")
  EXPECT_FALSE(DecodeFrame("SPTW1 TRACE 1.0 " + bogus).ok());
  // Truncated hex (odd digit count) is rejected at the hex layer.
  EXPECT_FALSE(DecodeFrame("SPTW1 TRACE 1.0 626").ok());
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

  // A skewed client gets an immediate BYE, never an assignment.
  auto skewed = ConnectWithRetry("127.0.0.1", port, 5.0);
  ASSERT_TRUE(skewed.ok());
  {
    FrameChannel channel(skewed.value());
    Frame hello;
    hello.type = FrameType::kNetHello;
    hello.proto = fleet::kNetProtocolVersion + 1;
    hello.pid = 1;
    ASSERT_TRUE(channel.WriteFrame(hello));
    auto reply = ReadOneFrame(channel.fd());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().type, FrameType::kBye);
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
  // A SIGKILLed worker never sends its TRACE ring, so the server must
  // synthesize the in-flight iteration's trace and persist it here, next
  // to the reconstructed in-flight reproducer.
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
  // The worker writes HELLO + at least two frames per iteration, and its
  // first assignment owns 12 iterations: frame 25 always lands
  // mid-assignment, before DONE.
  doomed.die_after_frames = 25;
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
  // flight-recorder dump, which decodes as a valid spatter-trace-v1
  // document with events tagged to the in-flight iteration.
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
  EXPECT_NE(dumps[0].find(".trace.jsonl"), std::string::npos);
  std::ifstream in(dumps[0], std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto decoded = obs::TraceSnapshot::DecodeJsonl(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().events.empty());
  for (const obs::TraceEvent& ev : decoded.value().events) {
    EXPECT_EQ(ev.iteration, decoded.value().events[0].iteration);
  }
}

}  // namespace
}  // namespace spatter::net
