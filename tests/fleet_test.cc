// Fleet orchestration tests: the wire protocol (round-trips, corrupt
// frame rejection, codec-through-a-pipe), the process-tier determinism
// contract ((processes x jobs) factorization invariance in pure-generate
// mode), crash isolation (a dead worker loses no reported bugs, its
// in-flight case is persisted and re-run; scripted raw-socket workers
// drive the supervisor through deaths and garbage), and the satellite
// subsystems (cross-dialect transfer, offline corpus minification).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/coverage.h"
#include "common/strings.h"
#include "corpus/codec.h"
#include "fleet/curve.h"
#include "fleet/wire.h"
#include "fuzz/campaign.h"
#include "fuzz/minify.h"
#include "fuzz/transfer.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "runtime/sharded_campaign.h"

namespace spatter::fleet {
namespace {

namespace fs = std::filesystem;

using engine::Dialect;
using fuzz::Campaign;
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

corpus::TestCaseRecord SampleRecord() {
  corpus::TestCaseRecord rec;
  rec.kind = corpus::RecordKind::kCorpusEntry;
  rec.dialect = Dialect::kMysql;
  rec.seed = 0xfeedULL;
  rec.iteration = 7;
  rec.sdb.tables.push_back(
      {"t0", {"POINT(1 2)", "LINESTRING(0 0, 3 4)"}});
  rec.sdb.tables.push_back({"t1", {"POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))"}});
  rec.has_query = true;
  rec.query.table1 = "t0";
  rec.query.table2 = "t1";
  rec.query.predicate = "ST_Intersects";
  rec.sites = {0x1111, 0x2222, 0x3333};
  return rec;
}

std::string TempDir(const char* tag) {
  std::string dir = testing::TempDir() + "spatter_fleet_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Writes one whole line to a raw fd (scripted workers).
void WriteLine(int fd, const std::string& line) {
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

// --- Wire protocol ----------------------------------------------------------

TEST(Wire, HexRoundTripAndRejection) {
  const std::vector<uint8_t> bytes = {0x00, 0x7f, 0xab, 0xff};
  EXPECT_EQ(HexEncode(bytes), "007fabff");
  auto decoded = HexDecode("007fabff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), bytes);
  EXPECT_FALSE(HexDecode("abc").ok()) << "odd length";
  EXPECT_FALSE(HexDecode("zz").ok()) << "non-hex";
  EXPECT_FALSE(HexDecode("AB").ok()) << "uppercase is not emitted";
}

TEST(Wire, ParseU64AcceptsOnlyPlainDecimal) {
  // The one integer parser of the wire and checkpoint codecs, the oracle
  // budget suffix, and --seed.
  uint64_t value = 7;
  for (const char* bad : {"", "abc", "12x", "-1", "+1", " 1", "1 ",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(ParseU64(bad, &value)) << "'" << bad << "'";
  }
  EXPECT_EQ(value, 7u) << "a rejected token leaves the output untouched";
  ASSERT_TRUE(ParseU64("0", &value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(ParseU64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  ASSERT_TRUE(ParseU64("0042", &value));
  EXPECT_EQ(value, 42u);
}

/// The hex of a metrics snapshot document, as a COV frame carries it.
std::string MetricsHex(const obs::MetricsSnapshot& snapshot) {
  const std::string text = snapshot.EncodeText();
  return HexEncode(std::vector<uint8_t>(text.begin(), text.end()));
}

TEST(Wire, EveryFrameTypeRoundTrips) {
  Frame inflight;
  inflight.type = FrameType::kInflight;
  inflight.dialect = 2;
  inflight.slice = 5;

  Frame slice_progress;
  slice_progress.type = FrameType::kSliceProgress;
  slice_progress.dialect = 2;
  slice_progress.slice = 3;
  slice_progress.completed = 987654;
  slice_progress.queries = 40;
  slice_progress.checks = 80;
  slice_progress.findings = 3;

  Frame cov;
  cov.type = FrameType::kCov;
  cov.elapsed = 1.25;
  cov.site_keys = {0xdeadbeefULL, 0x1ULL, 0xffffffffffffffffULL};
  cov.metrics.counters["campaign.iterations"] = 1234;

  Frame entry;
  entry.type = FrameType::kEntry;
  entry.payload = {1, 2, 3, 254};

  Frame bug;
  bug.type = FrameType::kBug;
  bug.fault = static_cast<uint64_t>(faults::FaultId::kMysqlOverlapsSwappedAxes);
  bug.query_index = 17;
  bug.is_crash = true;
  bug.elapsed = 0.5;
  bug.detail = "count 3 vs 4, with spaces\tand tabs";
  bug.payload = {9, 9, 9};

  Frame done;
  done.type = FrameType::kDone;
  done.busy_seconds = 2.5;
  done.engine_seconds = 1.25;

  Frame bye;
  bye.type = FrameType::kBye;

  for (const Frame& frame :
       {inflight, slice_progress, cov, entry, bug, done, bye}) {
    const std::string line = EncodeFrame(frame);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << "one line per frame";
    auto decoded = DecodeFrame(line);
    ASSERT_TRUE(decoded.ok()) << line;
    const Frame& out = decoded.value();
    EXPECT_EQ(out.type, frame.type);
    EXPECT_EQ(out.dialect, frame.dialect);
    EXPECT_EQ(out.slice, frame.slice);
    EXPECT_EQ(out.completed, frame.completed);
    EXPECT_EQ(out.queries, frame.queries);
    EXPECT_EQ(out.checks, frame.checks);
    EXPECT_EQ(out.findings, frame.findings);
    EXPECT_NEAR(out.elapsed, frame.elapsed, 1e-6);
    EXPECT_EQ(out.site_keys, frame.site_keys);
    EXPECT_EQ(out.metrics.EncodeText(), frame.metrics.EncodeText());
    EXPECT_EQ(out.payload, frame.payload);
    EXPECT_EQ(out.fault, frame.fault);
    EXPECT_EQ(out.query_index, frame.query_index);
    EXPECT_EQ(out.is_crash, frame.is_crash);
    EXPECT_EQ(out.detail, frame.detail);
    EXPECT_NEAR(out.busy_seconds, frame.busy_seconds, 1e-6);
    EXPECT_NEAR(out.engine_seconds, frame.engine_seconds, 1e-6);
  }
}

TEST(Wire, LargeFloatsRoundTripExactly) {
  // %.6f of a float past ~1e24 runs beyond any fixed buffer; the encoder
  // must print every digit, not a truncated prefix (4.4e49 once decoded as
  // 4.4e30).
  for (double v : {4.4e49, DBL_MAX, -DBL_MAX, 1e24, 12345.5}) {
    Frame done;
    done.type = FrameType::kDone;
    done.busy_seconds = v;
    done.engine_seconds = v;
    Frame cov;
    cov.type = FrameType::kCov;
    cov.elapsed = v;
    for (const Frame& frame : {done, cov}) {
      const std::string line = EncodeFrame(frame);
      auto decoded = DecodeFrame(line);
      ASSERT_TRUE(decoded.ok()) << line;
      EXPECT_EQ(decoded.value().busy_seconds, frame.busy_seconds) << line;
      EXPECT_EQ(decoded.value().engine_seconds, frame.engine_seconds) << line;
      EXPECT_EQ(decoded.value().elapsed, frame.elapsed) << line;
      EXPECT_EQ(EncodeFrame(decoded.value()), line);
    }
  }
}

TEST(Wire, RejectsCorruptFrames) {
  // Every rejection is a Status, never a partial frame or a crash.
  const std::string metrics = MetricsHex(obs::MetricsSnapshot());
  const std::string corrupt[] = {
      "",                                   // empty line
      "SPTW1",                              // magic only
      "BADMAGIC INFLIGHT 0 1",              // wrong magic
      "SPTW1 NOSUCH 1 2",                   // unknown type
      "SPTW1 INFLIGHT 0",                   // missing slice
      "SPTW1 INFLIGHT 0 1 2",               // protocol-4 iteration field
      "SPTW1 INFLIGHT 0 x",                 // non-numeric
      "SPTW1 INFLIGHT  2",                  // torn double space
      "SPTW1 INFLIGHT 9 0",                 // dialect out of range
      "SPTW1 SLICEPROGRESS 0 1 2 3 4",      // missing findings count
      "SPTW1 SLICEPROGRESS 9 0 1 2 3 4",    // dialect out of range
      "SPTW1 SLICEPROGRESS 0 1 2 3 x 4",    // non-numeric count
      "SPTW1 SLICEPROGRESS 0 1 2",          // protocol-3 layout
      "SPTW1 COV 1.0 xyz " + metrics,       // malformed key list
      "SPTW1 COV 1.0 12345 " + metrics,     // key not 16 hex digits
      "SPTW1 COV 1.0 -",                    // protocol-4 layout, no metrics
      "SPTW1 COV 1.0 2 3 -",                // protocol-3 counters
      "SPTW1 ENTRY 0g",                     // bad hex payload
      "SPTW1 ENTRY abc",                    // odd hex payload
      "SPTW1 BUG 1 2 2 0.5 aa bb",          // is_crash not 0/1
      "SPTW1 BUG 99999 2 0 0.5 aa bb",      // fault id out of range
      "SPTW1 BUG 1 2 0 0.5 aa",             // missing payload
      "SPTW1 DONE 4.0",                     // missing engine seconds
      "SPTW1 DONE 1 2 3 4.0 5.0",           // protocol-3 counters
      "SPTW1 DONE 1 2 3 4.0 5.0 6 7 8 9",   // protocol-1 engine counters
      "SPTW1 BYE 1",                        // BYE takes no fields
      "SPTW1 STOP",                         // retired in protocol 2
      "SPTW1 HELLO 3 4242 6 2 8",           // retired in protocol 3
      "SPTW1 TRACE 3.500000 7b7d",          // retired in protocol 3
      "SPTW1 TUNE 35",                      // retired in protocol 4
      "SPTW1 SLICEDONE 0 1",                // retired in protocol 5
      "SPTW1 STATS 1.000000 " + metrics,    // retired in protocol 5
      "SPTW1 INFLIGHT 0 99999999999999999999999999",  // overflow
  };
  for (const std::string& line : corrupt) {
    EXPECT_FALSE(DecodeFrame(line).ok()) << "should reject: " << line;
  }
}

TEST(Wire, TruncatedFramePrefixesRejected) {
  // A torn write (worker killed mid-line) is some strict prefix of a
  // valid frame: every prefix must be rejected, not misparsed.
  Frame cov;
  cov.type = FrameType::kCov;
  cov.elapsed = 3.25;
  cov.site_keys = {0xabcdef0123456789ULL};
  std::string line = EncodeFrame(cov);
  line.pop_back();  // drop '\n'
  for (size_t len = 0; len < line.size(); ++len) {
    auto result = DecodeFrame(line.substr(0, len));
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(DecodeFrame(line).ok());
}

TEST(Wire, CovFrameCarriesTheMetricsSnapshot) {
  Frame cov;
  cov.type = FrameType::kCov;
  cov.elapsed = 2.75;
  cov.site_keys = {0x1ULL};
  cov.metrics.counters["campaign.iterations"] = 1234;
  cov.metrics.counters["oracle.aei.ok"] = 5678;
  cov.metrics.gauges["corpus.size"] = -3;
  obs::HistogramData h;
  h.count = 2;
  h.sum_ns = 3000;
  h.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  h.buckets[10] = 2;
  cov.metrics.histograms["engine.statement"] = h;

  const std::string line = EncodeFrame(cov);
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "one line per frame";
  auto decoded = DecodeFrame(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Frame& out = decoded.value();
  EXPECT_EQ(out.type, FrameType::kCov);
  EXPECT_NEAR(out.elapsed, 2.75, 1e-9);
  EXPECT_EQ(out.site_keys, cov.site_keys);
  // The snapshot document is canonical (sorted maps, strict codec), so
  // byte equality of the re-encoded text is the round-trip check.
  EXPECT_EQ(out.metrics.EncodeText(), cov.metrics.EncodeText());
}

TEST(Wire, RejectsCorruptCovMetrics) {
  Frame cov;
  cov.type = FrameType::kCov;
  cov.elapsed = 1.0;
  cov.metrics.counters["campaign.iterations"] = 7;
  std::string line = EncodeFrame(cov);
  line.pop_back();  // drop '\n'
  ASSERT_TRUE(DecodeFrame(line).ok());

  // Torn-write prefixes: truncating the hex payload either breaks the
  // hex framing or truncates the embedded snapshot document — both must
  // reject, never yield a partial snapshot.
  for (size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(DecodeFrame(line.substr(0, len)).ok())
        << "prefix length " << len;
  }

  const std::string garbage = "not a snapshot\n";
  const std::string garbage_hex =
      HexEncode(std::vector<uint8_t>(garbage.begin(), garbage.end()));
  const std::string corrupt[] = {
      "SPTW1 COV 1.0 - zz",                       // non-hex payload
      "SPTW1 COV 1.0 - abc",                      // odd-length hex
      "SPTW1 COV x - " + MetricsHex(cov.metrics),  // non-numeric elapsed
      "SPTW1 COV 1.0 - " + garbage_hex,           // not a snapshot document
      line + " deadbeef",                         // extra field
  };
  for (const std::string& bad : corrupt) {
    EXPECT_FALSE(DecodeFrame(bad).ok()) << "should reject: " << bad;
  }
}

TEST(Wire, CodecRoundTripsThroughRealPipe) {
  // ENTRY frames carry TestCaseCodec records; the bytes must survive the
  // pipe + hex framing byte-identically.
  const corpus::TestCaseRecord rec = SampleRecord();
  auto encoded = corpus::TestCaseCodec::Encode(rec);
  ASSERT_TRUE(encoded.ok());

  Frame entry;
  entry.type = FrameType::kEntry;
  entry.payload = encoded.value();

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string line = EncodeFrame(entry);
  WriteLine(fds[1], line);
  ::close(fds[1]);
  std::string received;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);

  auto frame = DecodeFrame(received);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().payload, encoded.value());
  auto decoded = corpus::TestCaseCodec::Decode(frame.value().payload);
  ASSERT_TRUE(decoded.ok());
  auto reencoded = corpus::TestCaseCodec::Encode(decoded.value());
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(reencoded.value(), encoded.value());
}

TEST(Wire, BugFrameCarriesDiscrepancy) {
  fuzz::Discrepancy d;
  d.iteration = 11;
  d.query_index = 4;
  d.is_crash = false;
  d.oracle = fuzz::OracleKind::kCanonicalOnly;
  d.dialect = Dialect::kMysql;
  d.query.table1 = "t0";
  d.query.table2 = "t1";
  d.query.predicate = "ST_Overlaps";
  d.sdb1.tables.push_back({"t0", {"POINT(5 6)"}});
  d.sdb1.tables.push_back({"t1", {"POINT(6 5)"}});
  d.detail = "count 1 vs 0";
  d.fault_hits = {faults::FaultId::kMysqlOverlapsSwappedAxes};
  d.elapsed_seconds = 1.5;

  auto frame = MakeBugFrame(faults::FaultId::kMysqlOverlapsSwappedAxes, d,
                            /*master_seed=*/42);
  ASSERT_TRUE(frame.ok());
  auto line_trip = DecodeFrame(EncodeFrame(frame.value()));
  ASSERT_TRUE(line_trip.ok());
  EXPECT_EQ(line_trip.value().fault,
            static_cast<uint64_t>(faults::FaultId::kMysqlOverlapsSwappedAxes));
  auto out = BugFrameToDiscrepancy(line_trip.value());
  ASSERT_TRUE(out.ok());
  const fuzz::Discrepancy& got = out.value();
  EXPECT_EQ(got.iteration, d.iteration);
  EXPECT_EQ(got.query_index, d.query_index);
  EXPECT_EQ(got.is_crash, d.is_crash);
  EXPECT_EQ(got.oracle, d.oracle);
  EXPECT_EQ(got.dialect, d.dialect);
  EXPECT_EQ(got.detail, d.detail);
  EXPECT_EQ(got.fault_hits, d.fault_hits);
  EXPECT_EQ(got.query.ToSql(), d.query.ToSql());
  EXPECT_EQ(got.sdb1.ToSql(), d.sdb1.ToSql());
  EXPECT_NEAR(got.elapsed_seconds, d.elapsed_seconds, 1e-6);

  // A finding stands only for a fault it fired: a BUG frame naming a fault
  // its record lacks is rejected.
  Frame foreign = line_trip.value();
  foreign.fault =
      static_cast<uint64_t>(faults::FaultId::kMysqlTouchesEmptyCollection);
  auto foreign_trip = DecodeFrame(EncodeFrame(foreign));
  ASSERT_TRUE(foreign_trip.ok()) << "the frame itself is well formed";
  EXPECT_FALSE(BugFrameToDiscrepancy(foreign_trip.value()).ok());
}

// --- Curve recorder ---------------------------------------------------------

TEST(CurveRecorder, ThrottlesAndSerializes) {
  CurveRecorder curve(/*min_interval_seconds=*/1.0);
  curve.Add(0.0, 10, 0, 1);
  curve.Add(0.1, 10, 0, 2);  // unchanged counters within interval: dropped
  curve.Add(0.2, 12, 0, 3);  // coverage moved: kept
  curve.Add(5.0, 12, 0, 9);  // interval passed: kept
  ASSERT_EQ(curve.samples().size(), 3u);
  EXPECT_EQ(curve.samples()[1].covered_sites, 12u);

  CurveInfo info;
  info.label = "test";
  info.seed = 7;
  info.fleet = 2;
  info.jobs = 3;
  info.duration_seconds = 5.0;
  const std::string json = curve.ToJson(info);
  EXPECT_NE(json.find("\"schema\": \"spatter-fig8-curve-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fleet\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sites\": 12"), std::string::npos);
}

// --- In-flight reconstruction ----------------------------------------------

TEST(GenerateDatabaseFor, MatchesCampaignIteration) {
  // The supervisor reconstructs a dead worker's in-flight database from
  // (seed, iteration); that is only sound if the helper's draw order
  // matches RunIteration exactly. Pin them together via a discrepancy's
  // recorded database.
  CampaignConfig config = SmallConfig(/*seed=*/555, /*iterations=*/6);
  Campaign campaign(config);
  const CampaignResult result = campaign.Run();
  ASSERT_FALSE(result.discrepancies.empty());
  for (const fuzz::Discrepancy& d : result.discrepancies) {
    const fuzz::DatabaseSpec rebuilt =
        Campaign::GenerateDatabaseFor(config, d.iteration);
    EXPECT_EQ(rebuilt.ToSql(), d.sdb1.ToSql())
        << "iteration " << d.iteration;
  }
}

// --- Fleet determinism ------------------------------------------------------

/// Starts `server` and supervises its campaign to completion.
CampaignResult RunFleet(net::FleetServer* server) {
  EXPECT_TRUE(server->Start().ok());
  return server->Run();
}

TEST(FleetSupervisor, FactorizationInvariantBugSets) {
  // --fleet=P --jobs=J must reproduce the same unique-bug FaultId set for
  // any P x J factorization of the same total slice count (pure-generate
  // mode), and match the in-process sharded runtime over the same
  // universe.
  runtime::ShardedCampaignConfig sharded;
  sharded.base = SmallConfig(/*seed=*/321, /*iterations=*/12);
  sharded.jobs = 4;
  runtime::ShardedCampaign reference(sharded);
  const std::set<faults::FaultId> expected = BugKeys(reference.Run());
  ASSERT_FALSE(expected.empty());

  for (const auto& [p, j] :
       std::vector<std::pair<size_t, size_t>>{{1, 4}, {2, 2}, {4, 1}}) {
    net::FleetConfig config;
    config.base = sharded.base;
    config.processes = p;
    config.jobs = j;
    net::FleetServer server(config);
    const CampaignResult result = RunFleet(&server);
    EXPECT_EQ(BugKeys(result), expected) << "fleet=" << p << " jobs=" << j;
    EXPECT_EQ(result.iterations_run, 12u) << "fleet=" << p << " jobs=" << j;
    EXPECT_EQ(server.respawns(), 0u);
    EXPECT_EQ(server.reassigned_slices(), 0u);
    EXPECT_EQ(server.protocol_errors(), 0u);
    EXPECT_GT(server.fleet_covered_sites(), 0u);
    EXPECT_FALSE(server.curve().samples().empty());
  }
}

// --- Crash isolation --------------------------------------------------------

/// A scripted raw-socket worker: connects to a `--serve` supervisor,
/// handshakes, and returns the fd once ASSIGN arrived, so the test can
/// write arbitrary frames and then drop the connection.
int ScriptedWorker(uint16_t port) {
  auto fd = net::ConnectWithRetry("127.0.0.1", port, 5.0);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return -1;
  Frame hello;
  hello.type = FrameType::kNetHello;
  hello.proto = kNetProtocolVersion;
  WriteLine(fd.value(), EncodeFrame(hello));
  net::FrameChannel channel(fd.value());
  std::vector<Frame> frames;
  while (std::none_of(frames.begin(), frames.end(), [](const Frame& f) {
    return f.type == FrameType::kAssign;
  })) {
    const bool open = channel.ReadFrames(1000, &frames);
    EXPECT_TRUE(open) << "connection closed before ASSIGN";
    if (!open) break;
  }
  return fd.value();
}

/// A real worker that drains whatever the supervisor (re)queues.
void RealWorker(uint16_t port) {
  net::FleetClientConfig client;
  client.port = port;
  client.connect_retry_seconds = 0.2;
  EXPECT_EQ(net::RunFleetClient(client), 0);
}

Frame InflightFrame(uint64_t slice) {
  Frame inflight;
  inflight.type = FrameType::kInflight;
  inflight.dialect = static_cast<uint64_t>(Dialect::kPostgis);
  inflight.slice = slice;
  return inflight;
}

/// A PostGIS SLICEPROGRESS completing `slice`'s iteration with this mark.
Frame ProgressFrame(uint64_t slice, uint64_t completed) {
  Frame progress;
  progress.type = FrameType::kSliceProgress;
  progress.dialect = static_cast<uint64_t>(Dialect::kPostgis);
  progress.slice = slice;
  progress.completed = completed;
  return progress;
}

std::vector<fs::path> FilesIn(const std::string& dir, const char* extension) {
  std::vector<fs::path> files;
  for (const auto& item : fs::directory_iterator(dir)) {
    if (item.path().extension() == extension) files.push_back(item.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FleetSupervisor, ScriptedCrashPersistsInflightAndRerunsIt) {
  const std::string crash_dir = TempDir("inflight");
  net::FleetConfig config;
  config.base = SmallConfig(/*seed=*/11, /*iterations=*/3);
  config.processes = 1;
  config.jobs = 1;
  config.serve = true;
  config.crash_dir = crash_dir;
  net::FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());

  // The first worker reports one bug with iteration 0 in flight and drops
  // without DONE; a real worker then runs the requeued assignment — from
  // iteration 0 again, because no SLICEPROGRESS mark moved.
  std::thread workers([port = server.port(), seed = config.base.seed] {
    const int fd = ScriptedWorker(port);
    if (fd < 0) return;
    WriteLine(fd, EncodeFrame(InflightFrame(/*slice=*/0)));
    fuzz::Discrepancy d;
    d.iteration = 0;
    d.query_index = 2;
    d.dialect = Dialect::kPostgis;
    d.query.table1 = "t0";
    d.query.table2 = "t1";
    d.query.predicate = "ST_Covers";
    d.sdb1.tables.push_back({"t0", {"POINT(1 1)"}});
    d.sdb1.tables.push_back({"t1", {"POINT(1 1)"}});
    d.detail = "pre-crash bug";
    d.fault_hits = {faults::FaultId::kPostgisCoversDisplacementPrecision};
    auto bug = MakeBugFrame(*d.fault_hits.begin(), d, seed);
    if (bug.ok()) WriteLine(fd, EncodeFrame(bug.value()));
    ::close(fd);
    RealWorker(port);
  });
  const CampaignResult result = server.Run();
  workers.join();

  // The pre-crash bug survived the worker's death, and the in-flight
  // iteration was re-run rather than skipped.
  EXPECT_TRUE(result.unique_bugs.count(
      faults::FaultId::kPostgisCoversDisplacementPrecision));
  EXPECT_EQ(result.iterations_run, 3u);
  EXPECT_EQ(server.reassigned_slices(), 1u);
  EXPECT_EQ(server.crash_skips(), 0u);

  // The in-flight case was persisted and reconstructs iteration 0's
  // database exactly; the flight recorder rides along next to it.
  EXPECT_EQ(server.crash_reproducers_persisted(), 1u);
  const std::vector<fs::path> repros = FilesIn(crash_dir, ".sptc");
  ASSERT_EQ(repros.size(), 1u);
  std::ifstream in(repros[0], std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  auto decoded = corpus::TestCaseCodec::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().kind, corpus::RecordKind::kReproducer);
  EXPECT_EQ(decoded.value().iteration, 0u);
  EXPECT_EQ(
      decoded.value().sdb.ToSql(),
      Campaign::GenerateDatabaseFor(config.base, /*iteration=*/0).ToSql());

  // The dump is synthesized from (seed, iteration) and must be a valid
  // spatter-trace-v1 document whose events all belong to the crashed
  // iteration.
  const std::vector<fs::path> flights = FilesIn(crash_dir, ".jsonl");
  ASSERT_EQ(flights.size(), 1u);
  const std::string flight_name = flights[0].filename().string();
  EXPECT_NE(flight_name.find("flight-w0-"), std::string::npos) << flight_name;
  EXPECT_NE(flight_name.find("-i0.trace.jsonl"), std::string::npos)
      << flight_name;
  std::ifstream fin(flights[0], std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(fin)),
                         std::istreambuf_iterator<char>());
  auto trace = obs::TraceSnapshot::DecodeJsonl(text);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_FALSE(trace.value().events.empty());
  for (const obs::TraceEvent& ev : trace.value().events) {
    EXPECT_EQ(ev.iteration, 0u);
  }
  fs::remove_all(crash_dir);
}

TEST(FleetSupervisor, DeterministicKillerKeepsItsBugButIsNotCredited) {
  // Three incarnations in a row die inside iteration 0, so the supervisor
  // skips it. The bug their BUG frames sent stays; the iteration never
  // completed, so it is never credited, and the totals are those of
  // iterations 1 and 2 alone.
  net::FleetConfig config;
  config.base = SmallConfig(/*seed=*/13, /*iterations=*/3);
  config.processes = 1;
  config.jobs = 1;
  config.serve = true;
  net::FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  fuzz::Discrepancy killer;
  killer.iteration = 0;
  killer.dialect = Dialect::kPostgis;
  killer.query.table1 = "t0";
  killer.query.table2 = "t1";
  killer.query.predicate = "ST_Covers";
  killer.sdb1.tables.push_back({"t0", {"POINT(1 1)"}});
  killer.sdb1.tables.push_back({"t1", {"POINT(1 1)"}});
  killer.detail = "found before every death";
  killer.fault_hits = {faults::FaultId::kPostgisCoversDisplacementPrecision};
  std::thread workers([&, port = server.port()] {
    for (int death = 0; death < 3; ++death) {
      const int fd = ScriptedWorker(port);
      if (fd < 0) return;
      WriteLine(fd, EncodeFrame(InflightFrame(/*slice=*/0)));
      auto bug = MakeBugFrame(*killer.fault_hits.begin(), killer,
                              config.base.seed);
      if (bug.ok()) WriteLine(fd, EncodeFrame(bug.value()));
      ::close(fd);
    }
    RealWorker(port);
  });
  const CampaignResult result = server.Run();
  workers.join();

  EXPECT_EQ(server.crash_skips(), 1u);
  ASSERT_TRUE(result.unique_bugs.count(*killer.fault_hits.begin()));
  EXPECT_EQ(result.unique_bugs.at(*killer.fault_hits.begin()).detail,
            killer.detail);
  Campaign reference(config.base);
  CampaignResult want;
  for (size_t i : {1, 2}) {
    reference.RunIterationAt(i, &want, Campaign::NowSeconds());
  }
  EXPECT_GT(want.findings, 0u) << "iterations 1 and 2 find something";
  EXPECT_EQ(result.iterations_run, 2u);
  EXPECT_EQ(result.queries_run, want.queries_run);
  EXPECT_EQ(result.checks_run, want.checks_run);
  EXPECT_EQ(result.findings, want.findings);
}

TEST(FleetSupervisor, FinishedSlicesAreNotPersistedAsInflight) {
  const std::string crash_dir = TempDir("slicedone");
  net::FleetConfig config;
  config.base = SmallConfig(/*seed=*/19, /*iterations=*/4);
  config.processes = 1;
  config.jobs = 2;
  config.serve = true;
  config.crash_dir = crash_dir;
  net::FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  // Slice 0 announces iteration 0 and completes it (SLICEPROGRESS);
  // slice 1 announces iteration 1 and the worker dies inside it. Only
  // slice 1's case is genuinely in flight.
  std::thread workers([port = server.port()] {
    const int fd = ScriptedWorker(port);
    if (fd < 0) return;
    WriteLine(fd, EncodeFrame(InflightFrame(/*slice=*/0)));
    WriteLine(fd, EncodeFrame(ProgressFrame(/*slice=*/0, /*completed=*/1)));
    WriteLine(fd, EncodeFrame(InflightFrame(/*slice=*/1)));
    ::close(fd);
    RealWorker(port);
  });
  const CampaignResult result = server.Run();
  workers.join();
  EXPECT_EQ(result.iterations_run, 4u);
  EXPECT_EQ(server.crash_reproducers_persisted(), 1u);
  // Exactly one reproducer plus its flight trace — nothing for the
  // cleanly finished slice 0.
  std::vector<std::string> files;
  for (const auto& item : fs::directory_iterator(crash_dir)) {
    files.push_back(item.path().filename().string());
  }
  ASSERT_EQ(files.size(), 2u);
  std::sort(files.begin(), files.end());  // "flight-..." < "inflight-..."
  EXPECT_NE(files[0].find("-i1.trace.jsonl"), std::string::npos)
      << "persisted " << files[0] << ", want slice 1's flight trace";
  EXPECT_NE(files[1].find("i1.sptc"), std::string::npos)
      << "persisted " << files[1] << ", want slice 1's iteration 1";
  fs::remove_all(crash_dir);
}

TEST(FleetSupervisor, SkipsGarbageFramesWithoutDesync) {
  net::FleetConfig config;
  config.base = SmallConfig(/*seed=*/13, /*iterations=*/2);
  config.processes = 1;
  config.jobs = 1;
  config.serve = true;
  net::FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  std::thread worker([port = server.port(), seed = config.base.seed] {
    const int fd = ScriptedWorker(port);
    if (fd < 0) return;
    WriteLine(fd, "complete garbage, not a frame at all\n");
    fuzz::Discrepancy d;
    d.iteration = 1;
    d.dialect = Dialect::kMysql;
    d.query.table1 = "t0";
    d.query.table2 = "t0";
    d.query.predicate = "ST_Touches";
    d.sdb1.tables.push_back({"t0", {"POINT(0 0)"}});
    d.detail = "bug between garbage";
    d.fault_hits = {faults::FaultId::kMysqlTouchesEmptyCollection};
    auto bug = MakeBugFrame(*d.fault_hits.begin(), d, seed);
    if (bug.ok()) WriteLine(fd, EncodeFrame(bug.value()));
    WriteLine(fd, "SPTW1 HELLO half a frame\n");
    // Both iterations complete; SLICEPROGRESS credits them, DONE nothing.
    for (uint64_t completed = 1; completed <= 2; ++completed) {
      WriteLine(fd, EncodeFrame(ProgressFrame(/*slice=*/0, completed)));
    }
    Frame done;
    done.type = FrameType::kDone;
    WriteLine(fd, EncodeFrame(done));
    // Hold the connection until the supervisor says goodbye.
    net::FrameChannel channel(fd);
    std::vector<Frame> bye;
    while (bye.empty() && channel.ReadFrames(1000, &bye)) {
    }
    ::close(fd);
  });
  const CampaignResult result = server.Run();
  worker.join();
  EXPECT_EQ(server.protocol_errors(), 2u);
  EXPECT_EQ(server.reassigned_slices(), 0u) << "clean DONE: nothing requeued";
  EXPECT_TRUE(result.unique_bugs.count(
      faults::FaultId::kMysqlTouchesEmptyCollection))
      << "valid frames around garbage still land";
  EXPECT_EQ(result.iterations_run, 2u);
}

TEST(FleetSupervisor, SigkilledLocalWorkerIsRespawnedAndLosesNothing) {
  CampaignConfig base = SmallConfig(/*seed=*/77, /*iterations=*/24);
  base.queries_per_iteration = 40;
  runtime::ShardedCampaignConfig sharded;
  sharded.base = base;
  sharded.jobs = 2;
  runtime::ShardedCampaign reference(sharded);
  const CampaignResult expected = reference.Run();
  ASSERT_FALSE(expected.unique_bugs.empty());

  // Deterministic live SIGKILL via the worker fault seam: the only local
  // child's first incarnation kills itself right after its 9th frame —
  // always mid-assignment (its 24 iterations write at least INFLIGHT +
  // SLICEPROGRESS each) and always a real SIGKILL mid-stream.
  net::FleetConfig config;
  config.base = base;
  config.processes = 1;
  config.jobs = 2;
  config.crash_dir = TempDir("sigkill");
  config.cov_interval_seconds = 0.02;
  config.worker0_die_after_frames = 9;
  net::FleetServer server(config);
  const CampaignResult result = RunFleet(&server);

  EXPECT_EQ(server.respawns(), 1u)
      << "the seamed child dies exactly once and is respawned";
  EXPECT_EQ(server.reassigned_slices(), 2u);
  EXPECT_EQ(server.protocol_errors(), 0u);
  // The requeue re-ran the in-flight iterations, so nothing is lost: the
  // bug set, its attribution, and the iteration count are the
  // uninterrupted run's.
  EXPECT_EQ(BugKeys(result), BugKeys(expected));
  EXPECT_EQ(result.UniqueBugsByOracle(), expected.UniqueBugsByOracle());
  EXPECT_EQ(result.iterations_run, 24u);
  EXPECT_FALSE(FilesIn(config.crash_dir, ".sptc").empty());
  EXPECT_FALSE(FilesIn(config.crash_dir, ".jsonl").empty());
  fs::remove_all(config.crash_dir);
}

TEST(FleetSupervisor, SigkilledWorkerIsCreditedOnce) {
  // A worker's iteration is credited when its SLICEPROGRESS arrives and
  // nowhere else, so wherever in its stream a worker is SIGKILLed, the
  // fleet's totals are the uninterrupted in-process run's: an iteration
  // it never credited is re-run and credited once.
  CampaignConfig base = SmallConfig(/*seed=*/77, /*iterations=*/24);
  base.queries_per_iteration = 40;
  base.oracles = fuzz::ParseOracleSuite("aei,tlp").Take();
  runtime::ShardedCampaignConfig sharded;
  sharded.base = base;
  sharded.jobs = 2;
  const CampaignResult expected = runtime::ShardedCampaign(sharded).Run();
  ASSERT_FALSE(expected.unique_bugs.empty());

  for (const uint64_t kill : {6, 9, 12, 15, 21}) {
    SCOPED_TRACE("worker killed after frame " + std::to_string(kill));
    net::FleetConfig config;
    config.base = base;
    config.processes = 1;
    config.jobs = 2;
    config.cov_interval_seconds = 0;  // COV in every iteration
    config.worker0_die_after_frames = kill;
    net::FleetServer server(config);
    const CampaignResult result = RunFleet(&server);
    EXPECT_EQ(server.respawns(), 1u);
    EXPECT_EQ(result.iterations_run, expected.iterations_run);
    EXPECT_EQ(result.queries_run, expected.queries_run);
    EXPECT_EQ(result.checks_run, expected.checks_run);
    EXPECT_EQ(result.findings, expected.findings);
    EXPECT_EQ(BugKeys(result), BugKeys(expected));
    EXPECT_EQ(result.UniqueBugsByOracle(), expected.UniqueBugsByOracle());
  }
}

TEST(FleetSupervisor, ForeignProgressIsRejectedAndCreditsNothing) {
  // A peer may announce and complete only the next iteration of a slice
  // its assignment holds. This one holds slice 0 of two; before it dies it
  // sends a SLICEPROGRESS for slice 1 (phantom work), an INFLIGHT for
  // slice 1 and a SLICEPROGRESS for slice 0 that skips a mark (iterations
  // that never ran). Each is a protocol error that credits nothing, so the
  // totals and the bug set are the in-process run's.
  CampaignConfig base = SmallConfig(/*seed=*/77, /*iterations=*/8);
  runtime::ShardedCampaignConfig sharded;
  sharded.base = base;
  sharded.jobs = 2;
  const CampaignResult expected = runtime::ShardedCampaign(sharded).Run();
  ASSERT_GT(expected.findings, 0u);

  net::FleetConfig config;
  config.base = base;
  config.processes = 2;
  config.jobs = 1;
  config.serve = true;
  net::FleetServer server(config);
  ASSERT_TRUE(server.Start().ok());
  std::thread workers([port = server.port()] {
    const int fd = ScriptedWorker(port);  // assigned slice 0
    if (fd < 0) return;
    Frame foreign = ProgressFrame(/*slice=*/1, /*completed=*/1);
    foreign.queries = 25;
    foreign.checks = 25;
    foreign.findings = 3;
    WriteLine(fd, EncodeFrame(foreign));
    WriteLine(fd, EncodeFrame(InflightFrame(/*slice=*/1)));
    WriteLine(fd, EncodeFrame(ProgressFrame(/*slice=*/0, /*completed=*/2)));
    ::close(fd);
    RealWorker(port);
  });
  const CampaignResult result = server.Run();
  workers.join();

  EXPECT_EQ(server.protocol_errors(), 3u);
  EXPECT_EQ(result.iterations_run, expected.iterations_run);
  EXPECT_EQ(result.queries_run, expected.queries_run);
  EXPECT_EQ(result.checks_run, expected.checks_run);
  EXPECT_EQ(result.findings, expected.findings);
  EXPECT_EQ(BugKeys(result), BugKeys(expected));
  EXPECT_EQ(result.UniqueBugsByOracle(), expected.UniqueBugsByOracle());
}

// --- Cross-dialect transfer -------------------------------------------------

TEST(CrossDialectTransfer, ReplaysEveryEntryAgainstOtherDialects) {
  CampaignConfig config = SmallConfig(/*seed=*/99, /*iterations=*/18);
  config.corpus.enabled = true;
  Campaign campaign(config);
  campaign.Run();
  std::unique_ptr<corpus::Corpus> corpus = campaign.TakeCorpus();
  ASSERT_TRUE(corpus != nullptr);
  const size_t before = corpus->size();
  ASSERT_GT(before, 0u);

  const fuzz::TransferStats stats =
      fuzz::CrossDialectCorpusTransfer(corpus.get(), /*enable_faults=*/true);
  EXPECT_EQ(stats.entries, before);
  EXPECT_EQ(stats.replays, before * 3) << "three other dialects per entry";
  EXPECT_EQ(corpus->size(), before + stats.admitted);
  // Transferred copies are retagged, never duplicated in place.
  size_t postgis = 0;
  for (const auto& entry : corpus->Entries()) {
    if (entry.dialect == Dialect::kPostgis) postgis++;
  }
  EXPECT_EQ(postgis, before) << "original entries stay untouched";
}

// --- Offline minification ---------------------------------------------------

TEST(Minify, ReducesAndDedupsOnDisk) {
  const std::string dir = TempDir("minify");
  CampaignConfig config = SmallConfig(/*seed=*/123, /*iterations=*/15);
  config.corpus.enabled = true;
  Campaign campaign(config);
  campaign.Run();
  std::unique_ptr<corpus::Corpus> corpus = campaign.TakeCorpus();
  ASSERT_TRUE(corpus != nullptr);
  ASSERT_GT(corpus->size(), 0u);
  ASSERT_TRUE(corpus->SaveTo(dir).ok());
  const size_t saved = corpus->size();

  corpus::CorpusOptions options;
  options.enabled = true;
  auto stats = fuzz::MinifyCorpusDir(dir, options, /*enable_faults=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().loaded, saved);
  EXPECT_EQ(stats.value().kept + stats.value().duplicates_dropped, saved);
  EXPECT_GT(stats.value().kept, 0u);
  EXPECT_GT(stats.value().replays, saved) << "reduction actually replayed";

  // The rewritten directory holds exactly the kept entries and still
  // round-trips through the loader.
  corpus::Corpus reloaded(options);
  auto loaded = reloaded.LoadFrom(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), stats.value().kept);
  // Minification is idempotent once signatures are grounded: a second
  // pass must not drop anything further.
  auto again = fuzz::MinifyCorpusDir(dir, options, /*enable_faults=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().kept, stats.value().kept);
  EXPECT_EQ(again.value().duplicates_dropped, 0u);
  fs::remove_all(dir);
}

// --- Corpus admission log ---------------------------------------------------

TEST(CorpusAdmissionLog, DrainsGenuineAdmitsOnly) {
  corpus::CorpusOptions options;
  options.enabled = true;
  options.log_admissions = true;
  corpus::Corpus corpus(options);

  corpus::TestCaseRecord fresh = SampleRecord();
  EXPECT_TRUE(corpus.Admit(fresh));

  corpus::TestCaseRecord restored = SampleRecord();
  restored.sites = {0x9999};  // new signature, but via Restore
  EXPECT_TRUE(corpus.Restore(restored));

  const auto drained = corpus.TakeNewlyAdmitted();
  ASSERT_EQ(drained.size(), 1u) << "Restores are never echoed";
  EXPECT_EQ(drained[0].sites, fresh.sites);
  EXPECT_TRUE(corpus.TakeNewlyAdmitted().empty()) << "drain empties the log";
}

}  // namespace
}  // namespace spatter::fleet
