// Checkpoint/resume tests: the v2 codec (round-trip, corruption /
// truncation / version-skew rejection), the atomic-persist contract for
// every state file (checkpoint, corpus entries, curve JSON) under
// mid-write kills, and the crash-equivalence pin — a fleet supervisor
// SIGKILLed at deterministic fault-injection points (die after N frames /
// N checkpoints) and resumed must report the identical unique-bug set,
// per-oracle attribution, counts and final coverage as an uninterrupted run,
// including across a different P x J factorization on resume.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fsio.h"
#include "common/strings.h"
#include "corpus/codec.h"
#include "corpus/corpus.h"
#include "fleet/checkpoint.h"
#include "fleet/curve.h"
#include "fleet/wire.h"
#include "fuzz/campaign.h"
#include "net/fleet_server.h"

namespace spatter::fleet {
namespace {

namespace fs = std::filesystem;

using engine::Dialect;
using fuzz::CampaignConfig;
using fuzz::CampaignResult;
using net::FleetConfig;
using net::FleetServer;

CampaignConfig SmallConfig(uint64_t seed, size_t iterations) {
  CampaignConfig config;
  config.dialect = Dialect::kPostgis;
  config.seed = seed;
  config.iterations = iterations;
  config.queries_per_iteration = 25;
  config.generator.num_geometries = 8;
  return config;
}

std::string TempDir(const char* tag) {
  std::string dir = testing::TempDir() + "spatter_ckpt_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// FaultId -> detecting oracle of every unique bug: equality of this map
/// is exactly what byte-identical `bug-set:` + `bug-set-by-oracle:`
/// lines require (both lines are derived from it deterministically).
std::map<faults::FaultId, fuzz::OracleKind> BugOracleMap(
    const CampaignResult& r) {
  std::map<faults::FaultId, fuzz::OracleKind> out;
  for (const auto& [id, d] : r.unique_bugs) out[id] = d.oracle;
  return out;
}

/// Starts `server` and supervises its campaign to completion.
CampaignResult RunFleet(FleetServer* server) {
  EXPECT_TRUE(server->Start().ok());
  return server->Run();
}

/// Runs a fleet supervisor in a forked child (the fault seams SIGKILL the
/// whole process, which must not be the test runner) and returns the
/// child's wait status.
int RunFleetInChild(const FleetConfig& config) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    FleetServer server(config);
    RunFleet(&server);
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

bool KilledBySigkill(int status) {
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

fuzz::Discrepancy SampleBug() {
  fuzz::Discrepancy d;
  d.iteration = 11;
  d.query_index = 4;
  d.is_crash = false;
  d.oracle = fuzz::OracleKind::kIndex;
  d.dialect = Dialect::kMysql;
  d.query.table1 = "t0";
  d.query.table2 = "t1";
  d.query.predicate = "ST_Overlaps";
  d.sdb1.tables.push_back({"t0", {"POINT(5 6)"}});
  d.sdb1.tables.push_back({"t1", {"POINT(6 5)"}});
  d.detail = "count 1 vs 0";
  d.fault_hits = {faults::FaultId::kMysqlOverlapsSwappedAxes};
  d.elapsed_seconds = 1.5;
  return d;
}

CheckpointState SampleState() {
  CheckpointState state;
  state.base.seed = 7;
  state.base.iterations = 20;
  state.base.queries_per_iteration = 30;
  state.base.generator.num_geometries = 9;
  state.base.enable_faults = true;
  state.base.generator.derivative_enabled = false;
  state.base.oracles = fuzz::ParseOracleSuite("aei,diff:duckdb,tlp").Take();
  state.base.corpus.enabled = true;
  state.base.corpus.mutate_pct = 70;
  state.dialects = {Dialect::kPostgis, Dialect::kMysql};
  state.total_slices = 8;
  state.duration_seconds = 12.5;
  state.elapsed_seconds = 3.25;
  state.iterations_run = 10;
  state.queries_run = 300;
  state.checks_run = 300;
  state.findings = 12;
  state.busy_seconds = 1.5;
  state.engine_seconds = 0.75;
  state.completed[{0, 0}] = 3;
  state.completed[{2, 5}] = 1;
  state.unique_bugs.emplace_back(faults::FaultId::kMysqlOverlapsSwappedAxes,
                                 SampleBug());
  state.covered_sites = {1, 2, 0xdeadbeefULL};
  state.curve = {{0.5, 10, 0, 2}, {1.25, 14, 1, 5}};
  state.corpus_dir = "corpus dir/with spaces";
  state.corpus_entries = 2;
  state.corpus_signatures = {0xaULL, 0xbULL};
  state.metrics.counters["campaign.iterations"] = 10;
  state.metrics.gauges["corpus.size"] = 4;
  obs::HistogramData hist;
  hist.count = 3;
  hist.sum_ns = 4500;
  hist.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  hist.buckets[9] = 3;
  state.metrics.histograms["engine.statement"] = hist;
  return state;
}

/// Builds a minimal v2 document from body lines (valid trailer included).
std::string Doc(const std::vector<std::string>& body) {
  std::string out = std::string(kCheckpointMagic) + "\n";
  for (const std::string& line : body) out += line + "\n";
  out += "end " + std::to_string(body.size()) + "\n";
  return out;
}

constexpr const char kValidConfigLine[] =
    "config 42 10 25 8 4 1 1 postgis aei 0 50 0";
constexpr const char kValidCountersLine[] = "counters 0 0 0 0 0 0 0";

// --- Codec ------------------------------------------------------------------

TEST(CheckpointCodec, RoundTripsEveryField) {
  const CheckpointState state = SampleState();
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CheckpointState& out = decoded.value();
  EXPECT_EQ(out.base.seed, state.base.seed);
  EXPECT_EQ(out.base.iterations, state.base.iterations);
  EXPECT_EQ(out.base.queries_per_iteration,
            state.base.queries_per_iteration);
  EXPECT_EQ(out.base.generator.num_geometries,
            state.base.generator.num_geometries);
  EXPECT_EQ(out.base.enable_faults, state.base.enable_faults);
  EXPECT_EQ(out.base.generator.derivative_enabled,
            state.base.generator.derivative_enabled);
  EXPECT_EQ(fuzz::FormatOracleSuite(out.base.oracles),
            fuzz::FormatOracleSuite(state.base.oracles));
  EXPECT_EQ(out.base.corpus.enabled, state.base.corpus.enabled);
  EXPECT_EQ(out.base.corpus.mutate_pct, state.base.corpus.mutate_pct);
  EXPECT_EQ(out.base.dialect, state.dialects.front());
  EXPECT_EQ(out.dialects, state.dialects);
  EXPECT_EQ(out.total_slices, state.total_slices);
  EXPECT_EQ(out.duration_seconds, state.duration_seconds);
  EXPECT_EQ(out.elapsed_seconds, state.elapsed_seconds);
  EXPECT_EQ(out.iterations_run, state.iterations_run);
  EXPECT_EQ(out.queries_run, state.queries_run);
  EXPECT_EQ(out.checks_run, state.checks_run);
  EXPECT_EQ(out.findings, state.findings);
  EXPECT_EQ(out.busy_seconds, state.busy_seconds);
  EXPECT_EQ(out.engine_seconds, state.engine_seconds);
  EXPECT_EQ(out.completed, state.completed);
  EXPECT_EQ(out.covered_sites, state.covered_sites);
  ASSERT_EQ(out.curve.size(), state.curve.size());
  for (size_t i = 0; i < out.curve.size(); ++i) {
    EXPECT_EQ(out.curve[i].elapsed_seconds, state.curve[i].elapsed_seconds);
    EXPECT_EQ(out.curve[i].covered_sites, state.curve[i].covered_sites);
    EXPECT_EQ(out.curve[i].unique_bugs, state.curve[i].unique_bugs);
    EXPECT_EQ(out.curve[i].iterations, state.curve[i].iterations);
  }
  EXPECT_EQ(out.corpus_dir, state.corpus_dir);
  EXPECT_EQ(out.corpus_entries, state.corpus_entries);
  EXPECT_EQ(out.corpus_signatures, state.corpus_signatures);
  ASSERT_EQ(out.unique_bugs.size(), 1u);
  EXPECT_EQ(out.unique_bugs[0].first,
            faults::FaultId::kMysqlOverlapsSwappedAxes);
  const fuzz::Discrepancy& bug = out.unique_bugs[0].second;
  const fuzz::Discrepancy want = SampleBug();
  EXPECT_EQ(bug.iteration, want.iteration);
  EXPECT_EQ(bug.query_index, want.query_index);
  EXPECT_EQ(bug.oracle, want.oracle);
  EXPECT_EQ(bug.dialect, want.dialect);
  EXPECT_EQ(bug.detail, want.detail);
  EXPECT_EQ(bug.query.ToSql(), want.query.ToSql());
  EXPECT_EQ(bug.sdb1.ToSql(), want.sdb1.ToSql());
  EXPECT_EQ(bug.fault_hits, want.fault_hits);
  // The metrics snapshot text form is canonical, so byte equality holds.
  EXPECT_EQ(out.metrics.EncodeText(), state.metrics.EncodeText());
  // Encode -> decode -> encode is a fixed point (stable on-disk form).
  EXPECT_EQ(EncodeCheckpoint(out), EncodeCheckpoint(state));
}

TEST(CheckpointCodec, DocumentIsPinned) {
  // Every field the codec writes holds a value other than its default, so
  // a change to the state or the codec that moves any of them on disk
  // fails here, byte for byte.
  CheckpointState state = SampleState();
  state.base.iterations = 33;
  state.base.enable_faults = false;
  state.base.oracles =
      fuzz::ParseOracleSuite("aei,diff:duckdb,tlp/3").Take();
  EXPECT_EQ(
      EncodeCheckpoint(state),
      "spatter-checkpoint-v2\n"
      "config 7 33 30 9 8 0 0 postgis,mysql aei,diff:duckdb,tlp/3 1 70 12.5\n"
      "counters 3.25 10 300 300 12 1.5 0.75\n"
      "progress 0 0 3\n"
      "progress 2 5 1\n"
      "bug SPTW1 BUG 30 4 0 1.500000 636f756e7420312076732030 "
      "53505443020001024eb3454adf5403eb0b0000000000000000020000000200000074"
      "3001000000150000000101000000000000000000144000000000000018400200000074"
      "310100000015000000010100000000000000000018400000000000001440010200000074"
      "300200000074310b00000053545f4f7665726c6170730000000000000000000000000000"
      "0000000000f03f00000000000000000000000000000000000000000000f03f00000000"
      "0000000000000000000000000000000000010000001e0000000302\n"
      "sites 0000000000000001,0000000000000002,00000000deadbeef\n"
      "curve 0.5 10 0 2\n"
      "curve 1.25 14 1 5\n"
      "corpus 2 000000000000000a,000000000000000b corpus dir/with spaces\n"
      "metrics 737061747465722d6d6574726963732d746578742d76310a632063616d7061"
      "69676e2e697465726174696f6e732031300a6720636f727075732e73697a6520340a68"
      "20656e67696e652e73746174656d656e742033203435303020393a330a656e6420330a"
      "\n"
      "end 10\n");
}

TEST(CheckpointCodec, MetricsLineIsOptionalAndValidated) {
  // Pre-telemetry checkpoints (no metrics line) still decode — to an
  // empty snapshot, not an error — so old campaign dirs stay resumable.
  auto old_style = DecodeCheckpoint(Doc({kValidConfigLine,
                                         kValidCountersLine}));
  ASSERT_TRUE(old_style.ok()) << old_style.status().ToString();
  EXPECT_TRUE(old_style.value().metrics.empty());

  obs::MetricsSnapshot snap;
  snap.counters["campaign.iterations"] = 42;
  const std::string text = snap.EncodeText();
  const std::string hex =
      HexEncode(std::vector<uint8_t>(text.begin(), text.end()));
  auto with_metrics = DecodeCheckpoint(
      Doc({kValidConfigLine, kValidCountersLine, "metrics " + hex}));
  ASSERT_TRUE(with_metrics.ok()) << with_metrics.status().ToString();
  EXPECT_EQ(with_metrics.value().metrics.CounterOr("campaign.iterations"),
            42u);

  const std::string garbage = "not a metrics document\n";
  const std::string garbage_hex =
      HexEncode(std::vector<uint8_t>(garbage.begin(), garbage.end()));
  const std::vector<std::vector<std::string>> corrupt = {
      {kValidConfigLine, kValidCountersLine, "metrics"},        // no payload
      {kValidConfigLine, kValidCountersLine, "metrics zz"},     // bad hex
      {kValidConfigLine, kValidCountersLine, "metrics abc"},    // odd hex
      {kValidConfigLine, kValidCountersLine,
       "metrics " + garbage_hex},                               // bad doc
      {kValidConfigLine, kValidCountersLine, "metrics " + hex,
       "metrics " + hex},                                       // duplicate
      {kValidConfigLine, kValidCountersLine,
       "metrics " + hex + " extra"},                            // extra field
  };
  for (const auto& body : corrupt) {
    EXPECT_FALSE(DecodeCheckpoint(Doc(body)).ok()) << body.back();
  }
}

TEST(CheckpointCodec, VersionSkewRejected) {
  std::string doc = Doc({kValidConfigLine, kValidCountersLine});
  auto ok = DecodeCheckpoint(doc);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  // v1 documents (no findings count, fault ids outside their BUG frames)
  // and any future format are refused, not guessed at.
  for (const char* magic : {"spatter-checkpoint-v1", "spatter-checkpoint-v3"}) {
    std::string other = doc;
    other.replace(0, std::string(kCheckpointMagic).size(), magic);
    auto skew = DecodeCheckpoint(other);
    ASSERT_FALSE(skew.ok()) << magic;
    EXPECT_NE(skew.status().ToString().find("version skew"),
              std::string::npos)
        << magic;
  }
}

TEST(CheckpointCodec, CorruptDocumentsRejected) {
  auto bug = MakeBugFrame(faults::FaultId::kMysqlOverlapsSwappedAxes,
                          SampleBug(), 7);
  ASSERT_TRUE(bug.ok()) << bug.status().ToString();
  std::string frame = EncodeFrame(bug.value());
  frame.pop_back();  // the '\n'
  ASSERT_TRUE(DecodeCheckpoint(Doc({kValidConfigLine, kValidCountersLine,
                                    "bug " + frame}))
                  .ok());
  // v1 put the fault id before the frame.
  const std::string v1_bug = "30 " + frame;
  // A finding can stand only for a fault it fired.
  Frame foreign_frame = bug.value();
  foreign_frame.fault =
      static_cast<uint64_t>(faults::FaultId::kMysqlTouchesEmptyCollection);
  std::string foreign_bug = EncodeFrame(foreign_frame);
  foreign_bug.pop_back();
  const std::vector<std::vector<std::string>> corrupt_bodies = {
      {},                                             // no config/counters
      {kValidCountersLine},                           // missing config
      {kValidConfigLine},                             // missing counters
      {kValidConfigLine, kValidCountersLine, kValidCountersLine},  // dup
      {kValidConfigLine, kValidConfigLine, kValidCountersLine},    // dup
      {"config 42 10 25 8 4 1 1 postgis aei 0 50",    // missing field
       kValidCountersLine},
      {"config 42 10 25 8 0 1 1 postgis aei 0 50 0",  // zero slices
       kValidCountersLine},
      {"config 42 10 25 8 4 1 1 postgres aei 0 50 0",  // bad dialect
       kValidCountersLine},
      {"config 42 10 25 8 4 1 1 postgis nosuch 0 50 0",  // bad oracle
       kValidCountersLine},
      {"config 42 10 25 8 4 1 1 postgis aei 0 500 0",  // mutate > 100
       kValidCountersLine},
      {kValidConfigLine, kValidCountersLine, "progress 9 0 1"},  // dialect
      {kValidConfigLine, kValidCountersLine, "progress 0 1"},    // fields
      {kValidConfigLine, "counters 0 0 0 0 0 0"},  // v1 counters
      {kValidConfigLine, kValidCountersLine, "bug"},
      {kValidConfigLine, kValidCountersLine, "bug "},
      {kValidConfigLine, kValidCountersLine, "bug not a frame"},
      {kValidConfigLine, kValidCountersLine, "bug SPTW1 BUG"},
      {kValidConfigLine, kValidCountersLine, "bug " + v1_bug},   // v1 line
      {kValidConfigLine, kValidCountersLine, "bug " + foreign_bug},
      {kValidConfigLine, kValidCountersLine, "sites xyz"},
      {kValidConfigLine, kValidCountersLine, "sites 1234"},  // short key
      {kValidConfigLine, kValidCountersLine, "curve 1.0 2 3"},
      {kValidConfigLine, kValidCountersLine, "frobnicate 1"},  // unknown
      {kValidConfigLine, kValidCountersLine, "corpus 1 - "},  // empty dir
  };
  for (const auto& body : corrupt_bodies) {
    const std::string doc = Doc(body);
    EXPECT_FALSE(DecodeCheckpoint(doc).ok()) << doc;
  }
  // Trailer corruption on an otherwise valid document.
  const std::string valid = Doc({kValidConfigLine, kValidCountersLine});
  ASSERT_TRUE(DecodeCheckpoint(valid).ok());
  EXPECT_FALSE(DecodeCheckpoint(std::string(kCheckpointMagic) + "\n" +
                                kValidConfigLine + "\n" +
                                kValidCountersLine + "\nend 7\n")
                   .ok())
      << "wrong end count";
}

TEST(CheckpointCodec, FloatFieldsAcceptOnlyFiniteDecimals) {
  // Every float field of the wire and checkpoint grammars, as a template
  // whose '@' is the field under test. Each must take a plain decimal and
  // refuse what strtod alone would also take: a peer or a file that says
  // "inf" must not set an endless duration budget.
  const std::string snapshot = obs::MetricsSnapshot().EncodeText();
  const std::string metrics_hex =
      HexEncode(std::vector<uint8_t>(snapshot.begin(), snapshot.end()));
  auto bug = MakeBugFrame(faults::FaultId::kMysqlOverlapsSwappedAxes,
                          SampleBug(), 7);
  ASSERT_TRUE(bug.ok()) << bug.status().ToString();
  std::string bug_line = EncodeFrame(bug.value());
  bug_line.pop_back();  // the '\n'
  std::vector<std::string> bug_fields = Split(bug_line, ' ');
  ASSERT_EQ(bug_fields.size(), 8u);
  bug_fields[5] = "@";  // SPTW1 BUG <fault> <query> <crash> <elapsed> ...
  bug_line.clear();
  for (const std::string& f : bug_fields) {
    bug_line += (bug_line.empty() ? "" : " ") + f;
  }
  const std::vector<std::string> wire = {
      "SPTW1 COV @ - " + metrics_hex,
      "SPTW1 DONE @ 0.5",
      "SPTW1 DONE 0.5 @",
      bug_line,
  };
  const std::vector<std::vector<std::string>> checkpoint = {
      {"config 42 10 25 8 4 1 1 postgis aei 0 50 @", kValidCountersLine},
      {kValidConfigLine, "counters @ 0 0 0 0 0 0"},
      {kValidConfigLine, "counters 0 0 0 0 0 @ 0"},
      {kValidConfigLine, "counters 0 0 0 0 0 0 @"},
      {kValidConfigLine, kValidCountersLine, "curve @ 2 3 4"},
  };
  const auto fill = [](std::string text, const std::string& value) {
    return text.replace(text.find('@'), 1, value);
  };
  const auto decodes = [&](const std::string& value) {
    std::vector<bool> out;
    for (const std::string& frame : wire) {
      out.push_back(DecodeFrame(fill(frame, value)).ok());
    }
    for (std::vector<std::string> body : checkpoint) {
      for (std::string& line : body) {
        if (line.find('@') != std::string::npos) line = fill(line, value);
      }
      out.push_back(DecodeCheckpoint(Doc(body)).ok());
    }
    return out;
  };
  const std::vector<bool> all(wire.size() + checkpoint.size(), true);
  const std::vector<bool> none(all.size(), false);
  for (const char* good : {"0", "1.5", "12.500000", "2.5e-07", "1e+300",
                           "9.9999999999999995e-08"}) {
    EXPECT_EQ(decodes(good), all) << good;
  }
  for (const char* bad : {"nan", "inf", "-nan", "-inf", "NAN", "infinity",
                          "0x10", "0x1p4", "+1", " 1", "1.", ".5", "1e",
                          "1e+", "1E5", "1e999", "1.5x", ""}) {
    EXPECT_EQ(decodes(bad), none) << "'" << bad << "'";
  }

  // What the checkpoint encoder prints for a small elapsed time carries an
  // exponent, and it still round-trips exactly.
  CheckpointState state = SampleState();
  state.curve = {{1e-07, 1, 0, 1}};
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().curve.size(), 1u);
  EXPECT_EQ(decoded.value().curve[0].elapsed_seconds, 1e-07);
}

TEST(CheckpointCodec, EveryTruncationRejected) {
  // A truncated checkpoint (full disk, interrupted copy) must be refused
  // at EVERY byte length, never resumed from partially. The one benign
  // cut is the final newline: the document is already complete there.
  const std::string doc = EncodeCheckpoint(SampleState());
  for (size_t len = 0; len + 1 < doc.size(); ++len) {
    EXPECT_FALSE(DecodeCheckpoint(doc.substr(0, len)).ok())
        << "prefix length " << len;
  }
  EXPECT_TRUE(DecodeCheckpoint(doc.substr(0, doc.size() - 1)).ok());
  EXPECT_TRUE(DecodeCheckpoint(doc).ok());
}

TEST(CheckpointCodec, MissingCheckpointIsNotFound) {
  const std::string dir = TempDir("missing");
  auto loaded = LoadCheckpoint(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  fs::remove_all(dir);
}

// --- Atomic persistence under mid-write kills -------------------------------

TEST(AtomicPersist, MidWriteKillLeavesPreviousCheckpointIntact) {
  const std::string dir = TempDir("midwrite");
  CheckpointState first = SampleState();
  ASSERT_TRUE(WriteCheckpoint(dir, first).ok());

  CheckpointState second = SampleState();
  second.iterations_run = 19;
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Die after the temp file is fully written but before the rename —
    // the externally observable state of a writer SIGKILLed mid-persist.
    ArmAtomicWriteKillForTest();
    (void)WriteCheckpoint(dir, second);
    ::_exit(0);  // unreachable: the armed write _exit(3)s
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 3) << "armed write did not fire";

  auto loaded = LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().iterations_run, first.iterations_run)
      << "previous checkpoint must survive a mid-write death";
  // The orphaned temp file is inert; a clean rewrite then lands whole.
  ASSERT_TRUE(WriteCheckpoint(dir, second).ok());
  auto reloaded = LoadCheckpoint(dir);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().iterations_run, 19u);
  fs::remove_all(dir);
}

TEST(AtomicPersist, CorpusSaveKilledMidWriteKeepsOldEntries) {
  const std::string dir = TempDir("corpus_midwrite");
  corpus::CorpusOptions options;
  options.enabled = true;
  corpus::Corpus corpus(options);
  corpus::TestCaseRecord rec;
  rec.kind = corpus::RecordKind::kCorpusEntry;
  rec.dialect = Dialect::kPostgis;
  rec.sdb.tables.push_back({"t0", {"POINT(1 2)"}});
  rec.sites = {0x1111};
  ASSERT_TRUE(corpus.Admit(rec));
  rec.sites = {0x2222};
  ASSERT_TRUE(corpus.Admit(rec));
  ASSERT_TRUE(corpus.SaveTo(dir).ok());

  const pid_t pid = ::fork();
  if (pid == 0) {
    rec.sites = {0x3333};
    corpus.Admit(rec);
    ArmAtomicWriteKillForTest();  // dies writing the FIRST entry file
    (void)corpus.SaveTo(dir);
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 3);

  corpus::Corpus reloaded(options);
  auto loaded = reloaded.LoadFrom(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), 2u)
      << "every pre-kill entry file must still decode";
  // The next clean save sweeps the orphaned temp file.
  ASSERT_TRUE(corpus.SaveTo(dir).ok());
  size_t tmp_files = 0;
  for (const auto& item : fs::directory_iterator(dir)) {
    if (item.path().filename().string().find(".tmp.") != std::string::npos) {
      tmp_files++;
    }
  }
  EXPECT_EQ(tmp_files, 0u);
  fs::remove_all(dir);
}

TEST(AtomicPersist, CurveJsonKilledMidWriteKeepsOldFile) {
  const std::string dir = TempDir("curve_midwrite");
  const std::string path = dir + "/curve.json";
  CurveRecorder curve;
  curve.Add(0.5, 10, 1, 3);
  CurveInfo info;
  info.label = "test";
  ASSERT_TRUE(curve.WriteJson(path, info).ok());
  std::ifstream in(path);
  const std::string before((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());

  const pid_t pid = ::fork();
  if (pid == 0) {
    curve.Add(1.0, 20, 2, 6);
    ArmAtomicWriteKillForTest();
    (void)curve.WriteJson(path, info);
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 3);

  std::ifstream again(path);
  const std::string after((std::istreambuf_iterator<char>(again)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, before) << "curve JSON must never be torn";
  fs::remove_all(dir);
}

// --- Crash equivalence ------------------------------------------------------

FleetConfig CheckpointedFleet(uint64_t seed, size_t iterations,
                              size_t processes, size_t jobs) {
  FleetConfig config;
  config.base = SmallConfig(seed, iterations);
  config.processes = processes;
  config.jobs = jobs;
  config.checkpoint_interval_seconds = 0.0;  // every supervision pass
  return config;
}

TEST(CrashEquivalence, FaultSeamsKillDeterministically) {
  const std::string dir = TempDir("seam");
  FleetConfig config = CheckpointedFleet(/*seed=*/31, /*iterations=*/6, 1, 1);
  config.checkpoint_dir = dir;
  config.die_after_checkpoints = 1;
  EXPECT_TRUE(KilledBySigkill(RunFleetInChild(config)))
      << "die_after_checkpoints must SIGKILL the supervisor";
  EXPECT_TRUE(LoadCheckpoint(dir).ok())
      << "the checkpoint that triggered the death is on disk and whole";

  config.die_after_checkpoints = 0;
  config.die_after_frames = 1;
  EXPECT_TRUE(KilledBySigkill(RunFleetInChild(config)))
      << "die_after_frames must SIGKILL the supervisor";
  fs::remove_all(dir);
}

TEST(CrashEquivalence, ResumeEqualsUninterruptedPureGenerate) {
  FleetConfig base = CheckpointedFleet(/*seed=*/321, /*iterations=*/14, 1, 2);
  FleetServer reference(base);
  const CampaignResult ref = RunFleet(&reference);
  const auto want = BugOracleMap(ref);
  ASSERT_FALSE(want.empty());
  ASSERT_GT(ref.findings, 0u);

  // Kill points: frame 3 (inside the first iterations) and frame 24
  // (mid-campaign: after NETHELLO, each of 14 iterations writes at least
  // INFLIGHT + SLICEPROGRESS, so the stream has > 28 frames before DONE).
  for (const uint64_t kill_at : {uint64_t{3}, uint64_t{24}}) {
    const std::string dir =
        TempDir(("equiv" + std::to_string(kill_at)).c_str());
    FleetConfig killed = base;
    killed.checkpoint_dir = dir;
    killed.die_after_frames = kill_at;
    ASSERT_TRUE(KilledBySigkill(RunFleetInChild(killed)))
        << "kill_at " << kill_at;

    auto loaded = LoadCheckpoint(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    FleetConfig resumed_config = base;
    resumed_config.checkpoint_dir = dir;
    resumed_config.resume = loaded.Take();
    FleetServer resumed(resumed_config);
    const CampaignResult result = RunFleet(&resumed);
    EXPECT_EQ(BugOracleMap(result), want) << "kill_at " << kill_at;
    // The checkpoint carries the credited counts, so the resumed summary
    // line equals the uninterrupted one.
    EXPECT_EQ(result.iterations_run, 14u) << "kill_at " << kill_at;
    EXPECT_EQ(result.queries_run, ref.queries_run) << "kill_at " << kill_at;
    EXPECT_EQ(result.checks_run, ref.checks_run) << "kill_at " << kill_at;
    EXPECT_EQ(result.findings, ref.findings) << "kill_at " << kill_at;
    fs::remove_all(dir);
  }
}

TEST(CrashEquivalence, ResumeEqualsUninterruptedMultiOracle) {
  FleetConfig base = CheckpointedFleet(/*seed=*/555, /*iterations=*/10, 1, 2);
  base.base.oracles = fuzz::ParseOracleSuite("aei,index,tlp").Take();
  FleetServer reference(base);
  const auto want = BugOracleMap(RunFleet(&reference));
  ASSERT_FALSE(want.empty());

  const std::string dir = TempDir("multioracle");
  FleetConfig killed = base;
  killed.checkpoint_dir = dir;
  killed.die_after_frames = 29;
  ASSERT_TRUE(KilledBySigkill(RunFleetInChild(killed)));

  auto loaded = LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  FleetConfig resumed_config = base;
  resumed_config.resume = loaded.Take();
  FleetServer resumed(resumed_config);
  const CampaignResult result = RunFleet(&resumed);
  // Equality of the map pins per-oracle ATTRIBUTION, not just the set:
  // the restored winner must beat any re-reported duplicate.
  EXPECT_EQ(BugOracleMap(result), want);
  fs::remove_all(dir);
}

TEST(CrashEquivalence, FactorizationCrossedResume) {
  // Checkpoint at P x J = 2 x 2, resume at 4 x 1 and 1 x 4: the marks are
  // keyed by GLOBAL slice, so any factorization of the same 4 slices
  // continues the identical universe.
  FleetConfig base = CheckpointedFleet(/*seed=*/321, /*iterations=*/12, 2, 2);
  FleetServer reference(base);
  const auto want = BugOracleMap(RunFleet(&reference));
  ASSERT_FALSE(want.empty());

  for (const auto& [p, j] :
       std::vector<std::pair<size_t, size_t>>{{4, 1}, {1, 4}}) {
    const std::string dir = TempDir(("cross" + std::to_string(p)).c_str());
    FleetConfig killed = base;
    killed.checkpoint_dir = dir;
    killed.die_after_frames = 18;
    ASSERT_TRUE(KilledBySigkill(RunFleetInChild(killed)));

    auto loaded = LoadCheckpoint(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value().total_slices, 4u);
    FleetConfig resumed_config = base;
    resumed_config.processes = p;
    resumed_config.jobs = j;
    resumed_config.resume = loaded.Take();
    FleetServer resumed(resumed_config);
    const CampaignResult result = RunFleet(&resumed);
    EXPECT_EQ(BugOracleMap(result), want) << "resume at " << p << "x" << j;
    EXPECT_EQ(result.iterations_run, 12u);
    fs::remove_all(dir);
  }
}

TEST(CrashEquivalence, CurveContinuityAcrossResume) {
  // Per-iteration COV heartbeats make coverage restoration exact: every
  // completed iteration's sites are merged before its SLICEPROGRESS mark
  // (worker frame order), so restored-plus-rerun coverage is the full
  // union an uninterrupted run reports.
  FleetConfig base = CheckpointedFleet(/*seed=*/99, /*iterations=*/12, 1, 2);
  base.cov_interval_seconds = 0.0;
  FleetServer reference(base);
  const CampaignResult ref = RunFleet(&reference);
  const size_t ref_sites = reference.fleet_covered_sites();
  ASSERT_GT(ref_sites, 0u);

  const std::string dir = TempDir("curve_resume");
  FleetConfig killed = base;
  killed.checkpoint_dir = dir;
  killed.die_after_frames = 39;
  ASSERT_TRUE(KilledBySigkill(RunFleetInChild(killed)));

  auto loaded = LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<CurveSample> restored_prefix = loaded.value().curve;
  FleetConfig resumed_config = base;
  resumed_config.checkpoint_dir = dir;
  resumed_config.resume = loaded.Take();
  FleetServer resumed(resumed_config);
  const CampaignResult result = RunFleet(&resumed);

  // The resumed curve is the restored prefix, bit-identical, plus samples
  // that continue forward in time with monotone coverage.
  const std::vector<CurveSample> samples = resumed.curve().samples();
  ASSERT_GE(samples.size(), restored_prefix.size());
  for (size_t i = 0; i < restored_prefix.size(); ++i) {
    EXPECT_EQ(samples[i].elapsed_seconds, restored_prefix[i].elapsed_seconds);
    EXPECT_EQ(samples[i].covered_sites, restored_prefix[i].covered_sites);
    EXPECT_EQ(samples[i].unique_bugs, restored_prefix[i].unique_bugs);
    EXPECT_EQ(samples[i].iterations, restored_prefix[i].iterations);
  }
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].elapsed_seconds, samples[i - 1].elapsed_seconds);
    EXPECT_GE(samples[i].covered_sites, samples[i - 1].covered_sites);
  }
  // Final coverage and bug set match the uninterrupted run exactly. (The
  // last curve SAMPLE is not asserted on: the recorder's interval
  // throttle may legitimately drop a final sample whose counters did not
  // move, which is timing- not correctness-dependent.)
  EXPECT_EQ(resumed.fleet_covered_sites(), ref_sites);
  EXPECT_EQ(BugOracleMap(result), BugOracleMap(ref));
  EXPECT_FALSE(samples.empty());
  EXPECT_EQ(result.iterations_run, 12u);
  fs::remove_all(dir);
}

TEST(CrashEquivalence, ResumeOfFinishedCampaignIsIdempotent) {
  const std::string dir = TempDir("idempotent");
  FleetConfig config = CheckpointedFleet(/*seed=*/17, /*iterations=*/8, 1, 2);
  config.checkpoint_dir = dir;
  FleetServer first(config);
  const CampaignResult ref = RunFleet(&first);
  ASSERT_GE(first.checkpoints_written(), 1u);

  auto loaded = LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().iterations_run, 8u)
      << "the final checkpoint records the completed budget";
  FleetConfig resumed_config = config;
  resumed_config.resume = loaded.Take();
  FleetServer resumed(resumed_config);
  const CampaignResult result = RunFleet(&resumed);
  EXPECT_EQ(BugOracleMap(result), BugOracleMap(ref));
  EXPECT_EQ(result.iterations_run, 8u) << "no iteration is re-run";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace spatter::fleet
