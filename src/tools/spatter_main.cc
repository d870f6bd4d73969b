// spatter — the command-line fuzzer, as a user of the open-source release
// would run it:
//
//   spatter --dialect=postgis --seed=42 --iterations=100 --queries=100
//           --geometries=10 --jobs=4 [--oracles=aei,diff,index,tlp,eet]
//           [--no-derivative] [--fixed] [--reduce]
//           [--corpus=dir --mutate-pct=N] [--replay=file]
//           [--fleet=P --duration=S --curve-out=curve.json]
//           [--corpus-minify=dir]
//
// Runs a campaign against the chosen (faulty by default) dialect and
// prints each deduplicated unique bug with a minimal SQL reproducer.
// --oracles picks the test-oracle suite run on every query (default: AEI
// alone, the paper's contribution — bit-identical to the pre-suite
// campaign); each bug is attributed to the oracle that detected it first.
// --jobs=N shards the campaign across N worker threads; the unique-bug set
// is identical for any N at a fixed seed (deterministic seed-splitting).
// --dialect=all runs a fleet campaign over all four dialects at once,
// deduplicating shared-library bugs across them.
//
// --fleet=P adds the process tier: P forked worker processes x --jobs
// slices each, supervised over loopback TCP by the same supervisor that
// --serve runs for remote workers; the pure-generate unique-bug set is
// identical for any P x J factorization.
// --duration=S runs a duration-budget campaign instead of an iteration
// budget and, with --curve-out, writes the Figure-8-style site-coverage
// curve as JSON.
//
// --corpus=dir turns on greybox feedback: iterations that reach new
// coverage are kept, mutated preferentially (--mutate-pct), persisted to
// `dir` across runs, and every unique bug gets a binary reproducer file
// there that --replay=file re-executes deterministically. On merge,
// entries are replayed across the other dialects and admitted where they
// buy new coverage. --corpus-minify=dir
// re-reduces a stored corpus offline against its coverage signatures.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/coverage.h"
#include "common/fsio.h"
#include "common/strings.h"
#include "corpus/codec.h"
#include "engine/engine.h"
#include "fleet/checkpoint.h"
#include "fleet/curve.h"
#include "fuzz/campaign.h"
#include "fuzz/minify.h"
#include "fuzz/oracles.h"
#include "fuzz/reducer.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/sharded_campaign.h"

using namespace spatter;  // NOLINT

namespace {

struct Options {
  Options() { base.iterations = 100; }  // the CLI's budget, not the config's

  /// The campaign the flags describe; `--resume` replaces it with the
  /// checkpoint's. Oracles default to AEI alone.
  fuzz::CampaignConfig base;
  bool all_dialects = false;
  size_t jobs = 1;
  bool reduce = true;
  std::string corpus_dir;   // empty = corpus mode off
  std::string replay_file;  // non-empty = replay mode, no campaign
  std::string minify_dir;   // non-empty = offline corpus minification

  // Fleet / duration mode.
  size_t fleet = 0;         // worker processes; 0 = in-process campaign
  double duration = 0.0;    // seconds; 0 = iteration budget
  std::string curve_out;    // Figure-8 curve JSON path

  // Remote workers (the multi-machine tier).
  bool serve = false;            // --serve: supervise remote workers
  uint16_t serve_port = 0;       // 0 = kernel-picked ephemeral port
  std::string connect_hostport;  // non-empty = remote worker mode

  // Telemetry (strictly passive: never draws campaign RNG, status goes
  // to stderr so the bug-set stdout contract is untouched).
  double status_interval = 0.0;  // seconds; 0 = no live status line
  std::string metrics_out;       // spatter-metrics-v1 JSON path
  double metrics_every = 0.0;    // seconds between metrics-out rewrites
  std::string trace_out;         // spatter-trace-v1 JSONL path; "" = off
  uint64_t trace_sample = 1;     // record every Nth iteration (1 = all)
  bool status_port_set = false;  // --status-port given
  uint16_t status_port = 0;      // status endpoint port (0 = kernel-picked)

  // Checkpoint / resume.
  std::string checkpoint_dir;   // non-empty = periodic checkpoints
  double checkpoint_every = 0;  // seconds; 0 = default interval
  std::string resume_dir;       // non-empty = resume from checkpoint
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: spatter [options]\n"
      "  --dialect=postgis|duckdb|mysql|sqlserver|all   system under test\n"
      "                    ('all' = fleet mode: every dialect at once)\n"
      "  --seed=N          campaign seed (default 42)\n"
      "  --iterations=N    database generations (default 100)\n"
      "  --queries=N       random queries per generation (default 100)\n"
      "  --geometries=N    geometries per database (default 10)\n"
      "  --jobs=N          worker threads / shards (default 1); the\n"
      "                    unique-bug set is identical for any N\n"
      "  --oracles=LIST    comma-separated test oracles run on every query:\n"
      "                    aei, canon (canonicalization-only), diff[:dialect]\n"
      "                    (cross-dialect differential), index (on/off),\n"
      "                    tlp, eet (equivalent-expression variants), or all\n"
      "                    (default aei; bugs are attributed to the\n"
      "                    detecting oracle); a name/N suffix (tlp/8)\n"
      "                    budgets that oracle to every Nth query (for eet:\n"
      "                    every Nth variant of its per-query loop)\n"
      "  --fleet=P         fork P worker processes x --jobs slices each,\n"
      "                    supervised over loopback TCP; a dead worker's\n"
      "                    slices are requeued and its in-flight case\n"
      "                    persisted to the crash dir; pure-generate bug\n"
      "                    sets are identical for any P x J factorization\n"
      "                    of the same P*J\n"
      "  --serve=PORT      the same supervisor for remote workers: listen\n"
      "                    on PORT (0 = kernel-picked, printed at start),\n"
      "                    fork nothing, and assign --connect workers the\n"
      "                    --fleet x --jobs slice universe, --jobs slices\n"
      "                    per assignment\n"
      "  --connect=HOST:PORT  be a remote worker: fetch assignments from a\n"
      "                    --serve supervisor until it says goodbye; all\n"
      "                    campaign settings come from the server\n"
      "  --duration=S      run for S seconds of wall time instead of an\n"
      "                    iteration budget (Figure 8 mode)\n"
      "  --curve-out=FILE  write the time-sampled site-coverage curve as\n"
      "                    JSON (requires --duration)\n"
      "  --status-interval=S  print a live fleet status line (iters/s,\n"
      "                    engine time per query, per-oracle check p99,\n"
      "                    bugs, corpus size, worker liveness) to stderr\n"
      "                    every S seconds; implies --fleet=1 if no fleet\n"
      "                    was requested\n"
      "  --metrics-out=FILE  write the merged campaign telemetry (counters\n"
      "                    and latency histograms) as spatter-metrics-v1\n"
      "                    JSON to FILE; in fleet mode the file is\n"
      "                    atomically refreshed on the status cadence\n"
      "  --metrics-every=S  rewrite --metrics-out every S seconds of wall\n"
      "                    time (atomic write-rename), on its own clock\n"
      "                    independent of --status-interval; works in\n"
      "                    every campaign mode\n"
      "  --trace-out=FILE  write this process's flight-recorder ring (the\n"
      "                    last 256 structured events per thread) as\n"
      "                    spatter-trace-v1 JSONL at exit; strictly\n"
      "                    passive — bug-set lines are byte-identical\n"
      "                    with tracing on or off\n"
      "  --trace-sample=N  record every Nth iteration's events into the\n"
      "                    trace ring (accepts N or 1/N; default 1 = all;\n"
      "                    sampling is deterministic off the iteration\n"
      "                    index, never an RNG draw)\n"
      "  --status-port=P   read-only HTTP/1.0 status endpoint of the fleet\n"
      "                    supervisor on port P (0 = kernel-picked, printed\n"
      "                    at start): GET /metrics (spatter-metrics-v1),\n"
      "                    /fleet (membership + per-worker rates), /bugs\n"
      "                    (deduped bug set with detecting oracles);\n"
      "                    implies --fleet=1 if no fleet was requested\n"
      "  --checkpoint=DIR  periodically persist a resumable campaign\n"
      "                    checkpoint to DIR (atomic write-rename; implies\n"
      "                    --fleet=1 if no fleet was requested)\n"
      "  --checkpoint-every=S  seconds between checkpoints (default 30;\n"
      "                    implies --checkpoint=spatter-checkpoint)\n"
      "  --resume=DIR      resume the campaign checkpointed in DIR: seed,\n"
      "                    budgets, dialects, oracles and corpus settings\n"
      "                    are adopted from the checkpoint; --fleet/--jobs\n"
      "                    may re-factor P x J as long as the product\n"
      "                    matches. A resumed pure-generate campaign\n"
      "                    reports the same bug-set lines as an\n"
      "                    uninterrupted run\n"
      "  --no-derivative   random-shape strategy only (RSG ablation)\n"
      "  --fixed           run against the fixed engine (expect 0 bugs)\n"
      "  --no-reduce       skip test-case reduction\n"
      "  --corpus=DIR      greybox mode: persist coverage-novel test cases\n"
      "                    and bug reproducers to DIR, reloading them on\n"
      "                    the next run (deterministic for a fixed --jobs)\n"
      "  --mutate-pct=N    percent of iterations that mutate a corpus\n"
      "                    entry instead of generating (default 50)\n"
      "  --corpus-minify=DIR  offline: re-reduce DIR's corpus entries\n"
      "                    against their coverage signatures, drop\n"
      "                    signature duplicates, rewrite DIR; no campaign\n"
      "  --replay=FILE     re-execute a saved reproducer/corpus entry and\n"
      "                    report which injected faults fire; no campaign\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

bool ParseSize(const std::string& value, const char* flag, size_t max,
               size_t* out) {
  // Reject rather than clamp garbage: a "-1" wrapped to 2^64-1 would ask
  // the runtime for that many shards or queries.
  uint64_t parsed = 0;
  if (!ParseU64(value, &parsed) || parsed > max) {
    std::fprintf(stderr, "%s must be an integer in [0, %zu]\n", flag, max);
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

bool ParseSeconds(const std::string& value, const char* flag, double* out) {
  // Plain decimal digits with an optional fraction: strtod alone would
  // also take "nan", "inf", hex and exponents.
  const auto digits = [](const std::string& s) {
    return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
      return c >= '0' && c <= '9';
    });
  };
  const size_t dot = value.find('.');
  const bool plain =
      digits(value.substr(0, dot)) &&
      (dot == std::string::npos || digits(value.substr(dot + 1)));
  const double parsed = plain ? std::strtod(value.c_str(), nullptr) : 0.0;
  if (!std::isfinite(parsed) || parsed <= 0) {
    std::fprintf(stderr, "%s must be a positive number of seconds\n", flag);
    return false;
  }
  *out = parsed;
  return true;
}

// Upper bounds of the count flags, far past any real campaign: a larger
// value is a typo, not a budget.
constexpr size_t kMaxBudget = size_t{1} << 32;
constexpr size_t kMaxGeometries = size_t{1} << 20;

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--dialect", &value)) {
      if (value == "all") {
        opts->all_dialects = true;
      } else {
        auto dialect = engine::ParseDialectCliToken(value);
        if (!dialect.ok()) {
          std::fprintf(stderr, "unknown dialect '%s'\n", value.c_str());
          return false;
        }
        opts->base.dialect = dialect.value();
      }
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseU64(value, &opts->base.seed)) {
        std::fprintf(stderr, "--seed must be an unsigned 64-bit integer\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--iterations", &value)) {
      if (!ParseSize(value, "--iterations", kMaxBudget,
                     &opts->base.iterations)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--queries", &value)) {
      if (!ParseSize(value, "--queries", kMaxBudget,
                     &opts->base.queries_per_iteration)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--geometries", &value)) {
      if (!ParseSize(value, "--geometries", kMaxGeometries,
                     &opts->base.generator.num_geometries)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--jobs", &value)) {
      if (!ParseSize(value, "--jobs", 1024, &opts->jobs)) return false;
      if (opts->jobs == 0) opts->jobs = 1;
    } else if (ParseFlag(argv[i], "--oracles", &value)) {
      auto spec = fuzz::ParseOracleSuite(value);
      if (!spec.ok()) {
        std::fprintf(stderr, "--oracles: %s\n",
                     spec.status().ToString().c_str());
        return false;
      }
      opts->base.oracles = spec.Take();
    } else if (ParseFlag(argv[i], "--serve", &value)) {
      size_t port = 0;
      if (!ParseSize(value, "--serve", 65535, &port)) return false;
      opts->serve = true;
      opts->serve_port = static_cast<uint16_t>(port);
    } else if (ParseFlag(argv[i], "--connect", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--connect needs HOST:PORT\n");
        return false;
      }
      opts->connect_hostport = value;
    } else if (ParseFlag(argv[i], "--fleet", &value)) {
      if (!ParseSize(value, "--fleet", 256, &opts->fleet)) return false;
    } else if (ParseFlag(argv[i], "--duration", &value)) {
      if (!ParseSeconds(value, "--duration", &opts->duration)) return false;
    } else if (ParseFlag(argv[i], "--curve-out", &value)) {
      opts->curve_out = value;
    } else if (ParseFlag(argv[i], "--status-interval", &value)) {
      if (!ParseSeconds(value, "--status-interval", &opts->status_interval)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--metrics-out", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--metrics-out needs a file\n");
        return false;
      }
      opts->metrics_out = value;
    } else if (ParseFlag(argv[i], "--metrics-every", &value)) {
      if (!ParseSeconds(value, "--metrics-every", &opts->metrics_every)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--trace-out needs a file\n");
        return false;
      }
      opts->trace_out = value;
    } else if (ParseFlag(argv[i], "--trace-sample", &value)) {
      // Accept both "N" and "1/N" spellings of the sampling rate.
      std::string n = value;
      if (n.rfind("1/", 0) == 0) n = n.substr(2);
      size_t parsed = 0;
      if (!ParseSize(n, "--trace-sample", size_t{1} << 30, &parsed) ||
          parsed == 0) {
        std::fprintf(stderr, "--trace-sample must be N or 1/N, N >= 1\n");
        return false;
      }
      opts->trace_sample = parsed;
    } else if (ParseFlag(argv[i], "--status-port", &value)) {
      size_t port = 0;
      if (!ParseSize(value, "--status-port", 65535, &port)) return false;
      opts->status_port_set = true;
      opts->status_port = static_cast<uint16_t>(port);
    } else if (ParseFlag(argv[i], "--checkpoint", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--checkpoint needs a directory\n");
        return false;
      }
      opts->checkpoint_dir = value;
    } else if (ParseFlag(argv[i], "--checkpoint-every", &value)) {
      if (!ParseSeconds(value, "--checkpoint-every",
                        &opts->checkpoint_every)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--resume", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--resume needs a directory\n");
        return false;
      }
      opts->resume_dir = value;
    } else if (ParseFlag(argv[i], "--corpus", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--corpus needs a directory\n");
        return false;
      }
      opts->corpus_dir = value;
      opts->base.corpus.enabled = true;
    } else if (ParseFlag(argv[i], "--corpus-minify", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--corpus-minify needs a directory\n");
        return false;
      }
      opts->minify_dir = value;
    } else if (ParseFlag(argv[i], "--mutate-pct", &value)) {
      size_t pct = 0;
      if (!ParseSize(value, "--mutate-pct", 100, &pct)) return false;
      opts->base.corpus.mutate_pct = static_cast<int>(pct);
    } else if (ParseFlag(argv[i], "--replay", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--replay needs a file\n");
        return false;
      }
      opts->replay_file = value;
    } else if (std::strcmp(argv[i], "--no-derivative") == 0) {
      opts->base.generator.derivative_enabled = false;
    } else if (std::strcmp(argv[i], "--fixed") == 0) {
      opts->base.enable_faults = false;
    } else if (std::strcmp(argv[i], "--no-reduce") == 0) {
      opts->reduce = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

// --- Remote worker mode (--connect) ----------------------------------------

/// Joins a `--serve` supervisor as a remote worker. Every campaign
/// setting comes from the server's ASSIGN payload, so the only local
/// inputs are the address itself — any other flag would be ignored.
int RunConnectMode(const Options& opts) {
  const size_t colon = opts.connect_hostport.rfind(':');
  size_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseSize(opts.connect_hostport.substr(colon + 1), "--connect port",
                 65535, &port) ||
      port == 0) {
    std::fprintf(stderr, "--connect needs HOST:PORT\n");
    return 2;
  }
  net::FleetClientConfig config;
  config.host = opts.connect_hostport.substr(0, colon);
  config.port = static_cast<uint16_t>(port);
  return net::RunFleetClient(config);
}

// --- Replay mode ------------------------------------------------------------

/// Re-executes a saved record: loads the database and, when a query was
/// recorded, re-runs the exact check of the oracle that detected it
/// (recorded in the file; index/TLP/differential reproducers re-fire
/// their own oracle, not AEI). Returns 0 when the record's expected
/// faults fire again (or, lacking expectations, when any discrepancy
/// reproduces), 1 when it does not reproduce, 2 on bad input.
int RunReplay(const Options& opts) {
  std::ifstream in(opts.replay_file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "replay: cannot open '%s'\n",
                 opts.replay_file.c_str());
    return 2;
  }
  std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  auto decoded = corpus::TestCaseCodec::Decode(data);
  if (!decoded.ok()) {
    std::fprintf(stderr, "replay: %s\n",
                 decoded.status().ToString().c_str());
    return 2;
  }
  const corpus::TestCaseRecord rec = decoded.Take();
  std::printf("replay: %s record for %s, iteration %llu, recorded seed "
              "%016llx\n",
              rec.kind == corpus::RecordKind::kReproducer ? "reproducer"
                                                          : "corpus",
              engine::DialectName(rec.dialect),
              static_cast<unsigned long long>(rec.iteration),
              static_cast<unsigned long long>(rec.seed));
  for (const auto& stmt : rec.sdb.ToSql()) std::printf("  %s\n", stmt.c_str());

  engine::Engine engine(rec.dialect, opts.base.enable_faults);
  if (!rec.has_query) {
    const Status st = fuzz::LoadDatabase(&engine, rec.sdb, nullptr);
    std::printf("replay: loaded database (%s); no recorded query\n",
                st.ToString().c_str());
    return st.ok() ? 0 : 1;
  }
  std::string oracle_desc = fuzz::OracleKindName(rec.oracle);
  if (rec.oracle == fuzz::OracleKind::kDifferential) {
    oracle_desc += std::string(" vs ") +
                   engine::DialectName(rec.diff_secondary);
  }
  std::printf("  %s\n  -- %s oracle, transform %s\n",
              rec.query.ToSql().c_str(), oracle_desc.c_str(),
              rec.transform.ToString().c_str());
  const std::unique_ptr<fuzz::Oracle> oracle = fuzz::MakeDetectingOracle(
      rec.oracle, rec.dialect, rec.diff_secondary, opts.base.enable_faults);
  fuzz::OracleCtx ctx;
  ctx.transform = rec.transform;
  ctx.canonical_only = rec.oracle == fuzz::OracleKind::kCanonicalOnly;
  const fuzz::OracleOutcome outcome =
      oracle->Check(&engine, rec.sdb, rec.query, ctx);
  std::printf("replay: %s%s\n",
              outcome.crash      ? "crash reproduced"
              : outcome.mismatch ? "mismatch reproduced"
                                 : "no discrepancy",
              outcome.detail.empty() ? "" : (" — " + outcome.detail).c_str());
  bool expected_fired = true;
  for (uint32_t raw : rec.fault_ids) {
    const auto id = static_cast<faults::FaultId>(raw);
    const bool fired = outcome.fault_hits.count(id) > 0;
    std::printf("  fault %s: %s\n", faults::GetFaultInfo(id).name,
                fired ? "FIRED" : "did not fire");
    if (!fired) expected_fired = false;
  }
  const bool reproduced =
      (outcome.mismatch || outcome.crash) && expected_fired;
  return reproduced ? 0 : 1;
}

// --- Corpus minification mode -----------------------------------------------

int RunMinify(const Options& opts) {
  corpus::CorpusOptions options = opts.base.corpus;
  options.enabled = true;
  auto stats =
      fuzz::MinifyCorpusDir(opts.minify_dir, options, opts.base.enable_faults);
  if (!stats.ok()) {
    std::fprintf(stderr, "corpus-minify: %s\n",
                 stats.status().ToString().c_str());
    return 2;
  }
  const fuzz::MinifyStats& s = stats.value();
  std::printf("corpus-minify: %s: %zu loaded -> %zu kept "
              "(%zu signature duplicates dropped, %zu rows removed, "
              "%zu replays)\n",
              opts.minify_dir.c_str(), s.loaded, s.kept,
              s.duplicates_dropped, s.rows_removed, s.replays);
  return 0;
}

/// Writes one unique bug as a reproducer record into the corpus dir.
void WriteReproducer(const std::string& dir, const faults::FaultInfo& info,
                     const fuzz::Discrepancy& d, uint64_t master_seed) {
  if (d.query.predicate.empty()) return;  // generation crash: no query
  corpus::TestCaseRecord rec = fuzz::ReproducerOf(d, master_seed);
  // Pinned to its bug: --replay passes when this fault fires again.
  rec.fault_ids = {static_cast<uint32_t>(info.id)};
  auto encoded = corpus::TestCaseCodec::Encode(rec);
  if (!encoded.ok()) {
    std::fprintf(stderr, "cannot encode reproducer for %s: %s\n", info.name,
                 encoded.status().ToString().c_str());
    return;
  }
  const std::string path = dir + "/repro-" + info.name + ".sptc";
  const Status written = AtomicWriteFile(path, encoded.value().data(),
                                         encoded.value().size());
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write '%s': %s\n", path.c_str(),
                 written.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  if (!opts.connect_hostport.empty()) return RunConnectMode(opts);
  if (!opts.replay_file.empty()) return RunReplay(opts);
  if (!opts.minify_dir.empty()) return RunMinify(opts);

  // Resume: the checkpoint is authoritative for the campaign identity
  // (its campaign config, dialects and budgets) — only the P x J
  // factorization may be re-chosen, and only with the product preserved,
  // so a resumed pure-generate campaign walks the identical SplitSeed
  // slice space and reports the identical bug-set lines.
  std::optional<fleet::CheckpointState> resume_state;
  if (!opts.resume_dir.empty()) {
    auto loaded = fleet::LoadCheckpoint(opts.resume_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "resume: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    resume_state = loaded.Take();
    const fleet::CheckpointState& ck = *resume_state;
    if (!ck.base.corpus.enabled && !opts.corpus_dir.empty()) {
      // The checkpoint's campaign replaces the flags' wholesale; a user
      // --corpus would silently turn the resumed run into a different
      // (mutation-driven) universe.
      std::fprintf(stderr,
                   "resume: the checkpoint is pure-generate; --corpus "
                   "would change the resumed campaign's universe (drop "
                   "it, or start a fresh campaign)\n");
      return 2;
    }
    opts.base = ck.base;
    opts.corpus_dir = ck.corpus_dir;
    opts.duration = ck.duration_seconds;
    // Multi-dialect checkpoints can only have come from --dialect=all.
    opts.all_dialects = ck.dialects.size() > 1;
    if (opts.fleet == 0) opts.fleet = 1;
    if (ck.total_slices % opts.fleet != 0) {
      std::fprintf(stderr,
                   "resume: --fleet=%zu does not divide the checkpoint's "
                   "%llu slices\n",
                   opts.fleet,
                   static_cast<unsigned long long>(ck.total_slices));
      return 2;
    }
    const size_t derived_jobs = ck.total_slices / opts.fleet;
    if (opts.jobs != 1 && opts.jobs != derived_jobs) {
      std::fprintf(stderr,
                   "resume: --fleet=%zu x --jobs=%zu must preserve the "
                   "checkpoint's %llu total slices\n",
                   opts.fleet, opts.jobs,
                   static_cast<unsigned long long>(ck.total_slices));
      return 2;
    }
    opts.jobs = derived_jobs;
    // Keep checkpointing into the same directory unless redirected.
    if (opts.checkpoint_dir.empty()) opts.checkpoint_dir = opts.resume_dir;
  }
  if (opts.checkpoint_every > 0 && opts.checkpoint_dir.empty()) {
    opts.checkpoint_dir = "spatter-checkpoint";
  }
  if (!opts.checkpoint_dir.empty() && opts.fleet == 0 && !opts.serve) {
    // Checkpoint state lives in the fleet supervisor; a single-process
    // fleet is the in-process campaign plus the supervision tier.
    std::printf("checkpoint: enabling --fleet=1 (the supervisor owns "
                "checkpoint state)\n");
    opts.fleet = 1;
  }
  if ((opts.status_interval > 0 || opts.status_port_set) && opts.fleet == 0 &&
      !opts.serve) {
    // The live status line and endpoint serve the supervisor's merged
    // fleet view.
    std::printf("status: enabling --fleet=1 (the supervisor owns the "
                "fleet telemetry view)\n");
    opts.fleet = 1;
  }

  if (!opts.curve_out.empty() && opts.duration <= 0) {
    std::fprintf(stderr, "--curve-out requires --duration\n");
    return 2;
  }
  if (opts.metrics_every > 0 && opts.metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-every requires --metrics-out\n");
    return 2;
  }

  // Arm the flight recorder for this process. Strictly passive: no RNG
  // draws, bounded per-thread rings, stdout bug-set lines byte-identical
  // with tracing on or off (CI diffs them).
  if (!opts.trace_out.empty()) {
    obs::TraceRecorder::Instance().Enable(opts.trace_sample);
  }

  const size_t fleet_processes = opts.fleet;
  std::printf("spatter: %s engine (%s), seed %llu, %s, N=%zu, "
              "generator=%s, jobs=%zu%s\n",
              opts.all_dialects ? "fleet (all dialects)"
                                : engine::DialectName(opts.base.dialect),
              opts.base.enable_faults ? "faulty" : "fixed",
              static_cast<unsigned long long>(opts.base.seed),
              opts.duration > 0
                  ? (std::to_string(opts.duration) + "s duration budget")
                        .c_str()
                  : (std::to_string(opts.base.iterations) + " x " +
                     std::to_string(opts.base.queries_per_iteration) +
                     " checks")
                        .c_str(),
              opts.base.generator.num_geometries,
              opts.base.generator.derivative_enabled ? "geometry-aware"
                                                     : "random-shape",
              opts.jobs,
              fleet_processes > 0 ? (", fleet=" +
                                     std::to_string(fleet_processes))
                                        .c_str()
                                  : "");
  if (!opts.corpus_dir.empty()) {
    std::printf("corpus: %s (mutate %d%%)\n", opts.corpus_dir.c_str(),
                opts.base.corpus.mutate_pct);
  }
  std::printf("oracles: %s\n",
              fuzz::FormatOracleSuite(opts.base.oracles).c_str());
  if (resume_state) {
    std::printf("resume: %s (%llu iterations done, %.1fs elapsed, %zu "
                "unique bugs restored, fleet=%zu x jobs=%zu over %llu "
                "slices)\n",
                opts.resume_dir.c_str(),
                static_cast<unsigned long long>(resume_state->iterations_run),
                resume_state->elapsed_seconds,
                resume_state->unique_bugs.size(), opts.fleet, opts.jobs,
                static_cast<unsigned long long>(resume_state->total_slices));
  }

  fuzz::CampaignResult result;
  corpus::Corpus* merged_corpus = nullptr;
  size_t total_shards = 0;
  fleet::CurveInfo curve_info;
  curve_info.label = opts.all_dialects
                         ? "all"
                         : engine::DialectName(opts.base.dialect);
  curve_info.seed = opts.base.seed;
  curve_info.fleet = std::max<size_t>(1, fleet_processes);
  curve_info.jobs = opts.jobs;
  curve_info.duration_seconds = opts.duration;

  std::unique_ptr<net::FleetServer> server;
  std::unique_ptr<runtime::ShardedCampaign> campaign;
  fleet::CurveRecorder local_curve;

  if (opts.serve || fleet_processes > 0) {
    // Process tier, one supervisor: --fleet forks P local workers on a
    // loopback port, --serve waits for remote --connect workers. The slice
    // universe is --fleet x --jobs, handed out --jobs slices per
    // assignment.
    net::FleetConfig config;
    config.base = opts.base;
    if (opts.all_dialects) {
      config.dialects = runtime::ShardedCampaign::AllDialects();
    }
    config.processes = std::max<size_t>(1, fleet_processes);
    config.jobs = opts.jobs;
    config.serve = opts.serve;
    config.port = opts.serve_port;
    config.duration_seconds = opts.duration;
    config.corpus_dir = opts.corpus_dir;
    // In-flight crash reproducers are only reconstructable in
    // pure-generate mode, which is exactly when there is no corpus dir —
    // so give them a home of their own (created only if a worker dies).
    config.crash_dir =
        opts.corpus_dir.empty() ? "spatter-crashes" : opts.corpus_dir;
    config.status_interval_seconds = opts.status_interval;
    config.metrics_out = opts.metrics_out;
    config.metrics_interval_seconds = opts.metrics_every;
    config.serve_status = opts.status_port_set;
    config.status_port = opts.status_port;
    config.checkpoint_dir = opts.checkpoint_dir;
    if (opts.checkpoint_every > 0) {
      config.checkpoint_interval_seconds = opts.checkpoint_every;
    }
    config.resume = resume_state;
    server = std::make_unique<net::FleetServer>(config);
    const Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "fleet: %s\n", st.ToString().c_str());
      return 2;
    }
    if (opts.serve) {
      std::printf("serve: listening on port %u (%zu slices, %zu per "
                  "assignment)\n",
                  server->port(), config.processes * config.jobs,
                  config.jobs);
    }
    if (server->status_port() != 0) {
      std::printf("status: listening on port %u\n", server->status_port());
    }
    std::fflush(stdout);  // scripts scrape the ports before workers join
    result = server->Run();
    merged_corpus = server->merged_corpus();
    total_shards =
        config.processes * config.jobs * (opts.all_dialects ? 4 : 1);
    if (!opts.curve_out.empty()) {
      const Status curve_st =
          server->curve().WriteJson(opts.curve_out, curve_info);
      if (!curve_st.ok()) {
        std::fprintf(stderr, "curve: %s\n", curve_st.ToString().c_str());
      }
    }
    if (!opts.metrics_out.empty()) {
      std::printf("metrics: written to %s\n", opts.metrics_out.c_str());
    }
    if (opts.serve || server->reassigned_slices() > 0) {
      std::printf("fleet: %zu peer(s) over the campaign, %zu slice(s) "
                  "requeued, %zu respawn(s), %zu in-flight reproducer(s) "
                  "persisted\n",
                  server->peers_seen(), server->reassigned_slices(),
                  server->respawns(), server->crash_reproducers_persisted());
    }
    if (!opts.checkpoint_dir.empty()) {
      std::printf("checkpoint: %zu written to %s\n",
                  server->checkpoints_written(), opts.checkpoint_dir.c_str());
    }
  } else {
    runtime::ShardedCampaignConfig config;
    config.base = opts.base;
    config.jobs = opts.jobs;
    config.duration_seconds = opts.duration;
    if (opts.all_dialects) {
      config.dialects = runtime::ShardedCampaign::AllDialects();
    }
    if (config.base.corpus.enabled) {
      // Reload what previous runs persisted; every shard seeds from it.
      corpus::Corpus loader(config.base.corpus);
      auto loaded = loader.LoadFrom(opts.corpus_dir);
      if (!loaded.ok()) {
        std::fprintf(stderr, "corpus: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      std::printf("corpus: %zu entries reloaded\n", loaded.value());
      config.seed_corpus = loader.Entries();
    }
    campaign = std::make_unique<runtime::ShardedCampaign>(config);
    // --metrics-every for the in-process path: the fleet supervisor
    // rewrites from its loop; here a flusher thread samples
    // the process-global registry (reads only — strictly passive).
    std::atomic<bool> metrics_stop{false};
    std::thread metrics_flusher;
    if (!opts.metrics_out.empty() && opts.metrics_every > 0) {
      const double flush_t0 = fuzz::Campaign::NowSeconds();
      metrics_flusher = std::thread([&opts, &metrics_stop, &curve_info,
                                     flush_t0] {
        double last = flush_t0;
        while (!metrics_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          const double now = fuzz::Campaign::NowSeconds();
          if (now - last < opts.metrics_every) continue;
          last = now;
          obs::MetricsJsonInfo info;
          info.label = curve_info.label;
          info.seed = opts.base.seed;
          info.fleet = 1;
          info.jobs = opts.jobs;
          info.elapsed_seconds = now - flush_t0;
          (void)AtomicWriteFile(
              opts.metrics_out,
              obs::MetricsToJson(obs::MetricsRegistry::Instance().Snapshot(),
                                 info));
        }
      });
    }
    runtime::ShardedCampaign::Observer observer;
    // The summary reads only the count of findings, so each iteration's
    // are dropped before they merge: a long run must not grow.
    observer.after = [](fuzz::Campaign&, uint64_t, uint64_t,
                        fuzz::CampaignResult* delta) {
      delta->discrepancies.clear();
    };
    if (opts.duration > 0) {
      auto& registry = CoverageRegistry::Instance();
      observer.sample = [&local_curve, &registry](
                            double elapsed, const fuzz::CampaignResult& r) {
        local_curve.Add(elapsed, registry.CoveredSiteCount(),
                        r.unique_bugs.size(), r.iterations_run);
      };
    }
    result = campaign->Run(observer);
    if (metrics_flusher.joinable()) {
      metrics_stop.store(true, std::memory_order_relaxed);
      metrics_flusher.join();
    }
    merged_corpus = campaign->merged_corpus();
    total_shards =
        campaign->shards_per_dialect() * campaign->dialects().size();
    if (!opts.curve_out.empty()) {
      const Status st = local_curve.WriteJson(opts.curve_out, curve_info);
      if (!st.ok()) {
        std::fprintf(stderr, "curve: %s\n", st.ToString().c_str());
      }
    }
  }

  // In-process campaigns dump the local registry once at the end; the
  // fleet supervisor already wrote its merged view.
  if (!opts.metrics_out.empty() && server == nullptr) {
    obs::MetricsJsonInfo info;
    info.label = curve_info.label;
    info.seed = opts.base.seed;
    info.fleet = 1;
    info.jobs = opts.jobs;
    info.elapsed_seconds = result.total_seconds;
    info.derived["iterations_per_second"] =
        result.total_seconds > 0
            ? static_cast<double>(result.iterations_run) / result.total_seconds
            : 0.0;
    const Status st = AtomicWriteFile(
        opts.metrics_out,
        obs::MetricsToJson(obs::MetricsRegistry::Instance().Snapshot(), info));
    if (!st.ok()) {
      std::fprintf(stderr, "metrics: %s\n", st.ToString().c_str());
    } else {
      std::printf("metrics: written to %s\n", opts.metrics_out.c_str());
    }
  }

  // Flight-recorder dump of this process's ring (the supervisor's own
  // events in fleet mode; every iteration's sampled events in-process).
  if (!opts.trace_out.empty()) {
    const Status st = obs::WriteTraceFile(
        opts.trace_out, obs::TraceRecorder::Instance().Snapshot());
    if (!st.ok()) {
      std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
    } else {
      std::printf("trace: written to %s\n", opts.trace_out.c_str());
    }
  }

  if (!opts.corpus_dir.empty() && merged_corpus != nullptr) {
    const Status st = merged_corpus->SaveTo(opts.corpus_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "corpus: %s\n", st.ToString().c_str());
    }
    std::printf("corpus: %zu entries covering %zu sites persisted to %s\n",
                merged_corpus->size(), merged_corpus->covered_sites(),
                opts.corpus_dir.c_str());
  }
  if (!opts.curve_out.empty()) {
    std::printf("curve: written to %s\n", opts.curve_out.c_str());
  }

  std::printf("\n%zu discrepancies -> %zu unique bugs in %.2fs wall "
              "(%.2fs across %zu shard(s); %.2fs inside the engine, %.0f%% "
              "of shard time)\n",
              result.findings, result.unique_bugs.size(),
              result.total_seconds, result.busy_seconds, total_shards,
              result.engine_seconds,
              result.busy_seconds > 0
                  ? 100.0 * result.engine_seconds / result.busy_seconds
                  : 0.0);

  // Machine-readable bug-set line: CI compares it across --fleet/--jobs
  // factorizations to hold the determinism contract.
  {
    std::string bug_set;
    for (const auto& [id, first] : result.unique_bugs) {
      if (!bug_set.empty()) bug_set += ",";
      bug_set += faults::GetFaultInfo(id).name;
    }
    std::printf("bug-set: %s\n", bug_set.empty() ? "(none)" : bug_set.c_str());
  }

  // Per-oracle attribution of the deduplicated bugs (Table 4, live). The
  // winning oracle per fault is factorization-invariant in pure-generate
  // mode, so CI diffs this line across --jobs/--fleet splits too.
  {
    std::string by_oracle;
    for (const auto& [kind, ids] : result.UniqueBugsByOracle()) {
      if (!by_oracle.empty()) by_oracle += " ";
      by_oracle += fuzz::OracleCliToken(kind);
      by_oracle += "=" + std::to_string(ids.size());
      by_oracle += "{";
      bool first = true;
      for (faults::FaultId id : ids) {
        if (!first) by_oracle += ",";
        by_oracle += faults::GetFaultInfo(id).name;
        first = false;
      }
      by_oracle += "}";
    }
    std::printf("bug-set-by-oracle: %s\n",
                by_oracle.empty() ? "(none)" : by_oracle.c_str());
  }

  // Reduction is embarrassingly parallel — each bug gets its own fresh
  // engine of the dialect that found it (in fleet/sharded mode the
  // original shard engine is gone) — so it runs on `jobs` threads, as the
  // campaign did, instead of serially while printing.
  std::vector<std::pair<faults::FaultId, const fuzz::Discrepancy*>> firsts;
  firsts.reserve(result.unique_bugs.size());
  for (const auto& [id, first] : result.unique_bugs) {
    firsts.emplace_back(id, &first);
  }
  std::vector<fuzz::Discrepancy> reduced(firsts.size());
  std::vector<size_t> to_reduce;
  for (size_t i = 0; i < firsts.size(); ++i) {
    if (opts.reduce && !firsts[i].second->is_crash) {
      to_reduce.push_back(i);
    } else {
      reduced[i] = *firsts[i].second;
    }
  }
  runtime::ParallelFor(opts.jobs, to_reduce.size(), [&](size_t k) {
    const auto& [fault_id, first] = firsts[to_reduce[k]];
    engine::Engine reduce_engine(first->dialect, opts.base.enable_faults);
    fuzz::ReductionStats stats;
    // Pin the reduction to this bug's fault so the minimized reproducer
    // still demonstrates THIS bug, not whichever other fault happens to
    // survive minimization.
    reduced[to_reduce[k]] =
        fuzz::ReduceDiscrepancy(&reduce_engine, *first, &stats, fault_id);
  });

  int bug_no = 0;
  size_t repro_idx = 0;
  for (const auto& [id, first] : result.unique_bugs) {
    const auto& info = faults::GetFaultInfo(id);
    const fuzz::Discrepancy& repro = reduced[repro_idx++];
    std::printf("\n=== bug %d: %s [%s, %s, %s] (found by %s via %s) ===\n",
                ++bug_no, info.name, faults::ComponentName(info.component),
                faults::BugKindName(info.kind),
                faults::BugStatusName(info.status),
                engine::DialectName(first.dialect),
                fuzz::OracleKindName(first.oracle));
    std::printf("%s\n", info.description);
    for (const auto& stmt : repro.sdb1.ToSql()) {
      std::printf("  %s\n", stmt.c_str());
    }
    if (!repro.is_crash) {
      std::printf("  %s\n", repro.query.ToSql().c_str());
      std::printf("  -- transform %s, observed %s\n",
                  repro.transform.ToString().c_str(), repro.detail.c_str());
    } else {
      std::printf("  -- crash: %s\n", repro.detail.c_str());
    }
    if (!opts.corpus_dir.empty()) {
      WriteReproducer(opts.corpus_dir, info, repro, opts.base.seed);
    }
  }
  return result.unique_bugs.empty() && opts.base.enable_faults ? 1 : 0;
}
