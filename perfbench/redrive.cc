// The traced run re-drives a workload's iteration universe serially through
// the same public calls Campaign::RunIterationAt makes, in its draw order:
//   reseed with Rng::SplitSeed -> GeometryAwareGenerator::Generate on the
//   campaign's engine -> index coin -> per query: RandomQuery, the
//   canonical-only coin, the RandomIntegerAffine/Similarity draw, then
//   Oracle::Check once per oracle of the suite.
// Every call is wrapped in a span, and engine statistics plus registry
// counters are read at the same boundaries. After each query's checks a
// layer replay on a separate engine of the same dialect times one call
// each to fuzz::TransformDatabase, fuzz::LoadDatabase and
// Engine::Execute(query.ToSql()) on the same inputs, so the oracle engine's
// caches stay untouched. Nothing inside the program is instrumented: all
// spans come from this file.
#include "redrive.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "common/rng.h"
#include "fuzz/aei.h"
#include "fuzz/generator.h"
#include "fuzz/oracle_suite.h"
#include "fuzz/oracles.h"
#include "runtime/aggregator.h"

namespace spatter::perfbench {
namespace {

double Now() { return fuzz::Campaign::NowSeconds(); }

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// --- Spans --------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;  ///< index of the enclosing span; -1 for a root
  size_t round = 0;
  engine::Dialect dialect = engine::Dialect::kPostgis;
  size_t iteration = 0;
};

/// In-memory span log; spans nest by a begin/end stack and carry the
/// (round, dialect, iteration) id of the iteration they belong to. A
/// disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void SetId(size_t round, engine::Dialect dialect, size_t iteration) {
    round_ = round;
    dialect_ = dialect;
    iteration_ = iteration;
  }
  void Begin(const std::string& name) {
    if (!enabled_) return;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.round = round_;
    span.dialect = dialect_;
    span.iteration = iteration_;
    stack_.push_back(static_cast<int64_t>(spans_.size()));
    spans_.push_back(std::move(span));
    spans_.back().start = Now();
  }
  /// Ends the innermost open span and returns its duration in seconds.
  double End() {
    if (!enabled_) return 0.0;
    Span& span = spans_[static_cast<size_t>(stack_.back())];
    span.end = Now();
    stack_.pop_back();
    return span.end - span.start;
  }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(1e6 * (s.end - s.start));
    }
    return out;
  }
  double TotalSeconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  }
  /// Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      self[s.name] += s.end - s.start;
      if (s.parent >= 0) {
        const Span& p = spans_[static_cast<size_t>(s.parent)];
        self[p.name] -= s.end - s.start;
      }
    }
    return self;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "{\"span\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                    "\"id\": \"%zu/%s/%zu\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f}\n",
                    i, static_cast<long long>(s.parent), s.name.c_str(),
                    s.round, engine::DialectCliToken(s.dialect), s.iteration,
                    1e6 * (s.start - t0), 1e6 * (s.end - t0));
      out << line;
    }
    return static_cast<bool>(out);
  }
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  size_t round_ = 0;
  engine::Dialect dialect_ = engine::Dialect::kPostgis;
  size_t iteration_ = 0;
};

// --- Counters at the same boundaries --------------------------------------------

/// Registry instruments the profile reads. Each pointer is taken only if
/// the instrument already exists after the untraced run, so reading never
/// registers a name; a null pointer marks the instrument missing.
struct Instruments {
  obs::Counter* relate_full = nullptr;
  obs::Counter* relate_prefilter = nullptr;
  obs::Counter* cache_hit = nullptr;
  obs::Counter* cache_miss = nullptr;
  obs::LatencyHistogram* parse = nullptr;

  explicit Instruments(const obs::MetricsSnapshot& snapshot) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    auto counter = [&](const char* name) -> obs::Counter* {
      return snapshot.counters.count(name) ? reg.GetCounter(name) : nullptr;
    };
    relate_full = counter("relate.full");
    relate_prefilter = counter("relate.envelope_prefilter");
    cache_hit = counter("engine.stmt_cache.hit");
    cache_miss = counter("engine.stmt_cache.miss");
    if (snapshot.histograms.count("engine.parse")) {
      parse = reg.GetHistogram("engine.parse");
    }
  }
};

/// One reading of everything a check can move.
struct Reading {
  engine::EngineStats primary;
  engine::EngineStats secondary;  ///< the differential oracle's engine
  uint64_t relate_full = 0;
  uint64_t relate_prefilter = 0;
  uint64_t cache_hit = 0;
  uint64_t cache_miss = 0;
  uint64_t parses = 0;
};

uint64_t ValueOf(const obs::Counter* c) { return c ? c->Value() : 0; }

Reading Read(const Instruments& in, const engine::Engine& primary,
             const engine::Engine* secondary) {
  Reading r;
  r.primary = primary.stats();
  if (secondary) r.secondary = secondary->stats();
  r.relate_full = ValueOf(in.relate_full);
  r.relate_prefilter = ValueOf(in.relate_prefilter);
  r.cache_hit = ValueOf(in.cache_hit);
  r.cache_miss = ValueOf(in.cache_miss);
  r.parses = in.parse ? in.parse->count() : 0;
  return r;
}

/// Sums of check-window deltas: one per oracle, one over all checks.
struct CheckTally {
  std::vector<double> check_us;  ///< span duration per check
  uint64_t checks = 0;
  uint64_t verdicts = 0;
  uint64_t statements = 0;  ///< primary + secondary engine
  uint64_t pairs = 0;       ///< primary engine
  uint64_t index_scans = 0;
  uint64_t prepared = 0;
  uint64_t relate_full = 0;
  uint64_t relate_prefilter = 0;
  uint64_t cache_hit = 0;
  uint64_t cache_miss = 0;
  uint64_t parses = 0;
  double span_seconds = 0.0;
  double exec_seconds = 0.0;  ///< primary + secondary engine

  void Add(const Reading& a, const Reading& b, double span, bool verdict) {
    check_us.push_back(1e6 * span);
    ++checks;
    if (verdict) ++verdicts;
    const engine::EngineStats p = b.primary - a.primary;
    const engine::EngineStats s = b.secondary - a.secondary;
    statements += p.statements_executed + s.statements_executed;
    pairs += p.pairs_evaluated;
    index_scans += p.index_scans;
    prepared += p.prepared_evaluations;
    relate_full += b.relate_full - a.relate_full;
    relate_prefilter += b.relate_prefilter - a.relate_prefilter;
    cache_hit += b.cache_hit - a.cache_hit;
    cache_miss += b.cache_miss - a.cache_miss;
    parses += b.parses - a.parses;
    span_seconds += span;
    exec_seconds += p.exec_seconds + s.exec_seconds;
  }
};

/// What a re-drive records. An untraced profile records no spans, counts
/// or replays: that re-drive is the baseline of the tracing overhead.
struct Profile {
  explicit Profile(bool traced) : traced(traced), spans(traced) {}

  bool traced;
  SpanLog spans;
  std::map<std::string, CheckTally> by_oracle;  ///< keyed by CLI token
  std::vector<std::string> oracle_order;
  CheckTally all;
  uint64_t queries = 0;
  uint64_t replay_failures = 0;
};

void RecordDiscrepancy(fuzz::Discrepancy d, fuzz::CampaignResult* shard) {
  // First detection per fault within the shard, as Campaign::RunIteration.
  for (faults::FaultId id : d.fault_hits) {
    shard->unique_bugs.emplace(id, d);
  }
  shard->discrepancies.push_back(std::move(d));
}

/// Re-drives every iteration of one dialect; returns the shard result the
/// campaign would have produced for it.
fuzz::CampaignResult RedriveDialect(const fuzz::CampaignConfig& cfg,
                                    size_t round,
                                    const Instruments& instruments,
                                    Profile* profile) {
  engine::Engine engine(cfg.dialect, cfg.enable_faults);
  fuzz::OracleSuite suite(cfg.oracles, cfg.dialect, cfg.enable_faults);
  Rng rng(cfg.seed);
  fuzz::GeometryAwareGenerator generator(cfg.generator, &rng, &engine);
  engine::Engine replay_engine(cfg.dialect, cfg.enable_faults);

  struct Bound {
    fuzz::Oracle* oracle;
    std::string token;
    std::string span;
    const engine::Engine* secondary;
  };
  std::vector<Bound> oracles;
  for (const auto& oracle : suite.oracles()) {
    auto* diff = dynamic_cast<fuzz::DifferentialOracle*>(oracle.get());
    const std::string token = oracle->Name();
    oracles.push_back({oracle.get(), token, "oracle." + token + ".check",
                       diff ? &diff->secondary_engine() : nullptr});
    if (!profile->by_oracle.count(token)) {
      profile->oracle_order.push_back(token);
      profile->by_oracle[token];
    }
  }

  SpanLog& spans = profile->spans;
  fuzz::CampaignResult shard;
  const engine::EngineStats stats_t0 = engine.stats();
  for (size_t i = 0; i < cfg.iterations; ++i) {
    spans.SetId(round, cfg.dialect, i);
    spans.Begin("iteration");
    rng.Seed(Rng::SplitSeed(cfg.seed, i));
    engine.Reset();
    std::vector<fuzz::GenerationCrash> crashes;
    spans.Begin("generator.generate");
    fuzz::DatabaseSpec sdb1 = generator.Generate(&crashes);
    spans.End();
    sdb1.with_index = rng.Percent(cfg.index_pct);
    for (const auto& crash : crashes) {
      fuzz::Discrepancy d;
      d.iteration = i;
      d.is_crash = true;
      d.oracle = fuzz::OracleKind::kGeneration;
      d.dialect = cfg.dialect;
      d.sdb1 = sdb1;
      d.detail = crash.function + ": " + crash.message;
      d.fault_hits = crash.fault_hits;
      RecordDiscrepancy(std::move(d), &shard);
    }

    for (size_t q = 0; q < cfg.queries_per_iteration; ++q) {
      spans.Begin("query.draw");
      const fuzz::QuerySpec query = generator.RandomQuery(sdb1);
      fuzz::OracleCtx ctx;
      ctx.canonical_only = rng.Percent(cfg.canonical_only_pct);
      const bool metric_sensitive =
          query.extra == engine::PredicateExtra::kDistance ||
          query.predicate == "~=";
      ctx.transform = ctx.canonical_only ? algo::AffineTransform::Identity()
                      : metric_sensitive ? fuzz::RandomIntegerSimilarity(&rng)
                                         : fuzz::RandomIntegerAffine(&rng);
      ctx.query_ordinal =
          static_cast<uint64_t>(i) * cfg.queries_per_iteration + q;
      spans.End();
      shard.queries_run++;
      profile->queries++;

      // One Check per oracle, as OracleSuite::CheckAll makes them (no
      // workload sets an oracle budget).
      for (const Bound& b : oracles) {
        const Reading before = profile->traced
                                   ? Read(instruments, engine, b.secondary)
                                   : Reading();
        spans.Begin(b.span);
        const fuzz::OracleOutcome outcome =
            b.oracle->Check(&engine, sdb1, query, ctx);
        const double span = spans.End();
        if (profile->traced) {
          const Reading after = Read(instruments, engine, b.secondary);
          profile->by_oracle[b.token].Add(before, after, span,
                                          outcome.applicable);
          profile->all.Add(before, after, span, outcome.applicable);
        }
        shard.checks_run++;
        if (!outcome.applicable || (!outcome.mismatch && !outcome.crash)) {
          continue;
        }
        fuzz::Discrepancy d;
        d.iteration = i;
        d.query_index = q;
        d.is_crash = outcome.crash;
        d.oracle = b.oracle->AttributedKind(ctx);
        d.dialect = cfg.dialect;
        if (const auto secondary = b.oracle->SecondaryDialect()) {
          d.diff_secondary = *secondary;
        }
        d.query = query;
        d.sdb1 = sdb1;
        d.transform = d.oracle == fuzz::OracleKind::kAei
                          ? ctx.transform
                          : algo::AffineTransform::Identity();
        d.detail = outcome.detail;
        d.fault_hits = outcome.fault_hits;
        RecordDiscrepancy(std::move(d), &shard);
      }

      if (!profile->traced) continue;
      spans.Begin("replay");
      spans.Begin("replay.transform");
      fuzz::TransformDatabase(sdb1, ctx.transform, /*canonicalize=*/true);
      spans.End();
      spans.Begin("replay.load");
      const Status loaded = fuzz::LoadDatabase(&replay_engine, sdb1, nullptr);
      spans.End();
      spans.Begin("replay.query");
      const auto counted = replay_engine.Execute(query.ToSql());
      spans.End();
      spans.End();
      if (!loaded.ok() || !counted.ok()) {
        profile->replay_failures++;
      }
    }
    shard.iterations_run++;
    spans.End();
  }
  shard.engine_stats = engine.stats() - stats_t0;
  return shard;
}

struct UntracedRun {
  fuzz::CampaignResult result;
  double wall = 0.0;
  double cpu = 0.0;
};

UntracedRun RunUntracedOnce(const Workload& w, uint64_t seed, size_t jobs) {
  runtime::ShardedCampaign campaign(MakeConfig(w, seed, jobs));
  UntracedRun run;
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  run.result = campaign.Run();
  run.wall = Now() - t0;
  run.cpu = CpuSeconds() - cpu0;
  return run;
}

double PerQuery(uint64_t n, uint64_t queries) {
  return static_cast<double>(n) / static_cast<double>(queries);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

int RunTraced(const Workload& w, uint64_t seed, const std::string& trace_dir) {
  Report report;
  std::printf("workload %s (traced): %zu rounds of spatter %s, seeds "
              "derived from %llu\n",
              w.name, w.traced_rounds, Flags(w).c_str(),
              static_cast<unsigned long long>(seed));
  std::vector<uint64_t> seeds;
  for (size_t r = 0; r < w.traced_rounds; ++r) {
    seeds.push_back(RoundSeed(seed, r));
  }

  // Untraced references of every round: serial first, then at the
  // workload's job count (the registry delta covers the latter only).
  double serial_busy = 0.0;
  std::vector<fuzz::CampaignResult> serial;
  for (uint64_t s : seeds) {
    serial.push_back(RunUntracedOnce(w, s, 1).result);
    serial_busy += serial.back().busy_seconds;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const obs::MetricsSnapshot before = registry.Snapshot();
  std::vector<fuzz::CampaignResult> untraced;
  runtime::Aggregator untraced_all;
  double cpu = 0.0;
  double wall = 0.0;
  double busy = 0.0;
  for (uint64_t s : seeds) {
    UntracedRun run = RunUntracedOnce(w, s, w.jobs);
    cpu += run.cpu;
    wall += run.wall;
    busy += run.result.busy_seconds;
    untraced_all.Merge(run.result);
    untraced.push_back(std::move(run.result));
  }
  const obs::MetricsSnapshot after = registry.Snapshot();
  const fuzz::CampaignResult merged = untraced_all.Finish(wall);
  CheckSelf(w, merged, RegistryDelta(before, after), &report);
  CheckPinned(w, seed, seeds.size(), untraced.front(), merged, &report);

  // The traced serial re-drive of the same rounds. Each round is also
  // re-driven untraced, next to it, as the tracing overhead's baseline.
  const Instruments instruments(after);
  Profile bare(false);
  Profile profile(true);
  std::vector<fuzz::CampaignResult> redriven;
  double bare_seconds = 0.0;
  double traced_seconds = 0.0;
  for (size_t r = 0; r < seeds.size(); ++r) {
    const runtime::ShardedCampaignConfig config = MakeConfig(w, seeds[r], 1);
    auto redrive = [&](Profile* into, runtime::Aggregator* aggregator) {
      const double t0 = Now();
      for (engine::Dialect dialect : runtime::ShardedCampaign::AllDialects()) {
        fuzz::CampaignConfig cfg = config.base;
        cfg.dialect = dialect;
        fuzz::CampaignResult shard =
            RedriveDialect(cfg, r, instruments, into);
        if (aggregator) aggregator->Merge(std::move(shard));
      }
      return Now() - t0;
    };
    // Alternate which of the two goes first, so warm-up favours neither.
    runtime::Aggregator aggregator;
    double seconds = 0.0;
    if (r % 2 == 1) seconds = redrive(&profile, &aggregator);
    bare_seconds += redrive(&bare, nullptr);
    if (r % 2 == 0) seconds = redrive(&profile, &aggregator);
    traced_seconds += seconds;
    redriven.push_back(aggregator.Finish(seconds));
  }

  // Equivalence, round by round: serial vs --jobs (the jobs-invariance of
  // pure-generate mode), and the traced re-drive vs the untraced run.
  auto lines = [](const fuzz::CampaignResult& r) {
    return BugSetLine(r) + " | " + BugSetByOracleLine(r);
  };
  auto counters = [](const fuzz::CampaignResult& r) {
    const engine::EngineStats& e = r.engine_stats;
    return std::to_string(e.statements_executed) + "/" +
           std::to_string(e.pairs_evaluated) + "/" +
           std::to_string(e.index_scans) + "/" +
           std::to_string(e.prepared_evaluations);
  };
  auto compare = [&](const std::string& name, auto key,
                     const std::vector<fuzz::CampaignResult>& got) {
    std::string detail = "equal in all " + std::to_string(seeds.size()) +
                         " rounds";
    bool ok = true;
    for (size_t r = 0; r < seeds.size() && ok; ++r) {
      if (key(got[r]) != key(untraced[r])) {
        ok = false;
        detail = "round " + std::to_string(r) + ": " + key(got[r]) +
                 " vs untraced " + key(untraced[r]);
      }
    }
    report.Check(name, ok, detail);
  };
  compare("jobs-invariance", lines, serial);
  compare("redrive.bug-set", lines, redriven);
  compare(
      "redrive.discrepancies",
      [](const fuzz::CampaignResult& r) {
        return std::to_string(r.discrepancies.size());
      },
      redriven);
  compare("redrive.engine-counters", counters, redriven);
  report.set_attempted(profile.queries);
  
  // Per-layer metrics.
  const SpanLog& spans = profile.spans;
  const CheckTally& all = profile.all;
  const uint64_t queries = profile.queries;
  const std::string base = "over " + std::to_string(queries) + " queries";
  report.Metric("generator.generate_us",
                Median(spans.DurationsUs("generator.generate")), "us",
                "p50 per Generate call");
  report.Metric("aei.transform_us",
                Median(spans.DurationsUs("replay.transform")), "us",
                "p50 per replayed TransformDatabase");
  report.Metric("engine.load_us", Median(spans.DurationsUs("replay.load")),
                "us", "p50 per replayed LoadDatabase");
  const std::vector<double> query_us = spans.DurationsUs("replay.query");
  report.Metric("engine.query_p50_us", Quantile(query_us, 0.5), "us",
                "replayed count query, n=" + std::to_string(query_us.size()));
  report.Metric("engine.query_p99_us", Quantile(query_us, 0.99), "us",
                "replayed count query, n=" + std::to_string(query_us.size()));
  report.Metric("engine.statements_per_query",
                PerQuery(all.statements, queries), "count", base);
  report.Metric("engine.pairs_per_query", PerQuery(all.pairs, queries),
                "count", base);
  report.Metric("engine.index_scans_per_query",
                PerQuery(all.index_scans, queries), "count", base);
  report.Metric("engine.prepared_per_query", PerQuery(all.prepared, queries),
                "count", base);
  report.Metric("engine.exec_share",
                Ratio(all.exec_seconds, all.span_seconds), "ratio",
                "engine exec time / check span time");

  if (instruments.parse) {
    report.Metric("sql.parses_per_query", PerQuery(all.parses, queries),
                  "count", base);
  } else {
    report.Missing("sql.parses_per_query", "histogram engine.parse absent");
  }
  if (instruments.cache_hit && instruments.cache_miss) {
    const uint64_t lookups = all.cache_hit + all.cache_miss;
    report.Metric("sql.stmt_cache_hit_rate",
                  Ratio(static_cast<double>(all.cache_hit),
                        static_cast<double>(lookups)),
                  "ratio", "of " + std::to_string(lookups) + " lookups");
    report.Metric("sql.stmt_cache_lookups_per_query",
                  PerQuery(lookups, queries), "count", base);
  } else {
    report.Missing("sql.stmt_cache_hit_rate",
                   "counters engine.stmt_cache.{hit,miss} absent");
    report.Missing("sql.stmt_cache_lookups_per_query",
                   "counters engine.stmt_cache.{hit,miss} absent");
  }
  if (instruments.relate_full && instruments.relate_prefilter) {
    report.Metric("relate.full_per_query", PerQuery(all.relate_full, queries),
                  "count", base);
    report.Metric("relate.prefilter_per_query",
                  PerQuery(all.relate_prefilter, queries), "count", base);
    const uint64_t relates = all.relate_full + all.relate_prefilter;
    report.Metric("relate.prefilter_rate",
                  Ratio(static_cast<double>(all.relate_prefilter),
                        static_cast<double>(relates)),
                  "ratio", "of " + std::to_string(relates) + " relates");
  } else {
    for (const char* name : {"relate.full_per_query",
                             "relate.prefilter_per_query",
                             "relate.prefilter_rate"}) {
      report.Missing(name, "counters relate.{full,envelope_prefilter} absent");
    }
  }

  for (const std::string& token : profile.oracle_order) {
    const CheckTally& t = profile.by_oracle.at(token);
    const std::string prefix = "oracle." + token;
    const std::string n = "n=" + std::to_string(t.checks);
    report.Metric(prefix + ".check_p50_us", Quantile(t.check_us, 0.5), "us",
                  n);
    report.Metric(prefix + ".check_p99_us", Quantile(t.check_us, 0.99), "us",
                  n);
    report.Metric(prefix + ".statements_per_check",
                  PerQuery(t.statements, t.checks), "count", n);
    report.Metric(prefix + ".outside_engine_share",
                  Ratio(t.span_seconds - t.exec_seconds, t.span_seconds),
                  "ratio", "(span - engine exec) / span");
    report.Metric(prefix + ".verdict_rate",
                  Ratio(static_cast<double>(t.verdicts),
                        static_cast<double>(t.checks)),
                  "ratio", std::to_string(t.verdicts) + " of " +
                               std::to_string(t.checks) + " checks");
  }

  report.Metric("runtime.cpu_util",
                Ratio(cpu, wall * static_cast<double>(w.jobs)),
                "ratio",
                "process CPU / (wall x " + std::to_string(w.jobs) + " jobs)");
  report.Metric("runtime.busy_inflation",
                Ratio(busy, serial_busy),
                "ratio",
                "busy s at --jobs=" + std::to_string(w.jobs) + " / serial");

  // Self time per layer, and what the spans and counter reads cost: the
  // traced re-drive's time outside the replays against the untraced one.
  for (const auto& [name, seconds] : spans.SelfSeconds()) {
    report.Metric("self_s." + name, seconds, "s", "self time");
  }
  const double traced_work = traced_seconds - spans.TotalSeconds("replay");
  report.Metric("trace.overhead", Ratio(traced_work, bare_seconds) - 1.0,
                "ratio",
                "traced re-drive minus replays " +
                    std::to_string(traced_work) + " s vs untraced " +
                    std::to_string(bare_seconds) + " s");
  if (profile.replay_failures > 0) {
    std::printf("replay: %llu of %llu layer replays failed to load or query\n",
                static_cast<unsigned long long>(profile.replay_failures),
                static_cast<unsigned long long>(queries));
  }

  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/" + w.name + "-seed" +
                             std::to_string(seed) + ".spans.jsonl";
    if (spans.WriteJsonLines(path)) {
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  path.c_str());
    } else {
      std::printf("trace: cannot write %s\n", path.c_str());
    }
  }
  return report.Finish();
}

}  // namespace spatter::perfbench
