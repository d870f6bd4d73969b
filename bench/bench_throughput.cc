// Throughput trajectory bench: one fixed pure-generate workload per
// dialect (30 iterations x 50 queries x 10 geometries at a pinned seed),
// timed end to end, with the telemetry registry's phase histograms
// riding along. Writes BENCH_throughput.json (spatter-metrics-v1) so CI
// archives one comparable throughput sample per commit — the trajectory
// the repo's perf work is judged against.
//
// Regression gate: when a committed baseline exists (argv[1], default
// ../bench/throughput_baseline.json relative to the build dir), a
// dialect running more than kSlowdownGate times slower than its baseline
// iterations/second fails the bench. The slack absorbs machine-to-machine
// and CI-noise variance; a genuine algorithmic regression blows through
// 3x. A missing baseline warns and passes, so the bench bootstraps on
// fresh checkouts.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "obs/metrics.h"

using namespace spatter;         // NOLINT
using namespace spatter::bench;  // NOLINT

namespace {

constexpr uint64_t kSeed = 4242;
constexpr size_t kIterations = 30;
constexpr size_t kQueries = 50;
constexpr size_t kGeometries = 10;
constexpr double kSlowdownGate = 3.0;

constexpr engine::Dialect kDialects[] = {
    engine::Dialect::kPostgis, engine::Dialect::kDuckdbSpatial,
    engine::Dialect::kMysql, engine::Dialect::kSqlserver};

}  // namespace

int main(int argc, char** argv) {
  const std::string baseline_path =
      argc > 1 ? argv[1] : "../bench/throughput_baseline.json";

  std::printf("bench_throughput: fixed workload (%zu x %zu queries, N=%zu, "
              "seed %llu) per dialect\n",
              kIterations, kQueries, kGeometries,
              static_cast<unsigned long long>(kSeed));
  Rule('=');
  std::printf("%-16s %10s %12s %14s\n", "SDBMS", "wall(s)", "iters/s",
              "engine us/q");
  Rule();

  obs::MetricsRegistry::Instance().Reset();
  std::map<std::string, double> derived;
  double elapsed_total = 0.0;
  for (engine::Dialect dialect : kDialects) {
    fuzz::CampaignConfig config;
    config.dialect = dialect;
    config.seed = kSeed;
    config.iterations = kIterations;
    config.queries_per_iteration = kQueries;
    config.generator.num_geometries = kGeometries;
    fuzz::Campaign campaign(config);
    const double t0 = NowSeconds();
    const fuzz::CampaignResult result = campaign.Run();
    const double wall = NowSeconds() - t0;
    elapsed_total += wall;
    const double iters_per_sec =
        wall > 0 ? static_cast<double>(kIterations) / wall : 0.0;
    const double engine_us_per_query =
        1e6 * result.engine_seconds /
        static_cast<double>(kIterations * kQueries);
    const std::string token = engine::DialectCliToken(dialect);
    derived[token + ".iterations_per_second"] = iters_per_sec;
    derived[token + ".engine_us_per_query"] = engine_us_per_query;
    std::printf("%-16s %10.2f %12.1f %14.1f\n",
                engine::DialectName(dialect), wall, iters_per_sec,
                engine_us_per_query);
  }
  Rule();

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  {
    // Statement-cache effectiveness over the whole workload, and the load
    // snapshots next to it: a reload restores a snapshot and runs no
    // statement, so only snapshot builds and queries reach the cache.
    const uint64_t hits = snapshot.CounterOr("engine.stmt_cache.hit");
    const uint64_t misses = snapshot.CounterOr("engine.stmt_cache.miss");
    const uint64_t evictions = snapshot.CounterOr("engine.stmt_cache.evict");
    const uint64_t lookups = hits + misses;
    std::printf("stmt-cache: %llu hits / %llu lookups (%.1f%%), "
                "%llu evictions\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(lookups),
                lookups > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<unsigned long long>(evictions));
    const obs::HistogramData* restores =
        snapshot.FindHistogram("engine.restore");
    std::printf("load-snapshots: %llu restores, %llu builds\n",
                static_cast<unsigned long long>(restores ? restores->count
                                                         : 0),
                static_cast<unsigned long long>(
                    snapshot.CounterOr("engine.snapshot.build")));
  }
  if (!WriteMetricsJson("BENCH_throughput.json", "throughput", kSeed,
                        snapshot, elapsed_total, derived)) {
    return 1;
  }

  std::ifstream in(baseline_path, std::ios::binary);
  if (!in) {
    std::printf("bench: no baseline at %s — skipping the regression gate "
                "(commit BENCH_throughput.json there to arm it)\n",
                baseline_path.c_str());
    return 0;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string baseline = text.str();
  bool ok = true;
  for (engine::Dialect dialect : kDialects) {
    const std::string key =
        std::string(engine::DialectCliToken(dialect)) +
        ".iterations_per_second";
    double base = 0.0;
    if (!FindJsonNumber(baseline, key, &base) || base <= 0) {
      std::printf("bench: baseline lacks %s — skipping that gate\n",
                  key.c_str());
      continue;
    }
    const double current = derived[key];
    const double ratio = current > 0 ? base / current : kSlowdownGate + 1;
    std::printf("gate: %s baseline %.1f/s, current %.1f/s (%.2fx %s)\n",
                key.c_str(), base, current,
                ratio >= 1 ? ratio : 1 / ratio,
                ratio >= 1 ? "slower" : "faster");
    if (ratio > kSlowdownGate) {
      std::printf("FAIL: %s regressed more than %.0fx vs baseline\n",
                  key.c_str(), kSlowdownGate);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("OK: throughput within %.0fx of baseline\n", kSlowdownGate);
  return 0;
}
