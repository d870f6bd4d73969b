// Micro ablations of the engine (google-benchmark): join execution paths
// (nested loop vs index scan vs prepared geometry) and statement overhead.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "engine/engine.h"

namespace {

using namespace spatter;  // NOLINT
using engine::Dialect;
using engine::Engine;

// Loads `rows` random points and squares into two tables. Each join case
// fails (SkipWithError) when its work counter stays 0: a join against an
// empty table times nothing.
void Load(Engine* e, size_t rows, bool with_index) {
  e->Reset();
  (void)e->Execute("CREATE TABLE a (g geometry);");
  (void)e->Execute("CREATE TABLE b (g geometry);");
  if (with_index) {
    (void)e->Execute("CREATE INDEX ib ON b USING GIST (g);");
  }
  Rng rng(42);
  for (size_t i = 0; i < rows; ++i) {
    const long x = rng.IntIn(-100, 100);
    const long y = rng.IntIn(-100, 100);
    (void)e->Execute("INSERT INTO a (g) VALUES ('POINT(" +
                     std::to_string(x) + " " + std::to_string(y) + ")');");
    (void)e->Execute("INSERT INTO b (g) VALUES ('POLYGON((" +
                     std::to_string(x) + " " + std::to_string(y) + "," +
                     std::to_string(x + 5) + " " + std::to_string(y) + "," +
                     std::to_string(x + 5) + " " + std::to_string(y + 5) +
                     "," + std::to_string(x) + " " + std::to_string(y + 5) +
                     "," + std::to_string(x) + " " + std::to_string(y) +
                     "))');");
  }
}

void BM_JoinNestedLoop(benchmark::State& state) {
  Engine e(Dialect::kMysql, false);  // no index/prepared paths
  Load(&e, static_cast<size_t>(state.range(0)), false);
  for (auto _ : state) {
    auto r = e.Execute(
        "SELECT COUNT(*) FROM a JOIN b ON ST_Within(a.g, b.g);");
    benchmark::DoNotOptimize(r);
  }
  state.counters["pairs"] = static_cast<double>(e.stats().pairs_evaluated);
  if (e.stats().pairs_evaluated == 0) state.SkipWithError("no join pairs");
}
BENCHMARK(BM_JoinNestedLoop)->Arg(10)->Arg(40);

void BM_JoinIndexScan(benchmark::State& state) {
  Engine e(Dialect::kPostgis, false);
  Load(&e, static_cast<size_t>(state.range(0)), true);
  for (auto _ : state) {
    auto r = e.Execute(
        "SELECT COUNT(*) FROM a JOIN b ON ST_Within(a.g, b.g);");
    benchmark::DoNotOptimize(r);
  }
  state.counters["pairs"] = static_cast<double>(e.stats().pairs_evaluated);
  if (e.stats().pairs_evaluated == 0) state.SkipWithError("no join pairs");
}
BENCHMARK(BM_JoinIndexScan)->Arg(10)->Arg(40);

void BM_JoinPreparedPath(benchmark::State& state) {
  Engine e(Dialect::kPostgis, false);
  Load(&e, static_cast<size_t>(state.range(0)), false);
  for (auto _ : state) {
    auto r = e.Execute(
        "SELECT COUNT(*) FROM b JOIN a ON ST_Contains(b.g, a.g);");
    benchmark::DoNotOptimize(r);
  }
  state.counters["prepared"] =
      static_cast<double>(e.stats().prepared_evaluations);
  if (e.stats().prepared_evaluations == 0) {
    state.SkipWithError("no prepared evaluations");
  }
}
BENCHMARK(BM_JoinPreparedPath)->Arg(10)->Arg(40);

// The generic per-pair path EET and TLP take on a strict dialect: a
// compound condition takes neither the index nor the prepared path, and
// every predicate call coerces both stored geometries.
void BM_JoinCompoundCondition(benchmark::State& state) {
  Engine e(Dialect::kDuckdbSpatial, false);
  Load(&e, static_cast<size_t>(state.range(0)), false);
  for (auto _ : state) {
    auto r = e.Execute(
        "SELECT COUNT(*) FROM a JOIN b ON (ST_Intersects(a.g, b.g) AND NOT "
        "ST_Touches(a.g, b.g)) OR ST_Within(a.g, b.g);");
    benchmark::DoNotOptimize(r);
  }
  state.counters["pairs"] = static_cast<double>(e.stats().pairs_evaluated);
  if (e.stats().pairs_evaluated == 0) state.SkipWithError("no join pairs");
}
BENCHMARK(BM_JoinCompoundCondition)->Arg(10)->Arg(40);

void BM_ParseAndExecuteScalar(benchmark::State& state) {
  Engine e(Dialect::kPostgis, false);
  for (auto _ : state) {
    auto r = e.Execute(
        "SELECT ST_Distance('POINT(0 0)'::geometry, "
        "'LINESTRING(3 4,10 10)'::geometry);");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseAndExecuteScalar);

void BM_InsertWithValidityCheck(benchmark::State& state) {
  Engine e(Dialect::kPostgis, false);
  (void)e.Execute("CREATE TABLE t (g geometry);");
  for (auto _ : state) {
    auto r = e.Execute(
        "INSERT INTO t (g) VALUES ('POLYGON((0 0,8 0,8 8,0 8,0 0),"
        "(2 2,3 2,3 3,2 3,2 2))');");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InsertWithValidityCheck);

}  // namespace

BENCHMARK_MAIN();
