// Micro ablations of the topology core (google-benchmark): relate kernel
// cost by geometry complexity, the memo's replay cost, prepared vs plain
// predicates, canonicalization and the AEI database transform.
#include <benchmark/benchmark.h>

#include "algo/canonicalize.h"
#include "common/rng.h"
#include "fuzz/aei.h"
#include "geom/wkt_reader.h"
#include "obs/metrics.h"
#include "relate/named_predicates.h"
#include "relate/prepared.h"
#include "relate/relate.h"

namespace {

using namespace spatter;  // NOLINT

// A ring polygon with `n` vertices approximating a circle on integer-ish
// coordinates.
geom::GeomPtr MakeRingPolygon(int n, double radius, double cx, double cy) {
  geom::Polygon::Ring ring;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    ring.push_back({cx + std::round(radius * std::cos(a)),
                    cy + std::round(radius * std::sin(a) * 0.9)});
  }
  ring.push_back(ring.front());
  return geom::MakePolygon({std::move(ring)});
}

// The kernel: RelateUnmemoized runs the full path on every call, where
// Relate would replay this one pair from its memo.
void BM_RelatePolygonPair(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeRingPolygon(n, 100, 0, 0);
  const auto b = MakeRingPolygon(n, 100, 60, 0);
  for (auto _ : state) {
    auto im = relate::RelateUnmemoized(*a, *b);
    benchmark::DoNotOptimize(im);
  }
  state.SetLabel("vertices=" + std::to_string(n));
  // The two discs overlap: a relate that misses the 2-dimensional
  // interior intersection did not do the work this case times.
  const auto im = relate::RelateUnmemoized(*a, *b);
  if (!im.ok() || !im.value().Matches("2********")) {
    state.SkipWithError("relate missed the overlap");
  }
}
BENCHMARK(BM_RelatePolygonPair)->Arg(8)->Arg(32)->Arg(128);

// A memo hit on the same pair: building and hashing the key, comparing it
// and replaying the recorded coverage.
void BM_RelateMemoHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeRingPolygon(n, 100, 0, 0);
  const auto b = MakeRingPolygon(n, 100, 60, 0);
  for (int i = 0; i < 2; ++i) (void)relate::Relate(*a, *b);  // admit
  obs::Counter* hits =
      obs::MetricsRegistry::Instance().GetCounter("relate.memo.hit");
  const uint64_t hits_before = hits->Value();
  for (auto _ : state) {
    auto im = relate::Relate(*a, *b);
    benchmark::DoNotOptimize(im);
  }
  state.SetLabel("vertices=" + std::to_string(n));
  if (hits->Value() - hits_before !=
      static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("a call missed the memo");
  }
  const auto im = relate::Relate(*a, *b);
  if (!im.ok() || !im.value().Matches("2********")) {
    state.SkipWithError("relate missed the overlap");
  }
}
BENCHMARK(BM_RelateMemoHit)->Arg(8)->Arg(32)->Arg(128);

// Each candidate point meets the same target on every pass, so after the
// first pass the full-path relates are memo hits.
void BM_PlainIntersectsManyCandidates(benchmark::State& state) {
  const auto target = MakeRingPolygon(32, 100, 0, 0);
  std::vector<geom::GeomPtr> candidates;
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    candidates.push_back(geom::MakePoint(
        static_cast<double>(rng.IntIn(-200, 200)),
        static_cast<double>(rng.IntIn(-200, 200))));
  }
  for (auto _ : state) {
    int hits = 0;
    for (const auto& c : candidates) {
      hits += relate::Intersects(*target, *c).value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PlainIntersectsManyCandidates);

// As above, through the prepared wrapper: it runs against a warm memo too.
void BM_PreparedIntersectsManyCandidates(benchmark::State& state) {
  const auto target = MakeRingPolygon(32, 100, 0, 0);
  std::vector<geom::GeomPtr> candidates;
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    candidates.push_back(geom::MakePoint(
        static_cast<double>(rng.IntIn(-200, 200)),
        static_cast<double>(rng.IntIn(-200, 200))));
  }
  relate::PreparedGeometry prep(*target);
  for (auto _ : state) {
    int hits = 0;
    for (const auto& c : candidates) {
      hits += prep.Intersects(*c).value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PreparedIntersectsManyCandidates);

void BM_Canonicalize(benchmark::State& state) {
  const auto g = geom::ReadWkt(
                     "GEOMETRYCOLLECTION(MULTILINESTRING((0 2,1 0,3 1,3 1,5 "
                     "0),EMPTY),POLYGON((0 0,10 0,10 10,0 10,0 0)),"
                     "MULTIPOINT((2 2),(1 1),(1 1)))")
                     .Take();
  for (auto _ : state) {
    auto canon = algo::Canonicalize(*g);
    benchmark::DoNotOptimize(canon);
  }
}
BENCHMARK(BM_Canonicalize);

void BM_AffineTransformDatabase(benchmark::State& state) {
  fuzz::DatabaseSpec sdb;
  fuzz::TableSpec table{"t1", {}};
  for (int i = 0; i < 50; ++i) {
    table.rows.push_back("POLYGON((0 0,10 0,10 10,0 10,0 0))");
  }
  sdb.tables.push_back(table);
  Rng rng(3);
  const auto t = fuzz::RandomIntegerAffine(&rng);
  for (auto _ : state) {
    auto out = fuzz::TransformDatabase(sdb, t, /*canonicalize=*/true);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AffineTransformDatabase);

}  // namespace

BENCHMARK_MAIN();
