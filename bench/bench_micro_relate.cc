// Micro ablations of the topology core (google-benchmark): relate kernel
// cost by geometry complexity, the relate front's exits, the memo's replay
// cost, the kernel on reused operands, prepared vs plain predicates,
// canonicalization, the AEI database transform and the SDB2 load it feeds,
// and a count query replayed from a restored database's result store.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "algo/affine.h"
#include "algo/canonicalize.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz/aei.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "geom/wkb.h"
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

// The relate front's exits, which answer without the kernel: a polygon, a
// MULTILINESTRING and a GEOMETRYCOLLECTION related to an EMPTY operand
// (`empty`) or to a point far from their envelopes (`separated`, the
// envelope pre-filter). Each exit fills the exterior row from its
// operand's point-set and boundary dimensions.
void BM_RelateFront(benchmark::State& state, bool separated) {
  std::vector<geom::GeomPtr> shapes;
  shapes.push_back(MakeRingPolygon(32, 100, 0, 0));
  shapes.push_back(geom::ReadWkt("MULTILINESTRING((0 0,10 10,20 0),"
                                 "(5 5,15 5),(20 0,30 10),(30 30,40 40))")
                       .Take());
  shapes.push_back(
      geom::ReadWkt("GEOMETRYCOLLECTION(POINT(1 1),LINESTRING(0 0,5 5,10 0),"
                    "POLYGON((0 0,4 0,4 4,0 4,0 0)),MULTIPOINT((7 7),(8 8)))")
          .Take());
  const geom::GeomPtr other =
      geom::ReadWkt(separated ? "POINT(1000 1000)" : "POLYGON EMPTY").Take();
  for (auto _ : state) {
    for (const auto& g : shapes) {
      auto im = relate::Relate(*g, *other);
      benchmark::DoNotOptimize(im);
    }
  }
  // The exit's matrix: nothing of g meets the other operand, and the
  // exterior column holds g's dimensions (and the far point's interior).
  obs::Counter* prefiltered =
      obs::MetricsRegistry::Instance().GetCounter("relate.envelope_prefilter");
  for (const auto& g : shapes) {
    const uint64_t before = prefiltered->Value();
    const auto im = relate::Relate(*g, *other);
    const bool took_prefilter = prefiltered->Value() == before + 1;
    if (!im.ok() ||
        !im.value().Matches(separated ? "FFTFFTTF2" : "FFTFFTFF2") ||
        took_prefilter != separated) {
      state.SkipWithError("the pair did not take the front's exit");
    }
  }
}
BENCHMARK_CAPTURE(BM_RelateFront, empty, false);
BENCHMARK_CAPTURE(BM_RelateFront, separated, true);

// A memo hit on the same pair: building and hashing the key, comparing it
// and applying the logged tally.
void BM_RelateMemoHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeRingPolygon(n, 100, 0, 0);
  const auto b = MakeRingPolygon(n, 100, 60, 0);
  (void)relate::Relate(*a, *b);  // the kernel logs the pair
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

// The AEI image pattern: each pass translates K overlapping 16-vertex
// polygons by a fresh integer offset and relates every ordered pair
// through Relate. Every pair misses the memo, and the kernel finds each
// operand in its operand cache on all but its first of 2K uses.
void BM_RelateOperandReuse(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<geom::GeomPtr> polygons;
  for (int i = 0; i < k; ++i) {
    polygons.push_back(MakeRingPolygon(16, 100, 6 * i, 3 * (i % 4)));
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  obs::Counter* memo_hits = registry.GetCounter("relate.memo.hit");
  obs::Counter* operand_hits = registry.GetCounter("relate.operand.hit");
  static int next_offset = 0;  // offsets stay fresh across runs of the case
  std::vector<geom::GeomPtr> image;
  const auto translate = [&] {
    const auto shift =
        algo::AffineTransform::Translation(1000.0 * ++next_offset, -7.0);
    image.clear();
    for (const auto& g : polygons) image.push_back(shift.Apply(*g));
  };
  const uint64_t memo_before = memo_hits->Value();
  const uint64_t operand_before = operand_hits->Value();
  for (auto _ : state) {
    translate();
    for (const auto& a : image) {
      for (const auto& b : image) {
        auto im = relate::Relate(*a, *b);
        benchmark::DoNotOptimize(im);
      }
    }
  }
  state.SetLabel("polygons=" + std::to_string(k));
  state.SetItemsProcessed(state.iterations() * k * k);
  if (memo_hits->Value() != memo_before) {
    state.SkipWithError("a pair hit the memo");
  } else if (operand_hits->Value() == operand_before) {
    state.SkipWithError("no operand was reused");
  }
  translate();
  for (const auto& a : image) {
    for (const auto& b : image) {
      const auto got = relate::Relate(*a, *b);
      const auto want = relate::RelateUnmemoized(*a, *b);
      if (!got.ok() || !want.ok() ||
          got.value().Code() != want.value().Code()) {
        state.SkipWithError("a matrix differs from RelateUnmemoized's");
        return;
      }
    }
  }
}
BENCHMARK(BM_RelateOperandReuse)->Arg(8)->Arg(32);

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

// A generated SDB1 of `rows` rows and 64 affine transforms to load its
// image under: each timed iteration takes the next, so no load restores a
// snapshot.
struct AffineLoadInput {
  fuzz::DatabaseSpec sdb1;
  std::vector<algo::AffineTransform> transforms;
};

AffineLoadInput MakeAffineLoadInput(int rows) {
  AffineLoadInput input;
  engine::Engine e(engine::Dialect::kPostgis, true);
  fuzz::GeneratorConfig config;
  config.num_geometries = static_cast<size_t>(rows);
  Rng rng(7);
  fuzz::GeometryAwareGenerator gen(config, &rng, &e);
  input.sdb1 = gen.Generate(nullptr);
  for (int i = 0; i < 64; ++i) {
    input.transforms.push_back(fuzz::RandomIntegerAffine(&rng));
  }
  return input;
}

size_t CountAccepted(const fuzz::RowMask& mask) {
  size_t n = 0;
  for (const auto& table : mask) {
    for (bool accepted : table) n += accepted;
  }
  return n;
}

// The engine's tables, each geometry as WKB (coordinates by bits).
std::map<std::string, std::string> TablesWkb(const engine::Engine& e) {
  std::map<std::string, std::string> out;
  for (const auto& [name, table] : e.tables()) {
    for (const engine::Row& row : table.rows) {
      const engine::Value& v = row[table.geometry_column];
      out[name] += (v.geometry() ? geom::WriteWkbHex(*v.geometry()) : "null") +
                   " ";
    }
  }
  return out;
}

// SDB2 as the AEI check loads it: typed rows from the canonical forms
// derived once for SDB1 (fuzz::AffinePair).
void BM_AffinePairLoad(benchmark::State& state) {
  const AffineLoadInput input = MakeAffineLoadInput(state.range(0));
  engine::Engine engine(engine::Dialect::kPostgis, true);
  {
    fuzz::AffinePair pair(&engine, input.sdb1, input.transforms[0]);
    fuzz::RowMask typed_mask;
    fuzz::RowMask text_mask;
    engine::Engine text(engine::Dialect::kPostgis, true);
    const bool loaded =
        pair.LoadImage(&typed_mask).ok() &&
        fuzz::LoadDatabase(&text,
                           fuzz::TransformDatabase(input.sdb1,
                                                   input.transforms[0], true),
                           &text_mask)
            .ok();
    if (!loaded || typed_mask != text_mask ||
        TablesWkb(engine) != TablesWkb(text)) {
      state.SkipWithError("typed tables differ from the WKT path's");
      return;
    }
  }
  size_t next = 0;
  size_t accepted = 0;
  for (auto _ : state) {
    fuzz::AffinePair pair(&engine, input.sdb1,
                          input.transforms[next++ % input.transforms.size()]);
    fuzz::RowMask mask;
    if (pair.LoadImage(&mask).ok()) accepted += CountAccepted(mask);
  }
  if (accepted == 0) state.SkipWithError("no row accepted");
}
BENCHMARK(BM_AffinePairLoad)->Arg(10)->Arg(40);

// The same SDB2 through text: TransformDatabase prints it, LoadDatabase
// parses the INSERTs and the WKT again.
void BM_AffinePairLoadViaWkt(benchmark::State& state) {
  const AffineLoadInput input = MakeAffineLoadInput(state.range(0));
  engine::Engine engine(engine::Dialect::kPostgis, true);
  size_t next = 0;
  size_t accepted = 0;
  for (auto _ : state) {
    const fuzz::DatabaseSpec sdb2 = fuzz::TransformDatabase(
        input.sdb1, input.transforms[next++ % input.transforms.size()], true);
    fuzz::RowMask mask;
    if (fuzz::LoadDatabase(&engine, sdb2, &mask).ok()) {
      accepted += CountAccepted(mask);
    }
  }
  if (accepted == 0) state.SkipWithError("no row accepted");
}
BENCHMARK(BM_AffinePairLoadViaWkt)->Arg(10)->Arg(40);

// A count query repeated on a restored SDB1, as TLP, EET and the index
// oracle repeat diff's base query: the restore lends the snapshot's result
// store, the first run records the query's result and effects there, and
// each timed run replays them. `first_us` is the first run, which joins.
// Faults are off, so no injected crash cuts the join short.
void BM_CountQueryReplay(benchmark::State& state) {
  const AffineLoadInput input = MakeAffineLoadInput(state.range(0));
  engine::Engine engine(engine::Dialect::kPostgis, false);
  fuzz::QuerySpec query;
  query.table1 = input.sdb1.tables.front().name;
  query.table2 = input.sdb1.tables.back().name;
  query.predicate = "ST_Intersects";
  const sql::StatementPtr stmt = query.ToStatement();
  // The first load builds the snapshot; the second restores it.
  if (!fuzz::LoadDatabase(&engine, input.sdb1, nullptr).ok() ||
      !fuzz::LoadDatabase(&engine, input.sdb1, nullptr).ok()) {
    state.SkipWithError("the database does not load");
    return;
  }
  const engine::EngineStats t0 = engine.stats();
  const auto start = std::chrono::steady_clock::now();
  const Result<engine::ExecResult> first = engine.Execute(*stmt);
  const std::chrono::duration<double, std::micro> first_us =
      std::chrono::steady_clock::now() - start;
  const engine::EngineStats t1 = engine.stats();
  if (!first.ok() || (t1 - t0).pairs_evaluated == 0) {
    state.SkipWithError("the first run joined no pair");
    return;
  }
  bool same = true;
  for (auto _ : state) {
    const Result<engine::ExecResult> again = engine.Execute(*stmt);
    same = same && again.ok() && again.value().count == first.value().count;
  }
  state.counters["first_us"] = first_us.count();
  if ((engine.stats() - t1).pairs_evaluated != 0) {
    state.SkipWithError("a timed run evaluated a pair");
  } else if (!same) {
    state.SkipWithError("a timed run's count differs from the first run's");
  }
}
BENCHMARK(BM_CountQueryReplay)->Arg(10)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
