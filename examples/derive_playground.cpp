// Derivative-strategy playground: shows how the geometry-aware generator
// turns a handful of random shapes into a web of related geometries by
// pushing them through the engine's editing functions (paper Table 1), and
// how much richer the resulting topological relationships are compared to
// purely random shapes.
//
// Build & run:  ./build/examples/derive_playground [seed]
#include <cstdio>
#include <cstdlib>
#include <set>

#include "fuzz/generator.h"
#include "geom/wkt_reader.h"
#include "relate/relate.h"

using namespace spatter;  // NOLINT

namespace {

// Counts distinct DE-9IM codes among all ordered pairs of a database.
size_t DistinctRelations(const fuzz::DatabaseSpec& sdb) {
  std::vector<geom::GeomPtr> geoms;
  for (const auto& t : sdb.tables) {
    for (const auto& wkt : t.rows) {
      auto g = geom::ReadWkt(wkt);
      if (g.ok()) geoms.push_back(g.Take());
    }
  }
  std::set<std::string> codes;
  for (const auto& a : geoms) {
    for (const auto& b : geoms) {
      auto im = relate::Relate(*a, *b);
      if (im.ok()) codes.insert(im.value().Code());
    }
  }
  return codes.size();
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  engine::Engine e(engine::Dialect::kPostgis, /*enable_faults=*/false);

  std::printf("== derivative strategy in action ==\n");
  Rng rng(seed);
  fuzz::GeneratorConfig config;
  config.num_geometries = 12;
  fuzz::GeometryAwareGenerator gen(config, &rng, &e);
  std::vector<fuzz::GenerationCrash> crashes;
  const fuzz::DatabaseSpec sdb = gen.Generate(&crashes);
  for (const auto& table : sdb.tables) {
    std::printf("%s:\n", table.name.c_str());
    for (const auto& wkt : table.rows) {
      std::printf("  %s\n", wkt.c_str());
    }
  }

  std::printf("\n== topological diversity: GAG vs random-shape only ==\n");
  for (bool derivative : {true, false}) {
    size_t total = 0;
    for (uint64_t s = 1; s <= 5; ++s) {
      Rng r2(seed * 100 + s);
      fuzz::GeneratorConfig c2;
      c2.num_geometries = 12;
      c2.derivative_enabled = derivative;
      fuzz::GeometryAwareGenerator g2(c2, &r2, &e);
      total += DistinctRelations(g2.Generate(nullptr));
    }
    std::printf("  %-28s %zu distinct DE-9IM codes over 5 databases\n",
                derivative ? "geometry-aware (GAG)" : "random-shape (RSG)",
                total);
  }
  return 0;
}
