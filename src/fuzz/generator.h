// The geometry-aware generator (paper §4.1, Algorithm 1): random-shape
// strategy plus derivative strategy. Derived geometries are produced by
// executing the SDBMS's own editing functions through the engine under
// test, so generation exercises (and can crash on) the same code the
// campaign later queries — matching how Spatter drives real systems.
#ifndef SPATTER_FUZZ_GENERATOR_H_
#define SPATTER_FUZZ_GENERATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz/testcase.h"

namespace spatter::fuzz {

struct GeneratorConfig {
  size_t num_geometries = 10;  ///< N of Algorithm 1
  size_t num_tables = 2;       ///< m of Algorithm 1
  /// false = random-shape only (the RSG ablation baseline of Figure 8).
  bool derivative_enabled = true;
  int coord_range = 10;        ///< coordinates drawn from [-range, range]
  /// Probability (percent) that a coordinate lands on the 1/10 grid
  /// instead of an integer. Integer-only generation would never exercise
  /// the precision-class bugs (paper Listing 1 has fractional inputs).
  int fractional_pct = 20;
  /// Probability (percent) that a coordinate is scaled into the hundreds
  /// (the paper's listings use coordinates like 990 or 850; several real
  /// bugs only trigger beyond internal grid thresholds).
  int large_pct = 12;
  int empty_pct = 8;           ///< EMPTY geometries / elements
  int nested_pct = 10;         ///< nested collection elements inside GCs
};

/// A crash observed while deriving a geometry (crash bugs in editing
/// functions surface during generation, before any query runs).
struct GenerationCrash {
  std::string function;  ///< engine function that crashed
  std::string message;
  std::set<faults::FaultId> fault_hits;
};

class GeometryAwareGenerator {
 public:
  /// `derive_engine` executes derivative-strategy edit functions; it is
  /// the system under test. The generator only reads rng and config.
  GeometryAwareGenerator(const GeneratorConfig& config, Rng* rng,
                         engine::Engine* derive_engine);

  /// Algorithm 1: generates a database spec with `num_tables` tables and
  /// `num_geometries` rows. Crashes hit during derivation are appended to
  /// `crashes` (may be null) and the affected row falls back to EMPTY.
  DatabaseSpec Generate(std::vector<GenerationCrash>* crashes);

  /// Random-shape strategy: a syntactically valid random geometry.
  geom::GeomPtr RandomShape();

  /// Derivative strategy: derives a geometry from rows already in `sdb`
  /// by executing a random editing function; EMPTY on failure.
  geom::GeomPtr Derive(const DatabaseSpec& sdb,
                       std::vector<GenerationCrash>* crashes);

  /// Instantiates the query template over the generated tables with a
  /// random topological-relationship predicate of the engine's dialect.
  QuerySpec RandomQuery(const DatabaseSpec& sdb);

 private:
  double RandomCoordValue();
  geom::Coord RandomCoord();
  std::vector<geom::Coord> RandomLine(size_t min_pts, size_t max_pts);
  geom::Polygon::Ring RandomRing();
  geom::GeomPtr RandomBasic(geom::GeomType type);
  geom::GeomPtr RandomOfType(geom::GeomType type, int depth);

  GeneratorConfig config_;
  Rng* rng_;
  engine::Engine* engine_;
  /// Recently generated coordinates, reused to create shared vertices.
  std::vector<geom::Coord> coord_pool_;
};

}  // namespace spatter::fuzz

#endif  // SPATTER_FUZZ_GENERATOR_H_
