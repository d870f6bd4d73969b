#include "fuzz/generator.h"

#include <algorithm>

#include "common/coverage.h"
#include "common/strings.h"
#include "geom/wkt_reader.h"

namespace spatter::fuzz {

using geom::Coord;
using geom::GeomPtr;
using geom::GeomType;

GeometryAwareGenerator::GeometryAwareGenerator(const GeneratorConfig& config,
                                               Rng* rng,
                                               engine::Engine* derive_engine)
    : config_(config), rng_(rng), engine_(derive_engine) {}

double GeometryAwareGenerator::RandomCoordValue() {
  const int r = config_.coord_range;
  if (rng_->Percent(config_.large_pct)) {
    return static_cast<double>(100 * rng_->IntIn(-r, r));
  }
  if (rng_->Percent(config_.fractional_pct)) {
    // One decimal place: k/10 within the range.
    return static_cast<double>(rng_->IntIn(-10L * r, 10L * r)) / 10.0;
  }
  return static_cast<double>(rng_->IntIn(-r, r));
}

Coord GeometryAwareGenerator::RandomCoord() {
  // Reusing recent coordinates creates shared vertices across geometries:
  // junctions, touches, and boundary coincidences that independent random
  // draws would almost never produce.
  if (!coord_pool_.empty() && rng_->Percent(20)) {
    return coord_pool_[rng_->Below(coord_pool_.size())];
  }
  const Coord c{RandomCoordValue(), RandomCoordValue()};
  if (coord_pool_.size() < 64) {
    coord_pool_.push_back(c);
  } else {
    coord_pool_[rng_->Below(coord_pool_.size())] = c;
  }
  return c;
}

std::vector<Coord> GeometryAwareGenerator::RandomLine(size_t min_pts,
                                                      size_t max_pts) {
  const size_t n = min_pts + rng_->Below(max_pts - min_pts + 1);
  std::vector<Coord> pts;
  pts.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(RandomCoord());
    // Occasional consecutive duplicate: syntactically valid, semantically
    // redundant — the representation class value-level canonicalization
    // removes (and that several real bugs mishandled).
    if (rng_->Percent(8)) pts.push_back(pts.back());
  }
  return pts;
}

geom::Polygon::Ring GeometryAwareGenerator::RandomRing() {
  // 3..6 distinct-ish points, closed. Self-intersection is allowed: the
  // random-shape strategy produces syntactically valid but possibly
  // semantically invalid shapes on purpose (paper §4.1).
  const size_t n = 3 + rng_->Below(4);
  geom::Polygon::Ring ring;
  ring.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) ring.push_back(RandomCoord());
  ring.push_back(ring.front());
  return ring;
}

geom::GeomPtr GeometryAwareGenerator::RandomBasic(GeomType type) {
  if (rng_->Percent(config_.empty_pct)) {
    SPATTER_COV("generator", "empty_shape");
    return geom::MakeEmpty(type);
  }
  switch (type) {
    case GeomType::kPoint: {
      const Coord c = RandomCoord();
      return geom::MakePoint(c.x, c.y);
    }
    case GeomType::kLineString: {
      auto pts = RandomLine(2, 5);
      if (rng_->Percent(15) && pts.size() >= 3) {
        pts.push_back(pts.front());  // occasionally closed.
      }
      return geom::MakeLineString(std::move(pts));
    }
    case GeomType::kPolygon: {
      if (rng_->Percent(35)) {
        // Structured rectangle, optionally with a well-formed hole: valid
        // holes survive strict-dialect validity checks, so hole-sensitive
        // code paths actually run.
        const double x = RandomCoordValue();
        const double y = RandomCoordValue();
        const double w = static_cast<double>(rng_->IntIn(4, 12));
        const double h = static_cast<double>(rng_->IntIn(4, 12));
        std::vector<geom::Polygon::Ring> rings;
        rings.push_back(
            {{x, y}, {x + w, y}, {x + w, y + h}, {x, y + h}, {x, y}});
        if (rng_->Percent(40)) {
          rings.push_back({{x + 1, y + 1},
                           {x + w / 2, y + 1},
                           {x + w / 2, y + h / 2},
                           {x + 1, y + h / 2},
                           {x + 1, y + 1}});
        }
        return geom::MakePolygon(std::move(rings));
      }
      std::vector<geom::Polygon::Ring> rings;
      rings.push_back(RandomRing());
      if (rng_->Percent(20)) rings.push_back(RandomRing());  // maybe a hole.
      return geom::MakePolygon(std::move(rings));
    }
    default:
      return geom::MakeEmpty(type);
  }
}

geom::GeomPtr GeometryAwareGenerator::RandomOfType(GeomType type, int depth) {
  switch (type) {
    case GeomType::kPoint:
    case GeomType::kLineString:
    case GeomType::kPolygon:
      return RandomBasic(type);
    case GeomType::kMultiPoint:
    case GeomType::kMultiLineString:
    case GeomType::kMultiPolygon: {
      if (rng_->Percent(config_.empty_pct)) return geom::MakeEmpty(type);
      const GeomType elem_type = *geom::MultiElementType(type);
      const size_t n = 1 + rng_->Below(3);
      std::vector<GeomPtr> elems;
      for (size_t i = 0; i < n; ++i) elems.push_back(RandomBasic(elem_type));
      return geom::MakeCollection(type, std::move(elems));
    }
    case GeomType::kGeometryCollection: {
      if (rng_->Percent(config_.empty_pct)) return geom::MakeEmpty(type);
      const size_t n = 1 + rng_->Below(3);
      std::vector<GeomPtr> elems;
      static const GeomType kAll[] = {
          GeomType::kPoint,      GeomType::kLineString,
          GeomType::kPolygon,    GeomType::kMultiPoint,
          GeomType::kMultiLineString, GeomType::kMultiPolygon,
          GeomType::kGeometryCollection};
      for (size_t i = 0; i < n; ++i) {
        GeomType et = kAll[rng_->Below(3)];
        if (depth < 2 && rng_->Percent(config_.nested_pct)) {
          et = kAll[3 + rng_->Below(4)];  // nested MULTI or GC element.
        }
        elems.push_back(RandomOfType(et, depth + 1));
      }
      return geom::MakeCollection(type, std::move(elems));
    }
  }
  return geom::MakeEmpty(GeomType::kGeometryCollection);
}

geom::GeomPtr GeometryAwareGenerator::RandomShape() {
  SPATTER_COV("generator", "random_shape");
  static const GeomType kTypes[] = {
      GeomType::kPoint,           GeomType::kLineString,
      GeomType::kPolygon,         GeomType::kMultiPoint,
      GeomType::kMultiLineString, GeomType::kMultiPolygon,
      GeomType::kGeometryCollection};
  return RandomOfType(kTypes[rng_->Below(7)], 0);
}

geom::GeomPtr GeometryAwareGenerator::Derive(
    const DatabaseSpec& sdb, std::vector<GenerationCrash>* crashes) {
  SPATTER_COV("generator", "derive");
  // Collect existing rows across tables.
  std::vector<const std::string*> pool;
  for (const auto& table : sdb.tables) {
    for (const auto& wkt : table.rows) pool.push_back(&wkt);
  }
  if (pool.empty()) return RandomShape();

  // Editing functions available in the engine's dialect, with the scalar
  // parameters the fuzzer fills in.
  struct Candidate {
    const char* fn;
    int arity;
  };
  static const Candidate kCandidates[] = {
      {"ST_Boundary", 1},        {"ST_ConvexHull", 1},
      {"ST_Polygonize", 1},      {"ST_DumpRings", 1},
      {"ST_ForcePolygonCW", 1},  {"ST_GeometryN", 1},
      {"ST_CollectionExtract", 1}, {"ST_PointN", 1},
      {"ST_SetPoint", 1},        {"ST_Reverse", 1},
      {"ST_Envelope", 1},        {"ST_Collect", 2},
  };
  std::vector<Candidate> usable;
  for (const auto& c : kCandidates) {
    const auto fn = engine::FindFunction(c.fn);
    if (fn != nullptr &&
        (fn->dialects & engine::DialectBit(engine_->dialect())) != 0) {
      usable.push_back(c);
    }
  }
  if (usable.empty()) return RandomShape();
  const Candidate& pick = usable[rng_->Below(usable.size())];

  // Build the SELECT that derives the geometry (Algorithm 1, Derive).
  auto quote = [](const std::string& wkt) {
    std::string out = "'";
    for (char c : wkt) {
      out += c;
      if (c == '\'') out += '\'';
    }
    out += "'";
    return out;
  };
  std::vector<std::string> args;
  for (int i = 0; i < pick.arity; ++i) {
    args.push_back("ST_GeomFromText(" + quote(*pool[rng_->Below(pool.size())]) +
                   ")");
  }
  std::string call = std::string(pick.fn) + "(" + Join(args, ", ");
  const std::string fn_name = pick.fn;
  if (fn_name == "ST_GeometryN" || fn_name == "ST_PointN") {
    call += ", " + std::to_string(rng_->IntIn(0, 3));
  } else if (fn_name == "ST_CollectionExtract") {
    call += ", " + std::to_string(rng_->IntIn(1, 3));
  } else if (fn_name == "ST_SetPoint") {
    const Coord p = RandomCoord();
    call += ", " + std::to_string(rng_->IntIn(0, 4)) + ", 'POINT(" +
            FormatCoord(p.x) + " " + FormatCoord(p.y) + ")'";
  }
  call += ")";
  const std::string stmt = "SELECT ST_AsText(" + call + ");";

  engine_->fault_state().ClearHits();
  auto result = engine_->Execute(stmt);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kCrash && crashes != nullptr) {
      SPATTER_COV("generator", "derive_crash");
      crashes->push_back(GenerationCrash{fn_name, result.status().message(),
                                         engine_->fault_state().TakeHits()});
    }
    // Algorithm 1 lines 21-22: failed derivation yields an EMPTY shape.
    SPATTER_COV("generator", "derive_failed_empty");
    return geom::MakeEmpty(GeomType::kGeometryCollection);
  }
  const auto& rows = result.value().rows;
  if (rows.empty() || rows[0].empty() ||
      rows[0][0].kind() != engine::Value::Kind::kString) {
    return geom::MakeEmpty(GeomType::kGeometryCollection);
  }
  auto parsed = geom::ReadWkt(rows[0][0].string_value());
  if (!parsed.ok()) return geom::MakeEmpty(GeomType::kGeometryCollection);
  SPATTER_COV("generator", "derive_success");
  return parsed.Take();
}

DatabaseSpec GeometryAwareGenerator::Generate(
    std::vector<GenerationCrash>* crashes) {
  // Each database is a pure function of the RNG state at entry: the shared
  // coordinate pool must not leak vertices from earlier generations, or an
  // iteration's output would depend on which iterations a shard ran before
  // it (breaking the sharded runtime's shard-count invariance).
  coord_pool_.clear();
  DatabaseSpec sdb;
  for (size_t t = 0; t < config_.num_tables; ++t) {
    sdb.tables.push_back(TableSpec{"t" + std::to_string(t + 1), {}});
  }
  auto insert_random_table = [&](GeomPtr g) {
    sdb.tables[rng_->Below(sdb.tables.size())].rows.push_back(g->ToWkt());
  };
  // The first geometry always comes from the random-shape strategy: no
  // geometry can be derived from an empty database (Algorithm 1, line 3).
  insert_random_table(RandomShape());
  for (size_t i = 1; i < config_.num_geometries; ++i) {
    if (!config_.derivative_enabled || rng_->Bool()) {
      insert_random_table(RandomShape());
    } else {
      insert_random_table(Derive(sdb, crashes));
    }
  }
  return sdb;
}

QuerySpec GeometryAwareGenerator::RandomQuery(const DatabaseSpec& sdb) {
  QuerySpec q;
  // Two distinct random tables.
  const size_t i = rng_->Below(sdb.tables.size());
  size_t j = rng_->Below(sdb.tables.size());
  if (sdb.tables.size() > 1) {
    while (j == i) j = rng_->Below(sdb.tables.size());
  }
  q.table1 = sdb.tables[i].name;
  q.table2 = sdb.tables[j].name;

  auto predicates = engine::PredicatesFor(engine_->dialect());
  std::vector<std::string> names;
  for (const auto* p : predicates) names.push_back(p->name);
  if (engine_->traits().has_same_as_operator) names.push_back("~=");
  const std::string& pick = names[rng_->Below(names.size())];
  q.predicate = pick;
  if (pick != "~=") {
    const auto* fn = engine::FindFunction(pick);
    q.extra = fn->extra;
    if (q.extra == engine::PredicateExtra::kDistance) {
      q.distance = static_cast<double>(rng_->IntIn(0, 2 * config_.coord_range));
    } else if (q.extra == engine::PredicateExtra::kPattern) {
      static const char* kPatterns[] = {
          "T*F**F***", "FF*FF****", "T********", "T*T***T**", "0********",
      };
      if (rng_->Percent(60)) {
        q.pattern = kPatterns[rng_->Below(5)];
      } else {
        static const char kChars[] = {'T', 'F', '0', '1', '2', '*'};
        q.pattern.clear();
        for (int k = 0; k < 9; ++k) q.pattern += kChars[rng_->Below(6)];
      }
    }
  }
  return q;
}

}  // namespace spatter::fuzz
