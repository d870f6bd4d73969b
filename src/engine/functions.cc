#include "engine/functions.h"

#include <cmath>
#include <map>

#include "algo/affine.h"
#include "algo/boundary.h"
#include "algo/canonicalize.h"
#include "algo/convex_hull.h"
#include "algo/distance.h"
#include "algo/edit_functions.h"
#include "algo/polygonize.h"
#include "algo/ring_ops.h"
#include "algo/validity.h"
#include "common/coverage.h"
#include "common/strings.h"
#include "geom/predicates.h"
#include "geom/wkt_reader.h"
#include "relate/named_predicates.h"
#include "relate/point_locator.h"
#include "relate/relate.h"

namespace spatter::engine {

using faults::FaultId;
using geom::Geometry;
using geom::GeomPtr;
using geom::GeomType;
using GeometryRef = std::shared_ptr<const Geometry>;

namespace {

// ---------------------------------------------------------------------------
// Helpers.

double MaxAbsCoord(const Geometry& g) {
  const geom::Envelope e = g.GetEnvelope();
  if (e.IsNull()) return 0.0;
  return std::max({std::fabs(e.min_x()), std::fabs(e.max_x()),
                   std::fabs(e.min_y()), std::fabs(e.max_y())});
}

bool HasConsecutiveDuplicate(const Geometry& g) {
  bool dup = false;
  geom::ForEachBasic(g, [&dup](const Geometry& basic) {
    if (basic.type() != GeomType::kLineString) return;
    const auto& pts = geom::AsLineString(basic).points();
    for (size_t i = 0; i + 1 < pts.size(); ++i) {
      if (pts[i] == pts[i + 1]) dup = true;
    }
  });
  return dup;
}

// SQL Server nesting-crash guard, applied to every predicate evaluation.
// The depth walk runs only when the fault is enabled: Fire on a disabled
// id records nothing.
Status SqlserverNestingGuard(const FunctionContext& ctx, const Geometry& a,
                             const Geometry& b) {
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kSqlserverCrashNestedCollection) &&
      (relate::NestingDepth(a) >= 2 || relate::NestingDepth(b) >= 2) &&
      ctx.faults->Fire(FaultId::kSqlserverCrashNestedCollection)) {
    return Status::Crash(
        "simulated SQL Server crash: nested collection input");
  }
  return Status::OK();
}

Result<double> NumberArg(const Value& v, const char* what) {
  if (v.kind() == Value::Kind::kInt || v.kind() == Value::Kind::kDouble) {
    return v.AsDouble();
  }
  return Status::InvalidArgument(std::string("expected number for ") + what);
}

Result<std::string> StringArg(const Value& v, const char* what) {
  if (v.kind() == Value::Kind::kString) return v.string_value();
  return Status::InvalidArgument(std::string("expected string for ") + what);
}

// ---------------------------------------------------------------------------
// Injected-bug helper implementations.

// Paper Listing 1 (kPostgisCoversDisplacementPrecision): the buggy covers
// fast path normalizes each segment by displacing its base vertex to the
// origin and then applies an *exact* zero test to the displaced cross
// product. When a vertex already sits at the origin no displacement happens
// and the test is exact; otherwise the displaced coordinates carry the
// floating-point error of Equation (5) and near-collinear points fall off
// the line.
bool BuggyCoversPointOnLinework(const Geometry& line_geom,
                                const geom::Coord& p) {
  bool covered = false;
  geom::ForEachBasic(line_geom, [&](const Geometry& basic) {
    if (covered || basic.type() != GeomType::kLineString) return;
    const auto& pts = geom::AsLineString(basic).points();
    for (size_t i = 0; i + 1 < pts.size() && !covered; ++i) {
      const geom::Coord origin{0.0, 0.0};
      geom::Coord base = pts[i];
      geom::Coord other = pts[i + 1];
      if (other == origin) std::swap(base, other);
      // Displacement to the origin (no-op when base is already there).
      const double ux = other.x - base.x;
      const double uy = other.y - base.y;
      const double cx = p.x - base.x;
      const double cy = p.y - base.y;
      const double cross = ux * cy - uy * cx;  // exact test: the bug
      if (cross != 0.0) continue;
      const double dot = ux * cx + uy * cy;
      const double len2 = ux * ux + uy * uy;
      if (dot >= 0.0 && dot <= len2) covered = true;
    }
  });
  return covered;
}

// Paper Listing 5 (kPostgisDistanceEmptyRecursion): the buggy recursion
// aborts all remaining element pairs as soon as an EMPTY element is
// encountered, so only the prefix before the first EMPTY participates.
std::optional<double> BuggyDistanceEmptyRecursion(const Geometry& a,
                                                  const Geometry& b) {
  std::vector<const Geometry*> parts_a = geom::FlattenBasic(a);
  std::vector<const Geometry*> parts_b = geom::FlattenBasic(b);
  std::optional<double> best;
  for (const Geometry* ga : parts_a) {
    if (ga->IsEmpty()) return best;  // abort: the bug
    for (const Geometry* gb : parts_b) {
      if (gb->IsEmpty()) return best;  // abort: the bug
      const auto d = algo::MinDistance(*ga, *gb);
      if (d && (!best || *d < *best)) best = *d;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Geometry coercion with per-dialect validity policy.

Status CrossElementValidity(const Geometry& g) {
  if (g.type() != GeomType::kGeometryCollection) return Status::OK();
  const auto& coll = geom::AsCollection(g);
  for (size_t i = 0; i < coll.NumElements(); ++i) {
    for (size_t j = i + 1; j < coll.NumElements(); ++j) {
      const Geometry& a = coll.ElementAt(i);
      const Geometry& b = coll.ElementAt(j);
      if (a.Dimension() < 1 || b.Dimension() < 1) continue;
      // Reject collections whose higher-dimensional elements' interiors
      // intersect (the "self-intersection" error PostGIS and DuckDB raise
      // for the paper's Listing 4 input).
      auto im = relate::Relate(a, b);
      if (!im.ok()) continue;
      const int ii = im.value().At(relate::Location::kInterior,
                                   relate::Location::kInterior);
      if (ii >= 1) {
        return Status::InvalidGeometry(
            "collection elements intersect (self-intersection)");
      }
    }
  }
  return Status::OK();
}

// A geometry argument after coercion: borrowed from its Value, or parsed
// from WKT and owned here.
struct GeometryArg {
  GeometryRef parsed;
  const Geometry* geometry = nullptr;
};

Status CoerceArg(const FunctionContext& ctx, const Value& v,
                 GeometryArg* out) {
  if (v.kind() == Value::Kind::kGeometry) {
    out->geometry = v.geometry().get();
  } else if (v.kind() == Value::Kind::kString) {
    SPATTER_ASSIGN_OR_RETURN(GeomPtr parsed, geom::ReadWkt(v.string_value()));
    out->parsed = GeometryRef(parsed.release());
    out->geometry = out->parsed.get();
  } else if (v.is_null()) {
    return Status::InvalidArgument("geometry argument is NULL");
  } else {
    return Status::InvalidArgument("cannot coerce value to geometry");
  }
  if (GetDialectTraits(ctx.dialect).strict_validity) {
    if (!v.valid_checked()) {
      SPATTER_RETURN_NOT_OK(algo::CheckValid(*out->geometry));
    }
    SPATTER_RETURN_NOT_OK(CrossElementValidity(*out->geometry));
  }
  return Status::OK();
}

}  // namespace

Result<GeometryRef> ToGeometry(const FunctionContext& ctx, const Value& v) {
  GeometryArg arg;
  SPATTER_RETURN_NOT_OK(CoerceArg(ctx, v, &arg));
  return arg.parsed ? std::move(arg.parsed) : v.geometry();
}

Result<Value> CoerceGeometry(const FunctionContext& ctx, const Value& v) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, v));
  Value out = Value::Geometry(std::move(g));
  if (GetDialectTraits(ctx.dialect).strict_validity) {
    out.mark_valid_checked();
  }
  return out;
}

namespace {

// Shorthand for predicate implementations: coerce both geometry args and
// apply the SQL Server nesting guard. The geometries are borrowed from the
// argument values, so a predicate call copies no shared_ptr.
struct GeomPair {
  GeometryArg a;
  GeometryArg b;
};

Status PredicateArgs(const FunctionContext& ctx, const ArgList& args,
                     GeomPair* out) {
  SPATTER_RETURN_NOT_OK(CoerceArg(ctx, args[0], &out->a));
  SPATTER_RETURN_NOT_OK(CoerceArg(ctx, args[1], &out->b));
  return SqlserverNestingGuard(ctx, *out->a.geometry, *out->b.geometry);
}

#define SPATTER_PREDICATE_PROLOGUE()                        \
  GeomPair gp_;                                             \
  SPATTER_RETURN_NOT_OK(PredicateArgs(ctx, args, &gp_));    \
  const Geometry* const ga = gp_.a.geometry;                \
  const Geometry* const gb = gp_.b.geometry

Result<Value> FnIntersects(const FunctionContext& ctx,
                           const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::Intersects(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kDuckdbIntersectsEnvelopeOnly) &&
      (ga->type() == GeomType::kGeometryCollection ||
       gb->type() == GeomType::kGeometryCollection)) {
    const bool buggy = ga->GetEnvelope().Intersects(gb->GetEnvelope());
    if (buggy != correct) {
      ctx.faults->Fire(FaultId::kDuckdbIntersectsEnvelopeOnly);
      return Value::Bool(buggy);
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnDisjoint(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::Disjoint(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kSqlserverDisjointAsymmetric) &&
      ga->type() == GeomType::kPoint && !ga->IsEmpty() &&
      gb->Dimension() == 2) {
    // Injected bug: point-vs-areal takes a special path that classifies
    // boundary points as outside; the reversed argument order is correct.
    const auto loc = relate::LocatePoint(*geom::AsPoint(*ga).coord(), *gb,
                                         geom::kDerivedEps);
    if (loc == relate::Location::kBoundary && !correct) {
      ctx.faults->Fire(FaultId::kSqlserverDisjointAsymmetric);
      return Value::Bool(true);
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnContains(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool r, relate::Contains(*ga, *gb, ctx.faults));
  return Value::Bool(r);
}

Result<Value> FnWithin(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool r, relate::Within(*ga, *gb, ctx.faults));
  return Value::Bool(r);
}

Result<Value> FnCrosses(const FunctionContext& ctx,
                        const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::Crosses(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kMysqlCrossesGcLargeCoords) &&
      (ga->type() == GeomType::kGeometryCollection ||
       gb->type() == GeomType::kGeometryCollection) &&
      std::max(MaxAbsCoord(*ga), MaxAbsCoord(*gb)) >= 256.0) {
    // Injected bug (paper Listing 3): beyond the internal coordinate grid
    // the "intersection must differ from both inputs" exception is lost;
    // any interior intersection of differing dimensions reads as a cross.
    auto im = relate::Relate(*ga, *gb, ctx.faults);
    SPATTER_RETURN_NOT_OK(im.status());
    const bool buggy =
        im.value().At(relate::Location::kInterior,
                      relate::Location::kInterior) >= 0 &&
        ga->Dimension() != gb->Dimension();
    if (buggy != correct) {
      ctx.faults->Fire(FaultId::kMysqlCrossesGcLargeCoords);
      return Value::Bool(buggy);
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnOverlaps(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::Overlaps(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kMysqlOverlapsSwappedAxes) &&
      ga->Dimension() == gb->Dimension() && ga->Dimension() >= 0) {
    const geom::Envelope second = gb->GetEnvelope();
    if (second.Height() > second.Width()) {
      // Injected bug (paper Listing 4): the portrait-orientation code path
      // checks only one side's exterior intersection, so an intersection
      // equal to one input still reads as an overlap.
      auto im = relate::Relate(*ga, *gb, ctx.faults);
      SPATTER_RETURN_NOT_OK(im.status());
      const bool buggy = im.value().Matches("T*T******");
      if (buggy != correct) {
        ctx.faults->Fire(FaultId::kMysqlOverlapsSwappedAxes);
        return Value::Bool(buggy);
      }
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnTouches(const FunctionContext& ctx,
                        const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::Touches(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kMysqlTouchesEmptyCollection) &&
      (relate::HasEmptyElement(*ga) || relate::HasEmptyElement(*gb)) &&
      !correct) {
    // Injected bug: a collection holding an EMPTY element takes the empty
    // processor path, which misreports a touch.
    ctx.faults->Fire(FaultId::kMysqlTouchesEmptyCollection);
    return Value::Bool(true);
  }
  return Value::Bool(correct);
}

Result<Value> FnEquals(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::TopoEquals(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisEqualsCollapsedLine) &&
      (HasConsecutiveDuplicate(*ga) || HasConsecutiveDuplicate(*gb))) {
    // Injected bug: lines with consecutive duplicate points short-circuit
    // into a structural comparison.
    const bool buggy = ga->EqualsExact(*gb);
    if (buggy != correct) {
      ctx.faults->Fire(FaultId::kPostgisEqualsCollapsedLine);
      return Value::Bool(buggy);
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnCovers(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::Covers(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisCoversDisplacementPrecision) &&
      ga->Dimension() == 1 && gb->type() == GeomType::kPoint &&
      !gb->IsEmpty()) {
    const bool buggy =
        BuggyCoversPointOnLinework(*ga, *geom::AsPoint(*gb).coord());
    if (buggy != correct) {
      ctx.faults->Fire(FaultId::kPostgisCoversDisplacementPrecision);
      return Value::Bool(buggy);
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnCoveredBy(const FunctionContext& ctx,
                          const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(bool correct,
                           relate::CoveredBy(*ga, *gb, ctx.faults));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisCoveredByNegativeQuadrant)) {
    const geom::Envelope ea = ga->GetEnvelope();
    const geom::Envelope eb = gb->GetEnvelope();
    if (!ea.IsNull() && !eb.IsNull() && ea.max_x() < 0 && ea.max_y() < 0 &&
        eb.max_x() < 0 && eb.max_y() < 0) {
      // Injected bug: the all-negative-quadrant path swaps the argument
      // order (evaluates covers instead of coveredBy).
      SPATTER_ASSIGN_OR_RETURN(bool buggy,
                               relate::Covers(*ga, *gb, ctx.faults));
      if (buggy != correct) {
        ctx.faults->Fire(FaultId::kPostgisCoveredByNegativeQuadrant);
        return Value::Bool(buggy);
      }
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnDWithin(const FunctionContext& ctx,
                        const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(double d, NumberArg(args[2], "distance"));
  const auto dist = algo::MinDistance(*ga, *gb);
  if (!dist) return Value::Null();
  const bool correct = *dist <= d;
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisDistanceEmptyRecursion)) {
    // The same broken distance recursion sits underneath ST_DWithin.
    bool has_empty_element = false;
    for (const Geometry* g : {ga, gb}) {
      if (!g->IsCollection()) continue;
      const auto& coll = geom::AsCollection(*g);
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        if (coll.ElementAt(i).IsEmpty()) has_empty_element = true;
      }
    }
    if (has_empty_element) {
      const auto buggy_dist = BuggyDistanceEmptyRecursion(*ga, *gb);
      const bool buggy = buggy_dist && *buggy_dist <= d;
      if (buggy != correct) {
        ctx.faults->Fire(FaultId::kPostgisDistanceEmptyRecursion);
        return Value::Bool(buggy);
      }
    }
  }
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisDWithinNegativeCoords)) {
    // Injected bug: coordinates pass through fabs() before the distance
    // computation (mirrors everything into the first quadrant).
    auto mirror = [](const geom::Coord& c) {
      return geom::Coord{std::fabs(c.x), std::fabs(c.y)};
    };
    GeomPtr ma = ga->Clone();
    GeomPtr mb = gb->Clone();
    ma->MutateCoords(mirror);
    mb->MutateCoords(mirror);
    const auto buggy_dist = algo::MinDistance(*ma, *mb);
    const bool buggy = buggy_dist && *buggy_dist <= d;
    if (buggy != correct) {
      ctx.faults->Fire(FaultId::kPostgisDWithinNegativeCoords);
      return Value::Bool(buggy);
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnDFullyWithin(const FunctionContext& ctx,
                             const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(double d, NumberArg(args[2], "distance"));
  const auto maxdist = algo::MaxDistance(*ga, *gb);
  if (!maxdist) return Value::Null();
  const bool correct = *maxdist <= d;
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisDFullyWithinDefinition)) {
    // Injected bug (paper Listing 9): the shipped definition additionally
    // requires topological containment — "not what people think they are
    // getting when they call it" — but only on the code path taken for
    // clockwise target shells (the representation canonicalization
    // produces, which is how AEI exposes the wrong definition).
    bool cw_shell = false;
    geom::ForEachBasic(*gb, [&cw_shell](const Geometry& basic) {
      if (basic.type() == GeomType::kPolygon && !basic.IsEmpty() &&
          algo::SignedRingArea(geom::AsPolygon(basic).Shell()) < 0.0) {
        cw_shell = true;
      }
    });
    if (cw_shell) {
      SPATTER_ASSIGN_OR_RETURN(bool within,
                               relate::Within(*ga, *gb, ctx.faults));
      const bool buggy = within && correct;
      if (buggy != correct) {
        ctx.faults->Fire(FaultId::kPostgisDFullyWithinDefinition);
        return Value::Bool(buggy);
      }
    }
  }
  return Value::Bool(correct);
}

Result<Value> FnRelatePattern(const FunctionContext& ctx,
                              const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  SPATTER_ASSIGN_OR_RETURN(std::string pattern,
                           StringArg(args[2], "DE-9IM pattern"));
  auto im = relate::Relate(*ga, *gb, ctx.faults);
  SPATTER_RETURN_NOT_OK(im.status());
  relate::IntersectionMatrix matrix = im.value();
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisRelateBoundaryNodeRule)) {
    // Injected bug (unconfirmed report): at junctions where three or more
    // line endpoints meet, the boundary/boundary cell flips.
    std::map<std::pair<double, double>, int> endpoint_count;
    for (const Geometry* g : {ga, gb}) {
      geom::ForEachBasic(*g, [&](const Geometry& basic) {
        if (basic.type() != GeomType::kLineString || basic.IsEmpty()) return;
        const auto& line = geom::AsLineString(basic);
        if (line.IsClosed()) return;
        endpoint_count[{line.points().front().x,
                        line.points().front().y}]++;
        endpoint_count[{line.points().back().x, line.points().back().y}]++;
      });
    }
    bool junction = false;
    for (const auto& [_, n] : endpoint_count) {
      if (n >= 3) junction = true;
    }
    if (junction) {
      relate::IntersectionMatrix buggy = matrix;
      const int bb = buggy.At(relate::Location::kBoundary,
                              relate::Location::kBoundary);
      buggy.Set(relate::Location::kBoundary, relate::Location::kBoundary,
                bb >= 0 ? relate::IntersectionMatrix::kFalse : 0);
      if (buggy.Matches(pattern) != matrix.Matches(pattern)) {
        ctx.faults->Fire(FaultId::kPostgisRelateBoundaryNodeRule);
        return Value::Bool(buggy.Matches(pattern));
      }
    }
  }
  return Value::Bool(matrix.Matches(pattern));
}

// ---------------------------------------------------------------------------
// Scalar and constructive functions.

Result<Value> FnDistance(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_PREDICATE_PROLOGUE();
  const auto correct = algo::MinDistance(*ga, *gb);
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisDistanceEmptyRecursion)) {
    bool has_empty_element = false;
    for (const Geometry* g : {ga, gb}) {
      if (!g->IsCollection()) continue;
      const auto& coll = geom::AsCollection(*g);
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        if (coll.ElementAt(i).IsEmpty()) has_empty_element = true;
      }
    }
    if (has_empty_element) {
      const auto buggy = BuggyDistanceEmptyRecursion(*ga, *gb);
      if (buggy != correct) {
        ctx.faults->Fire(FaultId::kPostgisDistanceEmptyRecursion);
        if (!buggy) return Value::Null();
        return Value::Double(*buggy);
      }
    }
  }
  if (!correct) return Value::Null();
  return Value::Double(*correct);
}

Result<Value> FnGeomFromText(const FunctionContext& ctx,
                             const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return Value::Geometry(std::move(g));
}

Result<Value> FnAsText(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return Value::String(g->ToWkt());
}

Result<Value> FnArea(const FunctionContext& ctx,
                     const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return Value::Double(algo::GeometryArea(*g));
}

Result<Value> FnLength(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return Value::Double(algo::GeometryLength(*g));
}

Result<Value> FnDimension(const FunctionContext& ctx,
                          const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return Value::Int(relate::EffectiveDimension(*g, ctx.faults));
}

Result<Value> FnNumGeometries(const FunctionContext& ctx,
                              const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  if (!g->IsCollection()) return Value::Int(g->IsEmpty() ? 0 : 1);
  return Value::Int(
      static_cast<int64_t>(geom::AsCollection(*g).NumElements()));
}

Result<Value> FnIsEmpty(const FunctionContext& ctx,
                        const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return Value::Bool(g->IsEmpty());
}

Result<Value> FnIsValid(const FunctionContext& ctx,
                        const ArgList& args) {
  // Validity inspection bypasses the strict coercion policy on purpose.
  FunctionContext lenient = ctx;
  lenient.dialect = Dialect::kMysql;
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(lenient, args[0]));
  return Value::Bool(algo::IsValid(*g));
}

Result<Value> GeometryValue(GeomPtr g) {
  return Value::Geometry(GeometryRef(g.release()));
}

Result<Value> FnBoundary(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  // Each fault's bit first (as SqlserverNestingGuard): its precondition's
  // walk is only needed when the fault can fire.
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kPostgisCrashBoundaryEmptyElement) &&
      g->IsCollection()) {
    bool has_empty_line = false;
    geom::ForEachBasic(*g, [&](const Geometry& basic) {
      if (basic.type() == GeomType::kLineString && basic.IsEmpty()) {
        has_empty_line = true;
      }
    });
    if (has_empty_line &&
        ctx.faults->Fire(FaultId::kPostgisCrashBoundaryEmptyElement)) {
      return Status::Crash(
          "simulated PostGIS crash: boundary of collection with EMPTY line");
    }
  }
  return GeometryValue(algo::Boundary(*g));
}

Result<Value> FnConvexHull(const FunctionContext& ctx,
                           const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kGeosCrashConvexHullCollinear)) {
    // Count collinear coordinates for the injected crash.
    std::vector<geom::Coord> pts;
    geom::ForEachBasic(*g, [&pts](const Geometry& basic) {
      if (basic.type() == GeomType::kPoint && !basic.IsEmpty()) {
        pts.push_back(*geom::AsPoint(basic).coord());
      } else if (basic.type() == GeomType::kLineString) {
        const auto& line = geom::AsLineString(basic).points();
        pts.insert(pts.end(), line.begin(), line.end());
      }
    });
    if (pts.size() >= 8) {
      bool collinear = true;
      for (size_t i = 2; i < pts.size(); ++i) {
        if (geom::Orientation(pts[0], pts[1], pts[i]) != 0) collinear = false;
      }
      if (collinear &&
          ctx.faults->Fire(FaultId::kGeosCrashConvexHullCollinear)) {
        return Status::Crash(
            "simulated GEOS crash: convex hull of many collinear points");
      }
    }
  }
  return GeometryValue(algo::ConvexHull(*g));
}

Result<Value> FnPolygonize(const FunctionContext& ctx,
                           const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  if (ctx.faults && g->IsEmpty() &&
      ctx.faults->Fire(FaultId::kDuckdbCrashPolygonizeEmpty)) {
    return Status::Crash(
        "simulated DuckDB crash: polygonize of empty geometry");
  }
  GeomPtr result = algo::Polygonize(*g);
  if (ctx.faults &&
      ctx.faults->IsEnabled(FaultId::kGeosCrashPolygonizeDangling) &&
      !result->IsEmpty()) {
    // Dangling-edge detection for the injected crash: an endpoint used by
    // exactly one segment.
    std::map<std::pair<double, double>, int> degree;
    geom::ForEachBasic(*g, [&](const Geometry& basic) {
      if (basic.type() != GeomType::kLineString) return;
      const auto& pts = geom::AsLineString(basic).points();
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        degree[{pts[i].x, pts[i].y}]++;
        degree[{pts[i + 1].x, pts[i + 1].y}]++;
      }
    });
    for (const auto& [_, n] : degree) {
      if (n == 1 &&
          ctx.faults->Fire(FaultId::kGeosCrashPolygonizeDangling)) {
        return Status::Crash(
            "simulated GEOS crash: polygonize with dangling edges");
      }
    }
  }
  return GeometryValue(std::move(result));
}

Result<Value> FnDumpRings(const FunctionContext& ctx,
                          const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  if (ctx.faults && g->type() == GeomType::kPolygon && g->IsEmpty() &&
      ctx.faults->Fire(FaultId::kPostgisCrashDumpRingsEmpty)) {
    return Status::Crash(
        "simulated PostGIS crash: DumpRings of POLYGON EMPTY");
  }
  auto r = algo::DumpRings(*g);
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnForcePolygonCW(const FunctionContext& ctx,
                               const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  if (ctx.faults && g->type() == GeomType::kGeometryCollection &&
      ctx.faults->Fire(FaultId::kDuckdbCrashForceCwCollection)) {
    return Status::Crash(
        "simulated DuckDB crash: ForcePolygonCW on GEOMETRYCOLLECTION");
  }
  auto r = algo::ForcePolygonCW(*g);
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnGeometryN(const FunctionContext& ctx,
                          const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  SPATTER_ASSIGN_OR_RETURN(double n_raw, NumberArg(args[1], "index"));
  const auto n = static_cast<int64_t>(n_raw);
  if (ctx.faults && n == 0 &&
      ctx.faults->Fire(FaultId::kDuckdbCrashGeometryNZero)) {
    return Status::Crash("simulated DuckDB crash: GeometryN(0)");
  }
  if (n < 1) return Status::OutOfRange("GeometryN index must be >= 1");
  auto r = algo::GeometryN(*g, static_cast<size_t>(n));
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnCollectionExtract(const FunctionContext& ctx,
                                  const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  SPATTER_ASSIGN_OR_RETURN(double type_raw, NumberArg(args[1], "type"));
  if (ctx.faults && g->IsCollection() && g->IsEmpty() &&
      ctx.faults->Fire(FaultId::kDuckdbCrashCollectionExtractEmpty)) {
    return Status::Crash(
        "simulated DuckDB crash: CollectionExtract of empty collection");
  }
  GeomType type;
  switch (static_cast<int>(type_raw)) {
    case 1:
      type = GeomType::kPoint;
      break;
    case 2:
      type = GeomType::kLineString;
      break;
    case 3:
      type = GeomType::kPolygon;
      break;
    default:
      return Status::InvalidArgument("CollectionExtract type must be 1..3");
  }
  auto r = algo::CollectionExtract(*g, type);
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnPointN(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  SPATTER_ASSIGN_OR_RETURN(double n, NumberArg(args[1], "index"));
  auto r = algo::PointN(*g, static_cast<size_t>(n));
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnSetPoint(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  SPATTER_ASSIGN_OR_RETURN(double idx, NumberArg(args[1], "index"));
  SPATTER_ASSIGN_OR_RETURN(GeometryRef p, ToGeometry(ctx, args[2]));
  if (p->type() != GeomType::kPoint || p->IsEmpty()) {
    return Status::InvalidArgument("ST_SetPoint expects a non-empty POINT");
  }
  auto r = algo::SetPoint(*g, static_cast<size_t>(idx),
                          *geom::AsPoint(*p).coord());
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnReverse(const FunctionContext& ctx,
                        const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  auto r = algo::Reverse(*g);
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnEnvelope(const FunctionContext& ctx,
                         const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  if (ctx.faults && g->type() == GeomType::kPoint && g->IsEmpty() &&
      ctx.faults->Fire(FaultId::kDuckdbCrashEnvelopePointEmpty)) {
    return Status::Crash("simulated DuckDB crash: envelope of POINT EMPTY");
  }
  auto r = algo::EnvelopeOf(*g);
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnCollect(const FunctionContext& ctx,
                        const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef a, ToGeometry(ctx, args[0]));
  SPATTER_ASSIGN_OR_RETURN(GeometryRef b, ToGeometry(ctx, args[1]));
  auto r = algo::Collect(*a, *b);
  if (!r.ok()) return r.status();
  return GeometryValue(r.Take());
}

Result<Value> FnSwapXY(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  GeomPtr out = g->Clone();
  out->MutateCoords(
      [](const geom::Coord& c) { return geom::Coord{c.y, c.x}; });
  return GeometryValue(std::move(out));
}

Result<Value> FnAffine(const FunctionContext& ctx,
                       const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  double m[6];
  for (int i = 0; i < 6; ++i) {
    SPATTER_ASSIGN_OR_RETURN(m[i], NumberArg(args[i + 1], "matrix entry"));
  }
  // PostGIS 2D order: ST_Affine(geom, a, b, d, e, xoff, yoff).
  const algo::AffineTransform t(m[0], m[1], m[2], m[3], m[4], m[5]);
  return GeometryValue(t.Apply(*g));
}

Result<Value> FnCanonicalize(const FunctionContext& ctx,
                             const ArgList& args) {
  SPATTER_ASSIGN_OR_RETURN(GeometryRef g, ToGeometry(ctx, args[0]));
  return GeometryValue(algo::Canonicalize(*g));
}

#undef SPATTER_PREDICATE_PROLOGUE

}  // namespace

Result<Value> EvalSameAs(const FunctionContext& ctx, const Value& lhs,
                         const Value& rhs) {
  if (!GetDialectTraits(ctx.dialect).has_same_as_operator) {
    return Status::Unsupported("operator ~= is not available in " +
                               std::string(DialectName(ctx.dialect)));
  }
  SPATTER_ASSIGN_OR_RETURN(GeometryRef a, ToGeometry(ctx, lhs));
  SPATTER_ASSIGN_OR_RETURN(GeometryRef b, ToGeometry(ctx, rhs));
  // PostGIS semantics: ~= compares bounding boxes.
  return Value::Bool(a->GetEnvelope() == b->GetEnvelope());
}

const std::vector<FunctionDef>& AllFunctions() {
  static const std::vector<FunctionDef> kFunctions = {
      // Binary topological predicates.
      {"ST_Intersects", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnIntersects},
      {"ST_Disjoint", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnDisjoint},
      {"ST_Contains", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnContains},
      {"ST_Within", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnWithin},
      {"ST_Crosses", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnCrosses},
      {"ST_Overlaps", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnOverlaps},
      {"ST_Touches", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnTouches},
      {"ST_Equals", kAllDialects, 2, 2, true, PredicateExtra::kNone,
       &FnEquals},
      {"ST_Covers", kGeosDialects, 2, 2, true, PredicateExtra::kNone,
       &FnCovers},
      {"ST_CoveredBy", kGeosDialects, 2, 2, true, PredicateExtra::kNone,
       &FnCoveredBy},
      {"ST_DWithin", kGeosDialects, 3, 3, true, PredicateExtra::kDistance,
       &FnDWithin},
      {"ST_DFullyWithin", DialectBit(Dialect::kPostgis), 3, 3, true,
       PredicateExtra::kDistance, &FnDFullyWithin},
      {"ST_Relate", kGeosDialects, 3, 3, true, PredicateExtra::kPattern,
       &FnRelatePattern},
      // Scalar functions.
      {"ST_Distance", kAllDialects, 2, 2, false, PredicateExtra::kNone,
       &FnDistance},
      {"ST_GeomFromText", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnGeomFromText},
      {"ST_AsText", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnAsText},
      {"ST_Area", kAllDialects, 1, 1, false, PredicateExtra::kNone, &FnArea},
      {"ST_Length", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnLength},
      {"ST_Dimension", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnDimension},
      {"ST_NumGeometries", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnNumGeometries},
      {"ST_IsEmpty", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnIsEmpty},
      {"ST_IsValid", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnIsValid},
      // Constructive / editing functions (the derivative strategy's
      // Table 1 surface).
      {"ST_Boundary", kGeosDialects, 1, 1, false, PredicateExtra::kNone,
       &FnBoundary},
      {"ST_ConvexHull", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnConvexHull},
      {"ST_Polygonize", kGeosDialects, 1, 1, false, PredicateExtra::kNone,
       &FnPolygonize},
      {"ST_DumpRings", DialectBit(Dialect::kPostgis), 1, 1, false,
       PredicateExtra::kNone, &FnDumpRings},
      {"ST_ForcePolygonCW", kGeosDialects, 1, 1, false, PredicateExtra::kNone,
       &FnForcePolygonCW},
      {"ST_GeometryN", kAllDialects, 2, 2, false, PredicateExtra::kNone,
       &FnGeometryN},
      {"ST_CollectionExtract", kGeosDialects, 2, 2, false,
       PredicateExtra::kNone, &FnCollectionExtract},
      {"ST_PointN", kAllDialects, 2, 2, false, PredicateExtra::kNone,
       &FnPointN},
      {"ST_SetPoint", DialectBit(Dialect::kPostgis), 3, 3, false,
       PredicateExtra::kNone, &FnSetPoint},
      {"ST_Reverse", kGeosDialects, 1, 1, false, PredicateExtra::kNone,
       &FnReverse},
      {"ST_Envelope", kAllDialects, 1, 1, false, PredicateExtra::kNone,
       &FnEnvelope},
      {"ST_Collect", kGeosDialects, 2, 2, false, PredicateExtra::kNone,
       &FnCollect},
      {"ST_SwapXY",
       static_cast<uint8_t>(DialectBit(Dialect::kPostgis) |
                            DialectBit(Dialect::kMysql)),
       1, 1, false, PredicateExtra::kNone, &FnSwapXY},
      {"ST_Affine", DialectBit(Dialect::kPostgis), 7, 7, false,
       PredicateExtra::kNone, &FnAffine},
      // Extension: exposed for tests and the canonicalization oracle.
      {"ST_Normalize", kGeosDialects, 1, 1, false, PredicateExtra::kNone,
       &FnCanonicalize},
  };
  return kFunctions;
}

namespace {

// "STIntersects" (SQL Server method style) -> "st_intersects".
std::string NormalizeName(const std::string& name) {
  std::string lower;
  lower.reserve(name.size() + 1);
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower.size() > 2 && lower.rfind("st", 0) == 0 && lower[2] != '_') {
    lower.insert(2, "_");
  }
  return lower;
}

// The name index, plus one "engine_fn" coverage site per function in
// AllFunctions() order. Every site registers up front so the coverage
// denominator counts the whole surface, exercised or not.
struct FunctionIndex {
  std::map<std::string, const FunctionDef*> by_name;
  std::vector<size_t> coverage_sites;
};

const FunctionIndex& GetFunctionIndex() {
  static const FunctionIndex index = [] {
    FunctionIndex idx;
    for (const auto& fn : AllFunctions()) {
      idx.by_name[NormalizeName(fn.name)] = &fn;
      idx.coverage_sites.push_back(
          CoverageRegistry::Instance().Register("engine_fn", fn.name));
    }
    return idx;
  }();
  return index;
}

}  // namespace

const FunctionDef* FindFunction(const std::string& name) {
  const auto& by_name = GetFunctionIndex().by_name;
  const auto it = by_name.find(NormalizeName(name));
  return it == by_name.end() ? nullptr : it->second;
}

size_t FunctionCoverageSite(const FunctionDef& fn) {
  return GetFunctionIndex().coverage_sites[&fn - AllFunctions().data()];
}

Result<const FunctionDef*> ResolveFunction(const std::string& name,
                                           Dialect dialect) {
  const FunctionDef* fn = FindFunction(name);
  if (fn == nullptr) {
    return Status::NotFound("unknown function '" + name + "'");
  }
  if ((fn->dialects & DialectBit(dialect)) == 0) {
    return Status::Unsupported("function '" + std::string(fn->name) +
                               "' is not available in " +
                               DialectName(dialect));
  }
  return fn;
}

std::vector<const FunctionDef*> PredicatesFor(Dialect dialect) {
  std::vector<const FunctionDef*> out;
  for (const auto& fn : AllFunctions()) {
    if (fn.is_predicate && (fn.dialects & DialectBit(dialect)) != 0) {
      out.push_back(&fn);
    }
  }
  return out;
}

}  // namespace spatter::engine
