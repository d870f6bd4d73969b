#include "eet/transform.h"

#include <optional>

#include "algo/distance.h"
#include "engine/functions.h"
#include "geom/wkt_reader.h"

namespace spatter::eet {

namespace {

using sql::Expr;
using sql::ExprPtr;

// First column reference qualified by `table` anywhere in the condition —
// the generated query shape is func(t1.g, t2.g) or t1.g ~= t2.g, but
// walking the tree keeps the rewrites correct for hand-written conditions
// too.
const Expr* FindColumnRef(const Expr& e, const std::string& table) {
  if (e.kind == Expr::Kind::kColumnRef && e.table == table) return &e;
  for (const auto& arg : e.args) {
    if (const Expr* hit = FindColumnRef(*arg, table)) return hit;
  }
  return nullptr;
}

ExprPtr ColumnFor(const sql::Statement& base, const std::string& table) {
  if (base.condition) {
    if (const Expr* ref = FindColumnRef(*base.condition, table)) {
      return ref->Clone();
    }
  }
  return Expr::Column(table, "g");
}

// G = IsEmpty(g) OR NOT IsEmpty(g): total on coerced geometries, so it is a
// true tautology (never UNKNOWN) wherever the wrapped predicate evaluated.
ExprPtr EmptyTautology(const Expr& column) {
  ExprPtr lhs = Expr::Func("ST_IsEmpty", {});
  lhs->args.push_back(column.Clone());
  ExprPtr rhs = Expr::Func("ST_IsEmpty", {});
  rhs->args.push_back(column.Clone());
  return Expr::MakeOr(std::move(lhs), Expr::MakeNot(std::move(rhs)));
}

// C AND NOT C: always FALSE or UNKNOWN, so `P OR (C AND NOT C)` preserves
// the counted set for any guard C.
ExprPtr Contradiction(ExprPtr c) {
  ExprPtr negated = Expr::MakeNot(c->Clone());
  return Expr::MakeAnd(std::move(c), std::move(negated));
}

}  // namespace

const char* TransformName(TransformId id) {
  switch (id) {
    case TransformId::kDoubleNegation:
      return "double_negation";
    case TransformId::kEmptyTautology:
      return "empty_tautology";
    case TransformId::kSelfCompareGuard:
      return "self_compare_guard";
    case TransformId::kHullContradiction:
      return "hull_contradiction";
    case TransformId::kDistanceContradiction:
      return "distance_contradiction";
    case TransformId::kFilterPushdown:
      return "filter_pushdown";
    case TransformId::kNumTransforms:
      break;
  }
  return "unknown";
}

bool TransformAppliesTo(TransformId id, engine::Dialect dialect) {
  switch (id) {
    case TransformId::kSelfCompareGuard:
      return engine::GetDialectTraits(dialect).has_same_as_operator;
    case TransformId::kDistanceContradiction:
      return engine::ResolveFunction("ST_DWithin", dialect).ok();
    default:
      return true;
  }
}

sql::StatementPtr ApplyTransform(TransformId id, const sql::Statement& base,
                                 double distance_bound) {
  if (base.kind != sql::Statement::Kind::kSelectCountJoin || !base.condition) {
    return nullptr;
  }
  auto out = std::make_unique<sql::Statement>();
  out->kind = base.kind;
  out->table = base.table;
  out->table2 = base.table2;
  out->condition = base.condition->Clone();

  switch (id) {
    case TransformId::kDoubleNegation:
      out->condition = Expr::MakeNot(Expr::MakeNot(std::move(out->condition)));
      break;
    case TransformId::kEmptyTautology: {
      ExprPtr g1 = ColumnFor(base, base.table);
      out->condition =
          Expr::MakeAnd(std::move(out->condition), EmptyTautology(*g1));
      break;
    }
    case TransformId::kSelfCompareGuard: {
      ExprPtr g1 = ColumnFor(base, base.table);
      ExprPtr g1_copy = g1->Clone();
      out->condition = Expr::MakeAnd(
          std::move(out->condition),
          Expr::MakeSameAs(std::move(g1_copy), std::move(g1)));
      break;
    }
    case TransformId::kHullContradiction: {
      ExprPtr g1 = ColumnFor(base, base.table);
      ExprPtr hull = Expr::Func("ST_ConvexHull", {});
      hull->args.push_back(g1->Clone());
      ExprPtr guard = Expr::Func("ST_Intersects", {});
      guard->args.push_back(std::move(g1));
      guard->args.push_back(std::move(hull));
      out->condition = Expr::MakeOr(std::move(out->condition),
                                    Contradiction(std::move(guard)));
      break;
    }
    case TransformId::kDistanceContradiction: {
      ExprPtr guard = Expr::Func("ST_DWithin", {});
      guard->args.push_back(ColumnFor(base, base.table));
      guard->args.push_back(ColumnFor(base, base.table2));
      guard->args.push_back(Expr::Number(distance_bound));
      out->condition = Expr::MakeOr(std::move(out->condition),
                                    Contradiction(std::move(guard)));
      break;
    }
    case TransformId::kFilterPushdown: {
      // The condition is untouched; the tautology rides as a derived-table
      // row filter, exercising the pre-join filtering path instead of the
      // pair-condition evaluator.
      ExprPtr g1 = ColumnFor(base, base.table);
      out->filter1 = EmptyTautology(*g1);
      break;
    }
    case TransformId::kNumTransforms:
      return nullptr;
  }
  return out;
}

double DistanceBoundFor(const std::vector<std::string>& rows1,
                        const std::vector<std::string>& rows2) {
  std::vector<geom::GeomPtr> parsed;
  auto parse = [&parsed](const std::vector<std::string>& rows) {
    std::vector<const geom::Geometry*> out;
    for (const auto& wkt : rows) {
      auto g = geom::ReadWkt(wkt);
      if (!g.ok()) continue;
      parsed.push_back(g.Take());
      out.push_back(parsed.back().get());
    }
    return out;
  };
  const std::vector<const geom::Geometry*> parsed1 = parse(rows1);
  return DistanceBoundForParsed(parsed1, parse(rows2));
}

double DistanceBoundForParsed(const std::vector<const geom::Geometry*>& rows1,
                              const std::vector<const geom::Geometry*>& rows2) {
  double max_min = 0.0;
  for (const geom::Geometry* g1 : rows1) {
    for (const geom::Geometry* g2 : rows2) {
      const std::optional<double> d = algo::MinDistance(*g1, *g2);
      if (d && *d > max_min) max_min = *d;
    }
  }
  return max_min + 1.0;
}

}  // namespace spatter::eet
