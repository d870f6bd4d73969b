#include "fuzz/knn.h"

#include <algorithm>

#include "algo/distance.h"
#include "common/coverage.h"
#include "fuzz/aei.h"

namespace spatter::fuzz {

Result<std::vector<size_t>> KnnRows(engine::Engine* engine,
                                    const std::string& table,
                                    const geom::Coord& query, size_t k) {
  engine::Table* t = engine->FindTable(table);
  if (t == nullptr) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  if (t->geometry_column < 0) {
    return Status::InvalidArgument("table has no geometry column");
  }
  const geom::Point probe(query);
  struct Entry {
    double distance;
    size_t row;
  };
  std::vector<Entry> entries;
  for (size_t r = 0; r < t->rows.size(); ++r) {
    const engine::Value& v = t->rows[r][t->geometry_column];
    if (v.kind() != engine::Value::Kind::kGeometry || !v.geometry()) {
      continue;
    }
    const auto d = algo::MinDistance(probe, *v.geometry());
    if (!d) continue;  // NULL distances are excluded from the ranking.
    entries.push_back({*d, r});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.distance != b.distance) {
                       return a.distance < b.distance;
                     }
                     return a.row < b.row;
                   });
  std::vector<size_t> out;
  for (size_t i = 0; i < entries.size() && i < k; ++i) {
    out.push_back(entries[i].row);
  }
  SPATTER_COV("oracle", "knn_rank");
  return out;
}

OracleOutcome RunKnnCheck(engine::Engine* engine, const DatabaseSpec& sdb,
                          const std::string& table, const geom::Coord& query,
                          size_t k, const algo::AffineTransform& transform) {
  SPATTER_COV("oracle", "knn_check");
  OracleOutcome out;
  if (!SimilarityScale(transform)) {
    // Shearing does not preserve relative distances (paper §7).
    out.applicable = false;
    return out;
  }
  engine->fault_state().ClearHits();

  // Acceptance masks are intersected as in the AEI check so both rankings
  // see the same row population.
  AffinePair pair(engine, sdb, transform);
  const Result<RowMask> keep = pair.LoadBoth();
  if (!keep.ok() || !LoadDatabase(engine, sdb, nullptr, &keep.value()).ok()) {
    out.applicable = false;
    return out;
  }
  auto r1 = KnnRows(engine, table, query, k);
  if (!pair.LoadImage(nullptr, &keep.value()).ok()) {
    out.applicable = false;
    return out;
  }
  auto r2 = KnnRows(engine, table, transform.Apply(query), k);
  out.fault_hits = engine->fault_state().TakeHits();
  if (!r1.ok() || !r2.ok()) {
    out.applicable = false;
    return out;
  }
  if (r1.value() != r2.value()) {
    out.mismatch = true;
    std::string lhs;
    std::string rhs;
    for (size_t id : r1.value()) lhs += std::to_string(id) + " ";
    for (size_t id : r2.value()) rhs += std::to_string(id) + " ";
    out.detail = "knn {" + lhs + "} vs {" + rhs + "}";
  }
  return out;
}

}  // namespace spatter::fuzz
