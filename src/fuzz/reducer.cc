#include "fuzz/reducer.h"

#include "geom/wkt_reader.h"
#include "obs/metrics.h"

namespace spatter::fuzz {

namespace {

// Removes one row; returns false when out of candidates.
bool TryRemoveRows(DatabaseSpec* sdb, const StillFailsFn& still_fails,
                   ReductionStats* stats) {
  for (size_t t = 0; t < sdb->tables.size(); ++t) {
    for (size_t r = 0; r < sdb->tables[t].rows.size(); ++r) {
      DatabaseSpec candidate = *sdb;
      candidate.tables[t].rows.erase(candidate.tables[t].rows.begin() +
                                     static_cast<long>(r));
      if (stats) stats->checks++;
      if (still_fails(candidate)) {
        *sdb = std::move(candidate);
        if (stats) stats->rows_removed++;
        return true;
      }
    }
  }
  return false;
}

// Structural simplification of a single geometry: drop one collection
// element or one vertex. Returns every one-step-simpler variant.
std::vector<geom::GeomPtr> SimplifyOneStep(const geom::Geometry& g) {
  std::vector<geom::GeomPtr> out;
  if (g.IsCollection()) {
    const auto& coll = geom::AsCollection(g);
    for (size_t skip = 0; skip < coll.NumElements(); ++skip) {
      std::vector<geom::GeomPtr> elems;
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        if (i != skip) elems.push_back(coll.ElementAt(i).Clone());
      }
      out.push_back(geom::MakeCollection(g.type(), std::move(elems)));
    }
    // Replace the collection by a single element (type promotion).
    for (size_t i = 0; i < coll.NumElements(); ++i) {
      out.push_back(coll.ElementAt(i).Clone());
    }
    return out;
  }
  if (g.type() == geom::GeomType::kLineString) {
    const auto& pts = geom::AsLineString(g).points();
    if (pts.size() > 2) {
      for (size_t skip = 0; skip < pts.size(); ++skip) {
        std::vector<geom::Coord> fewer;
        for (size_t i = 0; i < pts.size(); ++i) {
          if (i != skip) fewer.push_back(pts[i]);
        }
        out.push_back(geom::MakeLineString(std::move(fewer)));
      }
    }
    return out;
  }
  if (g.type() == geom::GeomType::kPolygon) {
    const auto& poly = geom::AsPolygon(g);
    // Drop holes first.
    if (poly.NumRings() > 1) {
      for (size_t skip = 1; skip < poly.NumRings(); ++skip) {
        std::vector<geom::Polygon::Ring> rings;
        for (size_t i = 0; i < poly.NumRings(); ++i) {
          if (i != skip) rings.push_back(poly.rings()[i]);
        }
        out.push_back(geom::MakePolygon(std::move(rings)));
      }
    }
    // Drop shell vertices (keeping closure).
    if (!poly.IsEmpty() && poly.Shell().size() > 4) {
      const auto& shell = poly.Shell();
      for (size_t skip = 1; skip + 1 < shell.size(); ++skip) {
        geom::Polygon::Ring fewer;
        for (size_t i = 0; i < shell.size(); ++i) {
          if (i != skip) fewer.push_back(shell[i]);
        }
        std::vector<geom::Polygon::Ring> rings{std::move(fewer)};
        for (size_t i = 1; i < poly.NumRings(); ++i) {
          rings.push_back(poly.rings()[i]);
        }
        out.push_back(geom::MakePolygon(std::move(rings)));
      }
    }
    return out;
  }
  return out;
}

bool TrySimplifyGeometries(DatabaseSpec* sdb, const StillFailsFn& still_fails,
                           ReductionStats* stats) {
  for (size_t t = 0; t < sdb->tables.size(); ++t) {
    for (size_t r = 0; r < sdb->tables[t].rows.size(); ++r) {
      auto parsed = geom::ReadWkt(sdb->tables[t].rows[r]);
      if (!parsed.ok()) continue;
      const geom::GeomPtr g = parsed.Take();
      for (auto& simpler : SimplifyOneStep(*g)) {
        DatabaseSpec candidate = *sdb;
        candidate.tables[t].rows[r] = simpler->ToWkt();
        if (stats) stats->checks++;
        if (still_fails(candidate)) {
          *sdb = std::move(candidate);
          if (stats) {
            if (simpler->IsCollection() || g->IsCollection()) {
              stats->elements_removed++;
            } else {
              stats->points_removed++;
            }
          }
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

DatabaseSpec ReduceDatabase(const DatabaseSpec& sdb,
                            const StillFailsFn& still_fails,
                            ReductionStats* stats) {
  DatabaseSpec current = sdb;
  bool progress = true;
  while (progress) {
    progress = TryRemoveRows(&current, still_fails, stats);
    if (!progress) {
      progress = TrySimplifyGeometries(&current, still_fails, stats);
    }
  }
  return current;
}

Discrepancy ReduceDiscrepancy(engine::Engine* engine, const Discrepancy& d,
                              ReductionStats* stats,
                              std::optional<faults::FaultId> preserve_fault) {
  static obs::LatencyHistogram* reduce_hist =
      obs::MetricsRegistry::Instance().GetHistogram("campaign.reduce");
  obs::ScopedTimer reduce_timer(reduce_hist);
  SPATTER_METRIC_INC("campaign.reductions");
  // Rebuild the DETECTING oracle (differential finds get their recorded
  // secondary dialect, matching the primary's faultiness): a candidate is
  // only "smaller" if it still fails the check that found the bug.
  const std::unique_ptr<Oracle> oracle = MakeDetectingOracle(
      d.oracle, engine->dialect(), d.diff_secondary,
      /*enable_faults=*/engine->fault_state().EnabledMask() != 0);
  OracleCtx ctx;
  ctx.transform = d.transform;
  ctx.canonical_only = d.oracle == OracleKind::kCanonicalOnly;
  const auto check = [&](const DatabaseSpec& candidate) {
    return oracle->Check(engine, candidate, d.query, ctx);
  };
  const StillFailsFn still_fails = [&](const DatabaseSpec& candidate) {
    const OracleOutcome o = check(candidate);
    if (preserve_fault && o.fault_hits.count(*preserve_fault) == 0) {
      return false;
    }
    return d.is_crash ? o.crash : o.mismatch;
  };
  Discrepancy reduced = d;
  if (still_fails(d.sdb1)) {
    reduced.sdb1 = ReduceDatabase(d.sdb1, still_fails, stats);
    // Refresh the observation and ground truth for the reduced case.
    const OracleOutcome final_check = check(reduced.sdb1);
    if (final_check.mismatch || final_check.crash) {
      reduced.detail = final_check.detail;
      reduced.fault_hits = final_check.fault_hits;
    }
  }
  return reduced;
}

}  // namespace spatter::fuzz
