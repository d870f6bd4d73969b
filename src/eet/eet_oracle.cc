#include "eet/eet_oracle.h"

#include <string>

#include "common/coverage.h"
#include "eet/transform.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace spatter::eet {

fuzz::OracleOutcome EetOracle::Compare(engine::Engine* engine,
                                       const fuzz::DatabaseSpec& sdb1,
                                       const fuzz::QuerySpec& query,
                                       const fuzz::OracleCtx& ctx) {
  SPATTER_COV("oracle", "eet_check");
  fuzz::OracleOutcome out;
  if (!fuzz::LoadDatabase(engine, sdb1, nullptr).ok()) {
    out.applicable = false;
    return out;
  }
  auto parsed = sql::ParseStatement(query.ToSql());
  if (!parsed.ok()) {
    out.applicable = false;
    return out;
  }
  const sql::Statement& stmt = *parsed.value();
  const fuzz::CountRun base = fuzz::ReadCount(engine->Execute(stmt));
  if (!fuzz::AllCounted({base}, &out)) return out;

  for (int j = 0; j < kNumEetTransforms; ++j) {
    const auto id = static_cast<TransformId>(j);
    if (!TransformAppliesTo(id, engine->dialect())) continue;
    // Budget sampling over the variant loop: a pure function of the global
    // query ordinal and the variant index, so every shard of any P x J
    // factorization makes the same decision, and unbudgeted replay or
    // reduction (budget 0) re-runs every variant.
    if (budget_ >= 2 &&
        (ctx.query_ordinal + static_cast<uint64_t>(j)) % budget_ != 0) {
      obs::MetricsRegistry::Instance()
          .GetCounter("oracle.eet.variant_budget_skipped")
          ->Add();
      continue;
    }
    // Data-aware ST_DWithin bound, for the one variant that reads it: any
    // value is sound (the guard only appears inside `C AND NOT C`); this
    // one makes the guard TRUE on every comparable pair, so both truth
    // values get exercised.
    const double distance_bound =
        id == TransformId::kDistanceContradiction
            ? fuzz::DistanceBound(engine, sdb1, query.table1, query.table2)
            : 0.0;
    sql::StatementPtr variant = ApplyTransform(id, stmt, distance_bound);
    if (!variant) continue;
    const fuzz::CountRun r = fuzz::ReadCount(engine->Execute(*variant));
    if (r.crash) {
      out.crash = true;
      out.detail = std::string(TransformName(id)) + ": " + r.error;
      return out;
    }
    // A rewrite can surface a capability the dialect lacks only at
    // evaluation time; skipping keeps the oracle free of false alarms.
    if (!r.ok) continue;
    if (r.count != base.count) {
      out.mismatch = true;
      out.detail = std::string(TransformName(id)) + ": base {" +
                   std::to_string(base.count) + "} vs variant {" +
                   std::to_string(r.count) + "}";
      SPATTER_COV("oracle", "eet_mismatch");
      break;
    }
  }
  return out;
}

}  // namespace spatter::eet
