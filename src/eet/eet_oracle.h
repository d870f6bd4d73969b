// EET oracle: runs each equivalence-preserving variant of a query through
// the same engine and reports any count divergence as a logic bug. Sits in
// src/eet/ with the transformation library; the object file is compiled
// into the fuzz tier (it consumes fuzz::Oracle and fuzz::LoadDatabase).
#ifndef SPATTER_EET_EET_ORACLE_H_
#define SPATTER_EET_EET_ORACLE_H_

#include <cstdint>

#include "fuzz/oracles.h"

namespace spatter::eet {

/// Equivalent-expression transformation oracle. Deterministic: variant
/// choice under a budget is a pure function of the query's global ordinal
/// and the variant index — never the campaign RNG — so budgeted campaigns
/// keep the processes x jobs factorization invariance, and reduction /
/// replay (which construct an OracleCtx with no budget) re-run every
/// variant and always reproduce the detecting one.
class EetOracle : public fuzz::Oracle {
 public:
  /// `budget` mirrors the suite's /N sampling, applied to the per-query
  /// variant loop: variant j runs iff (query_ordinal + j) % budget == 0.
  /// 0 or 1 means every variant on every query.
  explicit EetOracle(uint64_t budget = 0) : budget_(budget) {}

  const char* Name() const override { return "eet"; }
  fuzz::OracleKind Kind() const override { return fuzz::OracleKind::kEet; }
  /// The budget samples variants, not whole checks — the suite's generic
  /// every-Nth-query skip must not also apply.
  bool SamplesOwnBudget() const override { return true; }

 protected:
  fuzz::OracleOutcome Compare(engine::Engine* engine,
                              const fuzz::DatabaseSpec& sdb1,
                              const fuzz::QuerySpec& query,
                              const fuzz::OracleCtx& ctx) override;

 private:
  uint64_t budget_;
};

}  // namespace spatter::eet

#endif  // SPATTER_EET_EET_ORACLE_H_
