// The pluggable oracle-suite API: which of the paper's Table 4 oracles
// (fuzz/oracles.h) — plus canonicalization-only and EET — a campaign runs,
// so the campaign loop, the reducer, replay, and the fleet tier treat
// "which oracle judged this query" as configuration instead of hard-wiring
// AEI. Covers the `--oracles=` spec and its budgets, the oracle factory,
// and OracleSuite, which runs the configured oracles on one query.
#ifndef SPATTER_FUZZ_ORACLE_SUITE_H_
#define SPATTER_FUZZ_ORACLE_SUITE_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fuzz/oracles.h"

namespace spatter::obs {
class Counter;
class LatencyHistogram;
}  // namespace spatter::obs

namespace spatter::fuzz {

/// Which oracles a campaign runs, in order. The default — AEI alone — is
/// the pre-suite campaign bit-for-bit: same RNG stream, same bug set.
struct OracleSuiteSpec {
  std::vector<OracleKind> oracles{OracleKind::kAei};
  /// Secondary dialect for the differential oracle. When it equals the
  /// campaign's primary dialect, EffectiveDiffSecondary falls back (mysql,
  /// or postgis when the primary IS mysql) so the comparison never
  /// degenerates to an engine against itself.
  engine::Dialect diff_secondary = engine::Dialect::kMysql;
  /// Per-oracle check budgets: an entry (kind, N) with N >= 2 runs that
  /// oracle only on queries whose global ordinal is a multiple of N (the
  /// "tlp/8" token form inside `--oracles=`). Absent entry = every query.
  /// Only N >= 2 is stored so Parse/Format round-trip canonically.
  std::map<OracleKind, uint64_t> budgets;
};

/// Secondary dialect the differential oracle actually compares `primary`
/// against under `spec` (resolves the primary==secondary degenerate case).
engine::Dialect EffectiveDiffSecondary(const OracleSuiteSpec& spec,
                                       engine::Dialect primary);

/// Parses a `--oracles=` list: comma-separated tokens among
/// aei, canon, diff, index, tlp, eet, plus "all" (= aei,diff,index,tlp,eet)
/// and "diff:<dialect>" to pick the differential secondary. Any
/// single-oracle token may carry a "/N" budget suffix ("tlp/8"): run that
/// oracle every Nth query (for eet: every Nth variant). Duplicates and
/// unknown tokens are errors.
Result<OracleSuiteSpec> ParseOracleSuite(const std::string& csv);

/// Inverse of ParseOracleSuite (round-trips through checkpoints).
std::string FormatOracleSuite(const OracleSuiteSpec& spec);

/// The CLI token for one kind ("aei", "canon", ...).
const char* OracleCliToken(OracleKind kind);

/// Builds one oracle for a campaign on `primary`. The differential oracle
/// gets EffectiveDiffSecondary(spec, primary) and `enable_faults` for its
/// secondary engine.
std::unique_ptr<Oracle> MakeOracle(OracleKind kind, engine::Dialect primary,
                                   bool enable_faults,
                                   const OracleSuiteSpec& spec);

/// Rebuilds the oracle that detected a recorded discrepancy/reproducer so
/// reduction and replay re-run the SAME check: kCanonicalOnly maps to the
/// standalone canonicalization oracle, kDifferential to a differential
/// oracle against the recorded secondary dialect.
std::unique_ptr<Oracle> MakeDetectingOracle(OracleKind kind,
                                            engine::Dialect primary,
                                            engine::Dialect diff_secondary,
                                            bool enable_faults);

/// One Check() invocation's result, tagged with the oracle that ran it.
struct OracleFinding {
  const Oracle* oracle = nullptr;
  OracleOutcome outcome;
};

/// A configured set of oracles bound to one campaign shard (primary
/// dialect + faultiness). Owns the oracle instances — and through the
/// differential oracle, its secondary engine.
class OracleSuite {
 public:
  OracleSuite(const OracleSuiteSpec& spec, engine::Dialect primary,
              bool enable_faults);

  const OracleSuiteSpec& spec() const { return spec_; }
  const std::vector<std::unique_ptr<Oracle>>& oracles() const {
    return oracles_;
  }

  /// Runs every configured oracle on (sdb1, query) in spec order and
  /// returns one finding per Check() invocation (including inapplicable
  /// outcomes, so callers can count checks the way the legacy loop did).
  /// Each check lands in its oracle's `oracle.<token>.check` histogram and
  /// one `.ok` / `.mismatch` / `.crash` / `.inapplicable` counter; a
  /// budget-skipped query in `.budget_skipped`.
  std::vector<OracleFinding> CheckAll(engine::Engine* engine,
                                      const DatabaseSpec& sdb1,
                                      const QuerySpec& query,
                                      const OracleCtx& ctx);

 private:
  /// One oracle's instruments, each fetched from the registry on its
  /// first use (so the registry holds just the names a run touched) and
  /// cached here, so a check takes no registry lock.
  struct Instruments {
    obs::LatencyHistogram* check = nullptr;
    /// ok, mismatch, crash, inapplicable.
    std::array<obs::Counter*, 4> verdicts{};
    obs::Counter* budget_skipped = nullptr;
  };

  OracleSuiteSpec spec_;
  std::vector<std::unique_ptr<Oracle>> oracles_;
  std::vector<Instruments> instruments_;  ///< parallel to oracles_
};

}  // namespace spatter::fuzz

#endif  // SPATTER_FUZZ_ORACLE_SUITE_H_
