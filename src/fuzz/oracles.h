// Test oracles: AEI (the paper's contribution), canonicalization-only, and
// the three baselines of Table 4 — differential testing across SDBMSs,
// index on/off differential testing, and Ternary Logic Partitioning (TLP).
// The EET oracle (eet/eet_oracle.h) implements the same interface.
//
// Every oracle shares one check path. Oracle::Check is a non-virtual
// bracket: it clears the fault hits of every engine the check drives,
// runs the oracle's own load-run-compare (the protected Compare), and
// takes the hits that fired into the outcome. Compare implementations
// build on the shared pieces below: LoadDatabase (with an optional
// keep-mask for filtered reloads, and per-engine snapshots that make a
// repeated load a restore and a repeated count query on it a replay),
// AffinePair, which loads an affine check's two
// databases, ReadCount, which normalizes one statement's result, and
// AllCounted, which turns failed runs into a crash or an inapplicable
// outcome.
//
// Contracts of a Check:
//   - It is a pure function of (engine state, sdb, query, ctx), which is
//     what makes reduction and replay trustworthy.
//   - It must not draw from the campaign RNG: input construction owns the
//     random stream, oracles only judge. This keeps multi-oracle campaigns
//     bug-set-invariant across any processes x jobs factorization of the
//     sharded runtime.
//   - It runs on the campaign's primary engine, so its cost lands in the
//     Figure-7 SDBMS split. The differential oracle's secondary engine is
//     owned by the oracle, and its time is NOT folded into the primary's
//     EngineStats: the split stays a property of the system under test.
#ifndef SPATTER_FUZZ_ORACLES_H_
#define SPATTER_FUZZ_ORACLES_H_

#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algo/affine.h"
#include "engine/engine.h"
#include "fuzz/testcase.h"

namespace spatter::fuzz {

// OracleKind / OracleKindName live in fuzz/testcase.h (the data model);
// suite configuration and the oracle factory live in fuzz/oracle_suite.h.

struct OracleOutcome {
  bool applicable = true;  ///< false: oracle cannot judge this input
  bool mismatch = false;   ///< logic-bug signal
  bool crash = false;      ///< crash-bug signal
  std::string detail;      ///< human-readable "{lhs} vs {rhs}"
  /// Ground truth: injected faults that fired while producing the results.
  std::set<faults::FaultId> fault_hits;
};

/// Per-table row bitmaps, aligned with DatabaseSpec::tables[t].rows.
using RowMask = std::vector<std::vector<bool>>;

/// Loads `sdb` into `engine` (after Reset). Rows rejected by the dialect's
/// validity policy are skipped; `accepted` (if non-null) receives a
/// per-table bitmap of surviving rows. With a `keep` mask, only the rows
/// it marks are inserted (the others count as not accepted): the filtered
/// reload has exactly the effects of loading the filtered database.
///
/// A load leaves what running DatabaseSpec::ToSql's statements would. Only
/// the DDL runs as statements, the DdlStatements trees ToSql prints: each
/// row goes in as a value (Engine::InsertValue), the geometry its WKT
/// parses to, parsed once per (engine, database), or the WKT string when
/// it does not parse. The whole load is one Engine::TypedLoad. Table names
/// must be plain identifiers (IsPlainIdentifier), as the generator's are
/// and TestCaseCodec::Decode requires: another name is read back otherwise
/// by the printed DDL's lexer.
///
/// Each engine keeps a state for the database it loaded last, keyed by
/// its table names and WKT rows, compared in full, as its snapshot store.
/// It holds the parsed rows, the derived state of AffinePair and
/// DistanceBound, and a snapshot per (`with_index`, enabled fault mask). A
/// snapshot hit restores the tables (Engine::Restore) and replays the
/// coverage counts and fault ids each recorded statement and row produced,
/// only the kept rows' under a `keep` mask, so it leaves what the load
/// would, without running it. An unfiltered miss runs the load and records
/// a snapshot; a filtered miss only runs it. A failed load is never kept.
/// Only this state records a load: an affine image is loaded, never
/// snapshotted (AffinePair::LoadImage).
///
/// A snapshot also keeps one engine::ResultStore per effective row set
/// (the rows a restore installs: accepted and kept), and a hit lends the
/// engine the store of the rows it installs: a count query run on the
/// restored database is recorded there, result and effects, and a repeat
/// replays the record instead of running the join (Engine::Execute). The
/// stores die with the state, when another SDB1 replaces it.
Status LoadDatabase(engine::Engine* engine, const DatabaseSpec& sdb,
                    RowMask* accepted, const RowMask* keep = nullptr);

/// The two databases of an affine check (paper Figure 5) on one engine:
/// SDB1, and SDB2, the image of canonicalized SDB1 under `transform`. AEI,
/// canonicalization-only and KNN all load them through this.
///
/// SDB2 is the database TransformDatabase(sdb1, transform, true) prints,
/// built without text. Everything that depends only on SDB1 lives in the
/// engine's state for SDB1 (see LoadDatabase), surviving Engine::Reset: each
/// row parsed, and its canonical form, built by the first affine check with
/// what the whole pass did (the aei/canonicalize_pass and canon/* hits)
/// recorded as one faults::Effects, and that record replayed once by every
/// later check. SDB2 keeps one Engine::InsertValue value per row: the
/// transformed clone of the canonical form; or its printed WKT, where the
/// WKT round trip would change it (geom::NormalizeForWkt refuses it); or
/// SDB1's raw row, where that does not parse. Either way a load of SDB2
/// leaves what LoadDatabase of the printed SDB2 would: the same tables,
/// acceptance masks, coverage counts and fault ids.
class AffinePair {
 public:
  AffinePair(engine::Engine* engine, const DatabaseSpec& sdb1,
             const algo::AffineTransform& transform);
  AffinePair(const AffinePair&) = delete;
  AffinePair& operator=(const AffinePair&) = delete;

  /// Loads SDB1, then SDB2, unfiltered, and returns the rows both accept:
  /// the keep-mask for the filtered reloads, so the two sides of a
  /// comparison see the same row population. Fails with the first load's
  /// error.
  Result<RowMask> LoadBoth();

  /// Loads SDB2 as LoadDatabase(engine, <printed SDB2>, accepted, keep)
  /// does on an engine that never saw it: every call runs the load (one
  /// Engine::TypedLoad), filtered or not, and records nothing. AEI draws
  /// its matrix per query (paper Figure 5), so an image never recurs
  /// beyond its own check: SDB2 never enters the engine's state, and no
  /// result store is lent for its query.
  Status LoadImage(RowMask* accepted, const RowMask* keep = nullptr);

 private:
  engine::Engine* engine_;
  const DatabaseSpec& sdb1_;
  /// SDB2's rows as Engine::InsertValue takes them, aligned with sdb1_'s.
  std::vector<std::vector<engine::Value>> image_;
};

/// EET's distance bound for the ordered table pair (table1, table2) of
/// `sdb1`: eet::DistanceBoundFor over the rows of the last table of each
/// name, unparsable rows skipped and a missing table read as no rows.
/// Computed on first use from the engine's state for SDB1 (see
/// LoadDatabase) and kept there per pair.
double DistanceBound(engine::Engine* engine, const DatabaseSpec& sdb1,
                     const std::string& table1, const std::string& table2);

/// One statement's result, normalized: a count, a crash, or another error.
struct CountRun {
  bool ok = false;
  bool crash = false;
  int64_t count = 0;
  std::string error;  ///< the failed status, rendered
};

CountRun ReadCount(const Result<engine::ExecResult>& result);

/// Settles the runs a comparison needs. Returns true when every run
/// counted. Otherwise marks `out` a crash carrying the first crash's error
/// or, without a crash, inapplicable (unsupported predicate etc.).
bool AllCounted(std::initializer_list<CountRun> runs, OracleOutcome* out);

/// Per-query context the campaign hands every oracle. Only the AEI family
/// and EET's budget read it (the transform is drawn by input construction
/// so the random stream is oracle-independent).
struct OracleCtx {
  algo::AffineTransform transform = algo::AffineTransform::Identity();
  /// The campaign's canonicalization-only coin for this query (paper §4.3:
  /// canonicalization is AEI with the identity matrix). When set,
  /// `transform` is the identity and AEI findings are attributed to
  /// OracleKind::kCanonicalOnly.
  bool canonical_only = false;
  /// Global ordinal of this query: iteration * queries_per_iteration + q.
  /// Oracle budgets sample off it — a pure function of the iteration
  /// index, never the campaign RNG, so a budgeted suite keeps the
  /// jobs/fleet factorization invariance.
  uint64_t query_ordinal = 0;
};

class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Stable CLI token ("aei", "canon", "diff", "index", "tlp", "eet").
  virtual const char* Name() const = 0;
  virtual OracleKind Kind() const = 0;

  /// Whether the oracle applies its own /N budget inside Check() (the EET
  /// oracle samples its per-query variant loop). When true, the suite's
  /// generic every-Nth-query skip does not apply — the budget reaches the
  /// oracle through MakeOracle instead.
  virtual bool SamplesOwnBudget() const { return false; }

  /// Oracle kind a discrepancy from this check is attributed to. The AEI
  /// oracle splits itself into kAei / kCanonicalOnly on ctx.
  virtual OracleKind AttributedKind(const OracleCtx& ctx) const;

  /// Second system under test, when the oracle compares two (differential
  /// only); lets reproducers and the reducer rebuild the exact check.
  std::optional<engine::Dialect> SecondaryDialect() const;

  /// Judges one (database, query) pair on `engine`: the fault-hit bracket
  /// around Compare described at the top of this file.
  OracleOutcome Check(engine::Engine* engine, const DatabaseSpec& sdb1,
                      const QuerySpec& query, const OracleCtx& ctx);

 protected:
  Oracle() = default;
  /// For an oracle that drives a second engine besides the campaign's.
  explicit Oracle(std::unique_ptr<engine::Engine> secondary);

  /// The oracle's own load-run-compare. Must not mutate any state other
  /// than the engines it loads, and must not consume campaign randomness.
  virtual OracleOutcome Compare(engine::Engine* engine,
                                const DatabaseSpec& sdb1,
                                const QuerySpec& query,
                                const OracleCtx& ctx) = 0;

  std::unique_ptr<engine::Engine> secondary_;
};

/// AEI (paper Figure 5): SDB2 = transform(canonicalize(SDB1)), counts must
/// match. Attributes to kCanonicalOnly when ctx says the transform is the
/// campaign's identity-matrix special case.
///
/// Rows must survive validity checking in both databases to participate:
/// the acceptance masks are intersected so the oracle isolates predicate
/// behaviour (validity itself is affine invariant, but canonicalization can
/// legitimately repair representation-level defects such as repeated
/// points, which would otherwise produce row-count false alarms).
class AeiOracle : public Oracle {
 public:
  const char* Name() const override { return "aei"; }
  OracleKind Kind() const override { return OracleKind::kAei; }
  OracleKind AttributedKind(const OracleCtx& ctx) const override;

 protected:
  OracleOutcome Compare(engine::Engine* engine, const DatabaseSpec& sdb1,
                        const QuerySpec& query, const OracleCtx& ctx) override;
};

/// Canonicalization as a standalone oracle: AEI pinned to the identity
/// matrix on every query (no coin). Useful for isolating representation
/// bugs from transform bugs.
class CanonicalOnlyOracle : public Oracle {
 public:
  const char* Name() const override { return "canon"; }
  OracleKind Kind() const override { return OracleKind::kCanonicalOnly; }

 protected:
  OracleOutcome Compare(engine::Engine* engine, const DatabaseSpec& sdb1,
                        const QuerySpec& query, const OracleCtx& ctx) override;
};

/// Cross-dialect differential testing. Owns its secondary engine (the
/// second SDBMS of the comparison), so a campaign shard can run it without
/// any engine plumbing. Inapplicable when the predicate is missing in
/// either dialect. No acceptance mirroring: the dialects' different
/// validity policies are part of what this baseline (mis)measures,
/// reproducing its false alarms.
class DifferentialOracle : public Oracle {
 public:
  DifferentialOracle(engine::Dialect secondary, bool enable_faults);
  const char* Name() const override { return "diff"; }
  OracleKind Kind() const override { return OracleKind::kDifferential; }

  engine::Engine& secondary_engine() { return *secondary_; }

 protected:
  OracleOutcome Compare(engine::Engine* engine, const DatabaseSpec& sdb1,
                        const QuerySpec& query, const OracleCtx& ctx) override;
};

/// Index on/off differential on one engine.
class IndexOracle : public Oracle {
 public:
  const char* Name() const override { return "index"; }
  OracleKind Kind() const override { return OracleKind::kIndex; }

 protected:
  OracleOutcome Compare(engine::Engine* engine, const DatabaseSpec& sdb1,
                        const QuerySpec& query, const OracleCtx& ctx) override;
};

/// Ternary Logic Partitioning: COUNT(ON P) + COUNT(ON NOT P) +
/// COUNT(ON P IS UNKNOWN) must equal the cross-join cardinality.
class TlpOracle : public Oracle {
 public:
  const char* Name() const override { return "tlp"; }
  OracleKind Kind() const override { return OracleKind::kTlp; }

 protected:
  OracleOutcome Compare(engine::Engine* engine, const DatabaseSpec& sdb1,
                        const QuerySpec& query, const OracleCtx& ctx) override;
};

}  // namespace spatter::fuzz

#endif  // SPATTER_FUZZ_ORACLES_H_
