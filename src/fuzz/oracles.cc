#include "fuzz/oracles.h"

#include <functional>
#include <map>
#include <utility>

#include "algo/canonicalize.h"
#include "common/coverage.h"
#include "eet/transform.h"
#include "engine/functions.h"
#include "fuzz/aei.h"
#include "geom/wkt_reader.h"
#include "geom/wkt_writer.h"
#include "obs/metrics.h"

namespace spatter::fuzz {

// --- Database loads ----------------------------------------------------------

namespace {

// One loaded SDB1: the tables a load left plus what each of its statements
// and rows did, and, per effective row set (the rows a restore installs:
// accepted and kept), the engine::ResultStore of the count queries run on
// that database, which each restore of it lends the engine.
class LoadSnapshot {
 public:
  explicit LoadSnapshot(const DatabaseSpec& sdb) : loaded_(sdb.tables.size()) {
    for (size_t t = 0; t < sdb.tables.size(); ++t) {
      loaded_[t].name = sdb.tables[t].name;
    }
  }

  // Where a load records table t's DDL statements and rows.
  faults::Effects* AddDdl(size_t t) { return &loaded_[t].ddl.emplace_back(); }
  faults::Effects* AddRow(size_t t) {
    return &loaded_[t].rows.emplace_back().effects;
  }
  void SetAccepted(size_t t, bool accepted) {
    loaded_[t].rows.back().accepted = accepted;
  }

  // Takes the rows of a recorded load that succeeded. False when the
  // engine does not hold exactly the spec's tables, each with its
  // accepted rows in order: such a load is not kept.
  bool TakeRows(const engine::Engine& engine) {
    if (engine.tables().size() != loaded_.size()) return false;
    for (Table& loaded : loaded_) {
      const auto it = engine.tables().find(loaded.name);
      if (it == engine.tables().end()) return false;
      const engine::Table& table = it->second;
      size_t next = 0;
      for (RowRecord& row : loaded.rows) {
        if (!row.accepted) continue;
        if (next == table.rows.size()) return false;
        row.row = table.rows[next++];
      }
      if (next != table.rows.size()) return false;
      loaded.schema = table;
      loaded.schema.rows.clear();
    }
    return true;
  }

  // What a load of the recorded database would do: install the tables with
  // the rows `keep` marks (nullptr: all) and replay the effects of exactly
  // the statements and rows it would run. Lends the engine the result store
  // of the installed rows.
  void Restore(engine::Engine* engine, RowMask* accepted,
               const RowMask* keep) {
    const faults::FaultState& faults = engine->fault_state();
    std::vector<bool> installed;  // all tables' rows, in order
    for (size_t t = 0; t < loaded_.size(); ++t) {
      for (size_t r = 0; r < loaded_[t].rows.size(); ++r) {
        installed.push_back(loaded_[t].rows[r].accepted &&
                            (keep == nullptr || (*keep)[t][r]));
      }
    }
    std::shared_ptr<engine::ResultStore>& results = results_[installed];
    if (!results) results = std::make_shared<engine::ResultStore>();
    if (accepted) accepted->assign(loaded_.size(), {});
    const auto install = [&](std::map<std::string, engine::Table>* tables) {
      size_t next = 0;
      for (size_t t = 0; t < loaded_.size(); ++t) {
        const Table& loaded = loaded_[t];
        for (const faults::Effects& ddl : loaded.ddl) ddl.Replay(&faults);
        engine::Table& table = (*tables)[loaded.name];
        table = loaded.schema;
        table.rows.reserve(loaded.rows.size());
        for (size_t r = 0; r < loaded.rows.size(); ++r) {
          const RowRecord& row = loaded.rows[r];
          if (keep == nullptr || (*keep)[t][r]) row.effects.Replay(&faults);
          const bool installs = installed[next++];
          if (installs) table.rows.push_back(row.row);
          if (accepted) (*accepted)[t].push_back(installs);
        }
      }
    };
    engine->Restore(install, results);
  }

 private:
  struct RowRecord {
    bool accepted = false;
    engine::Row row;  // the inserted row, when accepted
    faults::Effects effects;
  };
  struct Table {
    std::string name;
    engine::Table schema;  // as the DDL left it, without rows
    std::vector<faults::Effects> ddl;
    std::vector<RowRecord> rows;  // aligned with TableSpec::rows
  };

  std::vector<Table> loaded_;  // aligned with DatabaseSpec::tables
  // By effective row set. An SDB1 state and its snapshots live until
  // another SDB1's state replaces it (StateOf); the engine holds a lent
  // store weakly, so it never reads one after that.
  std::map<std::vector<bool>, std::shared_ptr<engine::ResultStore>> results_;
};

// Everything an engine keeps about one SDB1, keyed by its table names and
// WKT rows: each row parsed once, the load snapshots per (with_index,
// enabled fault mask), and, for the affine checks and EET, each row's
// canonical form with what building them did and EET's distance bound per
// ordered table pair. Any database LoadDatabase is handed is an SDB1 here:
// a campaign's, a reducer candidate, a printed SDB2 in a test. It is the
// engine's snapshot store (StateOf).
class Sdb1State : public engine::Engine::SnapshotStore {
 public:
  explicit Sdb1State(const DatabaseSpec& sdb1)
      : tables_(sdb1.tables), rows_(sdb1.tables.size()) {
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (const std::string& wkt : tables_[t].rows) {
        Result<geom::GeomPtr> parsed = geom::ReadWkt(wkt);
        rows_[t].emplace_back().parsed =
            parsed.ok() ? std::shared_ptr<const geom::Geometry>(parsed.Take())
                        : nullptr;
      }
    }
  }

  // The key: SDB1's table names and WKT rows, compared in full.
  bool Matches(const DatabaseSpec& sdb1) const {
    if (sdb1.tables.size() != tables_.size()) return false;
    for (size_t t = 0; t < tables_.size(); ++t) {
      if (sdb1.tables[t].name != tables_[t].name ||
          sdb1.tables[t].rows != tables_[t].rows) {
        return false;
      }
    }
    return true;
  }

  // What row r of table t loads as: its parsed geometry, or its WKT when
  // that does not parse (the insert then fails as the statement's would).
  engine::Value RowValue(size_t t, size_t r) const {
    const std::shared_ptr<const geom::Geometry>& parsed = rows_[t][r].parsed;
    return parsed ? engine::Value::Geometry(parsed)
                  : engine::Value::String(tables_[t].rows[r]);
  }

  LoadSnapshot* Snapshot(bool with_index, uint64_t fault_mask) {
    const auto it = snapshots_.find({with_index, fault_mask});
    return it == snapshots_.end() ? nullptr : &it->second;
  }
  void AddSnapshot(bool with_index, uint64_t fault_mask,
                   LoadSnapshot snapshot) {
    snapshots_.emplace(std::make_pair(with_index, fault_mask),
                       std::move(snapshot));
  }

  // Canonicalizes every row that parses, as TransformDatabase does. The
  // first call builds the forms and records what the whole pass did; later
  // calls replay that record, so each call leaves the coverage counts
  // TransformDatabase's pass would.
  void Canonicalize(const faults::FaultState* faults) {
    if (canonicalized_) {
      canonicalize_.Replay(faults);
      return;
    }
    canonicalized_ = canonicalize_.Record(faults, [&] {
      for (auto& table : rows_) {
        for (Row& row : table) {
          if (!row.parsed) continue;
          SPATTER_COV("aei", "canonicalize_pass");
          row.canonical = algo::Canonicalize(*row.parsed);
        }
      }
      return true;
    });
  }

  // Row r of table t canonicalized; null when its WKT does not parse.
  const geom::Geometry* Canonical(size_t t, size_t r) const {
    return rows_[t][r].canonical.get();
  }

  double DistanceBound(const std::string& table1, const std::string& table2) {
    const auto key = std::make_pair(table1, table2);
    const auto it = bounds_.find(key);
    if (it != bounds_.end()) return it->second;
    const double bound =
        eet::DistanceBoundForParsed(ParsedRows(table1), ParsedRows(table2));
    bounds_.emplace(key, bound);
    return bound;
  }

 private:
  struct Row {
    std::shared_ptr<const geom::Geometry> parsed;  // null: WKT unparsable
    geom::GeomPtr canonical;  // built by the first Canonicalize
  };

  // The parsed rows of the last table named `name`; none when there is no
  // such table.
  std::vector<const geom::Geometry*> ParsedRows(const std::string& name) const {
    std::vector<const geom::Geometry*> out;
    for (size_t t = tables_.size(); t-- > 0;) {
      if (tables_[t].name != name) continue;
      for (const Row& row : rows_[t]) {
        if (row.parsed) out.push_back(row.parsed.get());
      }
      break;
    }
    return out;
  }

  std::vector<TableSpec> tables_;
  std::vector<std::vector<Row>> rows_;  // aligned with tables_
  std::map<std::pair<bool, uint64_t>, LoadSnapshot> snapshots_;
  bool canonicalized_ = false;
  faults::Effects canonicalize_;  // what the first Canonicalize did
  std::map<std::pair<std::string, std::string>, double> bounds_;
};

// The engine's state of `sdb1`, the SDB1 it loaded last: a new one, its
// rows parsed, in place of the last SDB1's when `sdb1` is another. A
// campaign engine works on one SDB1 per iteration. Only this function
// fills the engine's snapshot store, so the store is always an Sdb1State.
Sdb1State& StateOf(engine::Engine* engine, const DatabaseSpec& sdb1) {
  std::unique_ptr<engine::Engine::SnapshotStore>& store =
      engine->snapshot_store();
  if (!store || !static_cast<Sdb1State&>(*store).Matches(sdb1)) {
    store = std::make_unique<Sdb1State>(sdb1);
  }
  return static_cast<Sdb1State&>(*store);
}

// What row r of table t loads as.
using RowValue = std::function<engine::Value(size_t, size_t)>;

// Runs one unit of a load: a DDL statement or a row. With `effects`, also
// records what it did besides changing the tables (faults::Effects), as
// the relate memo records a kernel run.
template <typename Work>
Result<engine::ExecResult> RunRecorded(engine::Engine* engine,
                                       faults::Effects* effects, Work work) {
  if (effects == nullptr) return work();
  return effects->Record(&engine->fault_state(), work);
}

// A load's work: Reset, then per table its DDL statements and one
// Engine::InsertValue per row (`value`), rows not marked in `keep`
// skipped. With `record`, it also records each statement's and row's
// effects and each row's acceptance.
Status LoadTables(engine::Engine* engine, const DatabaseSpec& sdb,
                  const RowValue& value, RowMask* accepted,
                  const RowMask* keep, LoadSnapshot* record) {
  engine->Reset();
  if (accepted) accepted->clear();
  for (size_t t = 0; t < sdb.tables.size(); ++t) {
    const std::string& name = sdb.tables[t].name;
    for (const sql::StatementPtr& ddl : DdlStatements(name, sdb.with_index)) {
      SPATTER_RETURN_NOT_OK(
          RunRecorded(engine, record ? record->AddDdl(t) : nullptr,
                      [&] { return engine->Execute(*ddl); })
              .status());
    }
    std::vector<bool> mask;
    for (size_t r = 0; r < sdb.tables[t].rows.size(); ++r) {
      if (keep && !(*keep)[t][r]) {
        mask.push_back(false);
        continue;
      }
      auto result = RunRecorded(
          engine, record ? record->AddRow(t) : nullptr,
          [&] { return engine->InsertValue(name, "g", value(t, r)); });
      if (!result.ok() && result.status().code() == StatusCode::kCrash) {
        return result.status();
      }
      // Validity rejections are expected for random-shape inputs; the
      // fuzzer ignores them (paper §4.1).
      mask.push_back(result.ok());
      if (record) record->SetAccepted(t, result.ok());
    }
    if (accepted) accepted->push_back(std::move(mask));
  }
  return Status::OK();
}

// LoadTables as one unit of engine time (Engine::TypedLoad).
Status ExecuteLoad(engine::Engine* engine, const DatabaseSpec& sdb,
                   const RowValue& value, RowMask* accepted,
                   const RowMask* keep, LoadSnapshot* record) {
  Status status;
  engine->TypedLoad([&] {
    status = LoadTables(engine, sdb, value, accepted, keep, record);
  });
  return status;
}

}  // namespace

Status LoadDatabase(engine::Engine* engine, const DatabaseSpec& sdb,
                    RowMask* accepted, const RowMask* keep) {
  Sdb1State& state = StateOf(engine, sdb);
  const uint64_t fault_mask = engine->fault_state().EnabledMask();
  if (LoadSnapshot* snapshot = state.Snapshot(sdb.with_index, fault_mask)) {
    snapshot->Restore(engine, accepted, keep);
    return Status::OK();
  }
  const RowValue value = [&](size_t t, size_t r) {
    return state.RowValue(t, r);
  };
  // A filtered load follows an unfiltered one of the same database, so it
  // misses only when that one was not kept.
  if (keep) return ExecuteLoad(engine, sdb, value, accepted, keep, nullptr);
  LoadSnapshot snapshot(sdb);
  const Status status =
      ExecuteLoad(engine, sdb, value, accepted, nullptr, &snapshot);
  if (status.ok() && snapshot.TakeRows(*engine)) {
    SPATTER_METRIC_INC("engine.snapshot.build");
    state.AddSnapshot(sdb.with_index, fault_mask, std::move(snapshot));
  }
  return status;
}

// --- The affine pair ---------------------------------------------------------

AffinePair::AffinePair(engine::Engine* engine, const DatabaseSpec& sdb1,
                       const algo::AffineTransform& transform)
    : engine_(engine), sdb1_(sdb1), image_(sdb1.tables.size()) {
  Sdb1State& state = StateOf(engine, sdb1);
  state.Canonicalize(&engine->fault_state());
  for (size_t t = 0; t < sdb1.tables.size(); ++t) {
    for (size_t r = 0; r < sdb1.tables[t].rows.size(); ++r) {
      const geom::Geometry* canonical = state.Canonical(t, r);
      if (canonical == nullptr) {
        image_[t].push_back(engine::Value::String(sdb1.tables[t].rows[r]));
        continue;
      }
      geom::GeomPtr g = canonical->Clone();
      transform.ApplyInPlace(g.get());
      image_[t].push_back(
          geom::NormalizeForWkt(g.get())
              ? engine::Value::Geometry(std::move(g))
              : engine::Value::String(g->ToWkt()));
    }
  }
}

Result<RowMask> AffinePair::LoadBoth() {
  RowMask both;
  RowMask mask2;
  SPATTER_RETURN_NOT_OK(LoadDatabase(engine_, sdb1_, &both));
  SPATTER_RETURN_NOT_OK(LoadImage(&mask2));
  for (size_t t = 0; t < both.size(); ++t) {
    for (size_t r = 0; r < both[t].size(); ++r) {
      both[t][r] = both[t][r] && mask2[t][r];
    }
  }
  return both;
}

Status AffinePair::LoadImage(RowMask* accepted, const RowMask* keep) {
  const RowValue value = [&](size_t t, size_t r) { return image_[t][r]; };
  return ExecuteLoad(engine_, sdb1_, value, accepted, keep, nullptr);
}

double DistanceBound(engine::Engine* engine, const DatabaseSpec& sdb1,
                     const std::string& table1, const std::string& table2) {
  return StateOf(engine, sdb1).DistanceBound(table1, table2);
}

// --- Shared check pieces -----------------------------------------------------

CountRun ReadCount(const Result<engine::ExecResult>& result) {
  CountRun run;
  if (!result.ok()) {
    run.crash = result.status().code() == StatusCode::kCrash;
    run.error = result.status().ToString();
    return run;
  }
  run.ok = true;
  run.count = result.value().count;
  return run;
}

bool AllCounted(std::initializer_list<CountRun> runs, OracleOutcome* out) {
  for (const CountRun& run : runs) {
    if (run.crash) {
      out->crash = true;
      out->detail = run.error;
      return false;
    }
  }
  for (const CountRun& run : runs) {
    if (!run.ok) {
      out->applicable = false;
      return false;
    }
  }
  return true;
}

// --- The bracket -------------------------------------------------------------

Oracle::Oracle(std::unique_ptr<engine::Engine> secondary)
    : secondary_(std::move(secondary)) {}

OracleKind Oracle::AttributedKind(const OracleCtx& ctx) const {
  (void)ctx;
  return Kind();
}

std::optional<engine::Dialect> Oracle::SecondaryDialect() const {
  if (!secondary_) return std::nullopt;
  return secondary_->dialect();
}

OracleOutcome Oracle::Check(engine::Engine* engine, const DatabaseSpec& sdb1,
                            const QuerySpec& query, const OracleCtx& ctx) {
  engine->fault_state().ClearHits();
  if (secondary_) secondary_->fault_state().ClearHits();
  OracleOutcome out = Compare(engine, sdb1, query, ctx);
  out.fault_hits = engine->fault_state().TakeHits();
  if (secondary_) out.fault_hits.merge(secondary_->fault_state().TakeHits());
  return out;
}

// --- AEI family --------------------------------------------------------------

namespace {

// The AEI check (paper Figure 5) under `transform`: SDB2 is the transform
// of canonicalized SDB1, and both filtered databases must count the same.
OracleOutcome CompareAffine(engine::Engine* engine, const DatabaseSpec& sdb1,
                            const QuerySpec& query,
                            const algo::AffineTransform& transform) {
  SPATTER_COV("oracle", "aei_check");
  OracleOutcome out;
  AffinePair pair(engine, sdb1, transform);
  const Result<RowMask> keep = pair.LoadBoth();
  if (!keep.ok()) {
    out.crash = keep.status().code() == StatusCode::kCrash;
    out.detail = keep.status().ToString();
    return out;
  }

  // Distance-based predicates and the bounding-box operator ~= are only
  // invariant under similarity transforms; the SDB2 query carries the
  // scaled distance parameter (see RandomIntegerSimilarity).
  QuerySpec query2 = query;
  const bool metric_sensitive =
      query.extra == engine::PredicateExtra::kDistance ||
      query.predicate == "~=";
  if (metric_sensitive && !transform.IsIdentity()) {
    const auto scale = SimilarityScale(transform);
    if (!scale) {
      out.applicable = false;  // shearing would change the expected result.
      return out;
    }
    query2.distance = query.distance * *scale;
  }

  if (!LoadDatabase(engine, sdb1, nullptr, &keep.value()).ok()) return out;
  const CountRun r1 = ReadCount(engine->Execute(*query.ToStatement()));
  if (!pair.LoadImage(nullptr, &keep.value()).ok()) return out;
  const CountRun r2 = ReadCount(engine->Execute(*query2.ToStatement()));
  if (!AllCounted({r1, r2}, &out)) return out;
  if (r1.count != r2.count) {
    out.mismatch = true;
    out.detail = "{" + std::to_string(r1.count) + "} vs {" +
                 std::to_string(r2.count) + "}";
    SPATTER_COV("oracle", "aei_mismatch");
  }
  return out;
}

}  // namespace

OracleKind AeiOracle::AttributedKind(const OracleCtx& ctx) const {
  return ctx.canonical_only ? OracleKind::kCanonicalOnly : OracleKind::kAei;
}

OracleOutcome AeiOracle::Compare(engine::Engine* engine,
                                 const DatabaseSpec& sdb1,
                                 const QuerySpec& query, const OracleCtx& ctx) {
  return CompareAffine(engine, sdb1, query, ctx.transform);
}

OracleOutcome CanonicalOnlyOracle::Compare(engine::Engine* engine,
                                           const DatabaseSpec& sdb1,
                                           const QuerySpec& query,
                                           const OracleCtx& ctx) {
  (void)ctx;  // always the identity matrix, whatever the campaign drew
  return CompareAffine(engine, sdb1, query, algo::AffineTransform::Identity());
}

// --- Differential ------------------------------------------------------------

DifferentialOracle::DifferentialOracle(engine::Dialect secondary,
                                       bool enable_faults)
    : Oracle(std::make_unique<engine::Engine>(secondary, enable_faults)) {}

OracleOutcome DifferentialOracle::Compare(engine::Engine* engine,
                                          const DatabaseSpec& sdb1,
                                          const QuerySpec& query,
                                          const OracleCtx& ctx) {
  (void)ctx;
  SPATTER_COV("oracle", "differential_check");
  OracleOutcome out;
  // Function availability: the predicate must exist in both dialects,
  // otherwise the expected result cannot be constructed (paper §1).
  for (const engine::Engine* e : {engine, secondary_.get()}) {
    const bool available =
        query.predicate == "~="
            ? e->traits().has_same_as_operator
            : engine::ResolveFunction(query.predicate, e->dialect()).ok();
    if (!available) {
      out.applicable = false;
      return out;
    }
  }

  const sql::StatementPtr stmt = query.ToStatement();
  CountRun r1;
  CountRun r2;
  if (LoadDatabase(engine, sdb1, nullptr).ok()) {
    r1 = ReadCount(engine->Execute(*stmt));
  }
  if (LoadDatabase(secondary_.get(), sdb1, nullptr).ok()) {
    r2 = ReadCount(secondary_->Execute(*stmt));
  }
  if (!AllCounted({r1, r2}, &out)) return out;
  if (r1.count != r2.count) {
    out.mismatch = true;
    out.detail = std::string(engine::DialectName(engine->dialect())) + " {" +
                 std::to_string(r1.count) + "} vs " +
                 engine::DialectName(secondary_->dialect()) + " {" +
                 std::to_string(r2.count) + "}";
  }
  return out;
}

// --- Index / TLP -------------------------------------------------------------

OracleOutcome IndexOracle::Compare(engine::Engine* engine,
                                   const DatabaseSpec& sdb1,
                                   const QuerySpec& query,
                                   const OracleCtx& ctx) {
  (void)ctx;
  SPATTER_COV("oracle", "index_check");
  OracleOutcome out;
  const sql::StatementPtr stmt = query.ToStatement();
  DatabaseSpec sdb = sdb1;
  auto count_with_index = [&](bool with_index) {
    sdb.with_index = with_index;
    CountRun run;
    if (LoadDatabase(engine, sdb, nullptr).ok()) {
      run = ReadCount(engine->Execute(*stmt));
    }
    return run;
  };
  const CountRun seqscan = count_with_index(false);
  const CountRun indexed = count_with_index(true);
  if (!AllCounted({seqscan, indexed}, &out)) return out;
  if (seqscan.count != indexed.count) {
    out.mismatch = true;
    out.detail = "seqscan {" + std::to_string(seqscan.count) +
                 "} vs index {" + std::to_string(indexed.count) + "}";
  }
  return out;
}

OracleOutcome TlpOracle::Compare(engine::Engine* engine,
                                 const DatabaseSpec& sdb1,
                                 const QuerySpec& query, const OracleCtx& ctx) {
  (void)ctx;
  SPATTER_COV("oracle", "tlp_check");
  OracleOutcome out;
  RowMask accepted;
  if (!LoadDatabase(engine, sdb1, &accepted).ok()) {
    out.applicable = false;
    return out;
  }
  // Cross-join cardinality over accepted rows.
  int64_t rows1 = 0;
  int64_t rows2 = 0;
  for (size_t t = 0; t < sdb1.tables.size(); ++t) {
    int64_t rows = 0;
    for (bool ok : accepted[t]) rows += ok;
    if (sdb1.tables[t].name == query.table1) rows1 = rows;
    if (sdb1.tables[t].name == query.table2) rows2 = rows;
  }
  const int64_t total = rows1 * rows2;

  // Partitioning queries: P, NOT P, P IS UNKNOWN.
  const sql::StatementPtr stmt = query.ToStatement();
  const sql::ExprPtr p = std::move(stmt->condition);
  auto run_with = [&](sql::ExprPtr cond) {
    stmt->condition = std::move(cond);
    return ReadCount(engine->Execute(*stmt));
  };
  const CountRun rp = run_with(p->Clone());
  const CountRun rn = run_with(sql::Expr::MakeNot(p->Clone()));
  const CountRun ru = run_with(sql::Expr::MakeIsUnknown(p->Clone()));
  if (!AllCounted({rp, rn, ru}, &out)) return out;
  const int64_t sum = rp.count + rn.count + ru.count;
  if (sum != total) {
    out.mismatch = true;
    out.detail = "partitions {" + std::to_string(rp.count) + "+" +
                 std::to_string(rn.count) + "+" + std::to_string(ru.count) +
                 "} != cross join {" + std::to_string(total) + "}";
  }
  return out;
}

}  // namespace spatter::fuzz
