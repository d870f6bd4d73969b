#include "fuzz/oracles.h"

#include <algorithm>

#include "common/coverage.h"
#include "engine/functions.h"
#include "fuzz/aei.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace spatter::fuzz {

// --- Database loads ----------------------------------------------------------

namespace {

// Runs one load statement. With `effects`, also records what it did
// besides changing the tables (faults::Effects), as the relate memo records
// a kernel run.
Result<engine::ExecResult> RunLoadStatement(engine::Engine* engine,
                                            const std::string& sql,
                                            faults::Effects* effects) {
  if (effects == nullptr) return engine->Execute(sql);
  return effects->Record(&engine->fault_state(),
                         [&] { return engine->Execute(sql); });
}

// One loaded database: the key is everything a load reads besides the
// engine's dialect, and the value is the tables the load left plus what
// each of its statements did.
class LoadSnapshot {
 public:
  LoadSnapshot(const DatabaseSpec& sdb, uint64_t fault_mask)
      : tables_(sdb.tables), with_index_(sdb.with_index),
        fault_mask_(fault_mask), loaded_(sdb.tables.size()) {}

  // The whole key compared, not a hash of it.
  bool Matches(const DatabaseSpec& sdb, uint64_t fault_mask) const {
    if (sdb.with_index != with_index_ || fault_mask != fault_mask_ ||
        sdb.tables.size() != tables_.size()) {
      return false;
    }
    for (size_t t = 0; t < tables_.size(); ++t) {
      if (sdb.tables[t].name != tables_[t].name ||
          sdb.tables[t].rows != tables_[t].rows) {
        return false;
      }
    }
    return true;
  }

  // Where the statement path records table t's DDL and row statements.
  faults::Effects* AddDdl(size_t t) { return &loaded_[t].ddl.emplace_back(); }
  faults::Effects* AddRow(size_t t) {
    return &loaded_[t].rows.emplace_back().effects;
  }
  void SetAccepted(size_t t, bool accepted) {
    loaded_[t].rows.back().accepted = accepted;
  }

  // Takes the rows of a recorded load that succeeded. False when the
  // engine does not hold exactly the spec's tables, each with its
  // accepted rows in order (a table name that is no plain identifier):
  // such a load cannot be restored row by row.
  bool TakeRows(const engine::Engine& engine) {
    if (engine.tables().size() != tables_.size()) return false;
    for (size_t t = 0; t < tables_.size(); ++t) {
      const auto it = engine.tables().find(tables_[t].name);
      if (it == engine.tables().end()) return false;
      const engine::Table& table = it->second;
      Table& loaded = loaded_[t];
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

  // What the statement path would do for a load of the key's database:
  // install the tables with the rows `keep` marks (nullptr: all) and
  // replay the effects of exactly the statements it would run.
  void Restore(engine::Engine* engine, RowMask* accepted,
               const RowMask* keep) const {
    const faults::FaultState& faults = engine->fault_state();
    if (accepted) accepted->assign(tables_.size(), {});
    engine->Restore([&](std::map<std::string, engine::Table>* tables) {
      for (size_t t = 0; t < tables_.size(); ++t) {
        const Table& loaded = loaded_[t];
        for (const faults::Effects& ddl : loaded.ddl) ddl.Replay(&faults);
        engine::Table& table = (*tables)[tables_[t].name];
        table = loaded.schema;
        table.rows.reserve(loaded.rows.size());
        for (size_t r = 0; r < loaded.rows.size(); ++r) {
          const RowRecord& row = loaded.rows[r];
          const bool kept = keep == nullptr || (*keep)[t][r];
          if (kept) {
            row.effects.Replay(&faults);
            if (row.accepted) table.rows.push_back(row.row);
          }
          if (accepted) (*accepted)[t].push_back(kept && row.accepted);
        }
      }
    });
  }

 private:
  struct RowRecord {
    bool accepted = false;
    engine::Row row;  // the inserted row, when accepted
    faults::Effects effects;
  };
  struct Table {
    engine::Table schema;  // as the DDL left it, without rows
    std::vector<faults::Effects> ddl;
    std::vector<RowRecord> rows;  // aligned with TableSpec::rows
  };

  std::vector<TableSpec> tables_;
  bool with_index_;
  uint64_t fault_mask_;
  std::vector<Table> loaded_;  // aligned with tables_
};

// An engine's most recently used snapshots. Four hold an iteration's
// working set: SDB1, its twin under the other with_index (the index
// oracle), the current query's SDB2, and the canonical SDB1 that
// canonical-only queries load.
class LoadCache : public engine::Engine::SnapshotStore {
 public:
  static LoadCache& Of(engine::Engine* engine) {
    std::unique_ptr<engine::Engine::SnapshotStore>& store =
        engine->snapshot_store();
    if (!store) store = std::make_unique<LoadCache>();
    return static_cast<LoadCache&>(*store);
  }

  // The snapshot of (sdb, fault_mask), now the most recently used; null
  // when there is none.
  const LoadSnapshot* Find(const DatabaseSpec& sdb, uint64_t fault_mask) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if ((*it)->Matches(sdb, fault_mask)) {
        std::rotate(it.base() - 1, it.base(), entries_.end());
        return entries_.back().get();
      }
    }
    return nullptr;
  }

  void Insert(std::unique_ptr<LoadSnapshot> snapshot) {
    if (entries_.size() == kEntries) entries_.erase(entries_.begin());
    entries_.push_back(std::move(snapshot));
  }

 private:
  static constexpr size_t kEntries = 4;
  std::vector<std::unique_ptr<LoadSnapshot>> entries_;  // LRU first
};

// The statement path: Reset, then the CREATE/INSERT statements of `sdb`,
// rows not marked in `keep` skipped. With `record`, it also records each
// statement's effects and each row's acceptance.
Status ExecuteLoad(engine::Engine* engine, const DatabaseSpec& sdb,
                   RowMask* accepted, const RowMask* keep,
                   LoadSnapshot* record) {
  engine->Reset();
  if (accepted) accepted->clear();
  for (size_t t = 0; t < sdb.tables.size(); ++t) {
    const TableSql sql = RenderTable(sdb.tables[t], sdb.with_index);
    for (const std::string& ddl : sql.ddl) {
      SPATTER_RETURN_NOT_OK(
          RunLoadStatement(engine, ddl, record ? record->AddDdl(t) : nullptr)
              .status());
    }
    std::vector<bool> mask;
    for (size_t r = 0; r < sql.inserts.size(); ++r) {
      if (keep && !(*keep)[t][r]) {
        mask.push_back(false);
        continue;
      }
      auto result = RunLoadStatement(engine, sql.inserts[r],
                                     record ? record->AddRow(t) : nullptr);
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

}  // namespace

Status LoadDatabase(engine::Engine* engine, const DatabaseSpec& sdb,
                    RowMask* accepted, const RowMask* keep) {
  LoadCache& cache = LoadCache::Of(engine);
  const uint64_t fault_mask = engine->fault_state().EnabledMask();
  if (const LoadSnapshot* snapshot = cache.Find(sdb, fault_mask)) {
    snapshot->Restore(engine, accepted, keep);
    return Status::OK();
  }
  // A filtered load follows an unfiltered one of the same database
  // (AcceptedByBoth), so it misses only when that one was not kept.
  if (keep) return ExecuteLoad(engine, sdb, accepted, keep, nullptr);
  auto snapshot = std::make_unique<LoadSnapshot>(sdb, fault_mask);
  const Status status =
      ExecuteLoad(engine, sdb, accepted, nullptr, snapshot.get());
  if (status.ok() && snapshot->TakeRows(*engine)) {
    SPATTER_METRIC_INC("engine.snapshot.build");
    cache.Insert(std::move(snapshot));
  }
  return status;
}

// --- Shared check pieces -----------------------------------------------------

Result<RowMask> AcceptedByBoth(engine::Engine* engine, const DatabaseSpec& sdb1,
                               const DatabaseSpec& sdb2) {
  RowMask both;
  RowMask mask2;
  SPATTER_RETURN_NOT_OK(LoadDatabase(engine, sdb1, &both));
  SPATTER_RETURN_NOT_OK(LoadDatabase(engine, sdb2, &mask2));
  for (size_t t = 0; t < both.size(); ++t) {
    for (size_t r = 0; r < both[t].size(); ++r) {
      both[t][r] = both[t][r] && mask2[t][r];
    }
  }
  return both;
}

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
  const DatabaseSpec sdb2 =
      TransformDatabase(sdb1, transform, /*canonicalize=*/true);
  const Result<RowMask> keep = AcceptedByBoth(engine, sdb1, sdb2);
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
  const CountRun r1 = ReadCount(engine->Execute(query.ToSql()));
  if (!LoadDatabase(engine, sdb2, nullptr, &keep.value()).ok()) return out;
  const CountRun r2 = ReadCount(engine->Execute(query2.ToSql()));
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

  const std::string sql = query.ToSql();
  CountRun r1;
  CountRun r2;
  if (LoadDatabase(engine, sdb1, nullptr).ok()) {
    r1 = ReadCount(engine->Execute(sql));
  }
  if (LoadDatabase(secondary_.get(), sdb1, nullptr).ok()) {
    r2 = ReadCount(secondary_->Execute(sql));
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
  const std::string sql = query.ToSql();
  DatabaseSpec sdb = sdb1;
  auto count_with_index = [&](bool with_index) {
    sdb.with_index = with_index;
    CountRun run;
    if (LoadDatabase(engine, sdb, nullptr).ok()) {
      run = ReadCount(engine->Execute(sql));
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
  auto parsed = sql::ParseStatement(query.ToSql());
  if (!parsed.ok()) {
    out.applicable = false;
    return out;
  }
  const sql::Statement& stmt = *parsed.value();
  auto run_with = [&](sql::ExprPtr cond) {
    sql::Statement q;
    q.kind = sql::Statement::Kind::kSelectCountJoin;
    q.table = stmt.table;
    q.table2 = stmt.table2;
    q.condition = std::move(cond);
    return ReadCount(engine->Execute(q));
  };
  const CountRun rp = run_with(stmt.condition->Clone());
  const CountRun rn = run_with(sql::Expr::MakeNot(stmt.condition->Clone()));
  const CountRun ru =
      run_with(sql::Expr::MakeIsUnknown(stmt.condition->Clone()));
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
