#include "fuzz/oracles.h"

#include <algorithm>
#include <cctype>
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
#include "sql/parser.h"

namespace spatter::fuzz {

// --- Database loads ----------------------------------------------------------

namespace {

// Runs one unit of a load: a statement, or a typed row. With `effects`,
// also records what it did besides changing the tables
// (faults::Effects), as the relate memo records a kernel run.
template <typename Work>
Result<engine::ExecResult> RunRecorded(engine::Engine* engine,
                                       faults::Effects* effects, Work work) {
  if (effects == nullptr) return work();
  return effects->Record(&engine->fault_state(), work);
}

// Same table names, each with the same WKT rows.
bool SameTables(const std::vector<TableSpec>& a,
                const std::vector<TableSpec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].name != b[t].name || a[t].rows != b[t].rows) return false;
  }
  return true;
}

}  // namespace

// One loaded database: the tables a load left plus what each of its
// statements did.
class LoadSnapshot {
 public:
  explicit LoadSnapshot(const DatabaseSpec& sdb) : loaded_(sdb.tables.size()) {
    for (size_t t = 0; t < sdb.tables.size(); ++t) {
      loaded_[t].name = sdb.tables[t].name;
    }
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

  // What the statement path would do for a load of the recorded database:
  // install the tables with the rows `keep` marks (nullptr: all) and
  // replay the effects of exactly the statements it would run.
  void Restore(engine::Engine* engine, RowMask* accepted,
               const RowMask* keep) const {
    const faults::FaultState& faults = engine->fault_state();
    if (accepted) accepted->assign(loaded_.size(), {});
    engine->Restore([&](std::map<std::string, engine::Table>* tables) {
      for (size_t t = 0; t < loaded_.size(); ++t) {
        const Table& loaded = loaded_[t];
        for (const faults::Effects& ddl : loaded.ddl) ddl.Replay(&faults);
        engine::Table& table = (*tables)[loaded.name];
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
    std::string name;
    engine::Table schema;  // as the DDL left it, without rows
    std::vector<faults::Effects> ddl;
    std::vector<RowRecord> rows;  // aligned with TableSpec::rows
  };

  std::vector<Table> loaded_;  // aligned with DatabaseSpec::tables
};

namespace {

// What every check on one SDB1 shares, derived once per engine (see
// AffinePair): each row parsed, its canonical form with what building it
// did, and EET's distance bound per ordered table pair.
class DerivedSdb1 {
 public:
  explicit DerivedSdb1(const DatabaseSpec& sdb1)
      : tables_(sdb1.tables), rows_(sdb1.tables.size()) {
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (const std::string& wkt : tables_[t].rows) {
        Result<geom::GeomPtr> parsed = geom::ReadWkt(wkt);
        rows_[t].emplace_back().parsed =
            parsed.ok() ? parsed.Take() : geom::GeomPtr();
      }
    }
  }

  // The key: SDB1's table names and WKT rows, compared in full.
  bool Matches(const DatabaseSpec& sdb1) const {
    return SameTables(tables_, sdb1.tables);
  }

  // Canonicalizes every row that parses, as TransformDatabase does. The
  // first call builds the forms and records what building each did; later
  // calls replay that record, so each call leaves the coverage counts
  // TransformDatabase's pass would.
  void Canonicalize(const faults::FaultState* faults) {
    for (auto& table : rows_) {
      for (Row& row : table) {
        if (!row.parsed) continue;
        if (canonicalized_) {
          row.canonicalize.Replay(faults);
          continue;
        }
        row.canonical = row.canonicalize.Record(faults, [&] {
          SPATTER_COV("aei", "canonicalize_pass");
          return algo::Canonicalize(*row.parsed);
        });
      }
    }
    canonicalized_ = true;
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
    geom::GeomPtr parsed;     // null when the WKT does not parse
    geom::GeomPtr canonical;  // built by the first Canonicalize
    faults::Effects canonicalize;
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
  bool canonicalized_ = false;
  std::map<std::pair<std::string, std::string>, double> bounds_;
};

// An engine's load state: its most recently used snapshots, and the
// derived state of the last SDB1 an affine check or EET read.
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
        return &entries_.back()->snapshot;
      }
    }
    return nullptr;
  }

  void Insert(const DatabaseSpec& sdb, uint64_t fault_mask,
              LoadSnapshot snapshot) {
    if (entries_.size() == kEntries) entries_.erase(entries_.begin());
    entries_.push_back(std::unique_ptr<Entry>(
        new Entry{sdb, fault_mask, std::move(snapshot)}));
  }

  // The derived state of `sdb1`, replacing the previous SDB1's.
  DerivedSdb1& Derived(const DatabaseSpec& sdb1) {
    if (!derived_ || !derived_->Matches(sdb1)) {
      derived_ = std::make_unique<DerivedSdb1>(sdb1);
    }
    return *derived_;
  }

 private:
  struct Entry {
    DatabaseSpec sdb;
    uint64_t fault_mask;
    LoadSnapshot snapshot;

    // The whole key compared, not a hash of it.
    bool Matches(const DatabaseSpec& other, uint64_t mask) const {
      return other.with_index == sdb.with_index && mask == fault_mask &&
             SameTables(sdb.tables, other.tables);
    }
  };

  // An iteration's working set is two entries: SDB1 and its twin under
  // the other with_index (the index oracle). SDB2 never enters; AffinePair
  // keeps its own snapshot. Four leave room for a second such pair, say
  // the same databases under another fault mask, at the cost of the rows
  // each entry holds.
  static constexpr size_t kEntries = 4;
  std::vector<std::unique_ptr<Entry>> entries_;  // LRU first
  std::unique_ptr<DerivedSdb1> derived_;
};

// Inserts row r of table t.
using InsertRow = std::function<Result<engine::ExecResult>(size_t, size_t)>;

// The statement path: Reset, then per table its DDL and one insert per
// row (`insert`), rows not marked in `keep` skipped. With `record`, it also
// records each statement's effects and each row's acceptance.
Status ExecuteLoad(engine::Engine* engine, const DatabaseSpec& sdb,
                   const InsertRow& insert, RowMask* accepted,
                   const RowMask* keep, LoadSnapshot* record) {
  engine->Reset();
  if (accepted) accepted->clear();
  for (size_t t = 0; t < sdb.tables.size(); ++t) {
    for (const std::string& ddl :
         RenderDdl(sdb.tables[t].name, sdb.with_index)) {
      SPATTER_RETURN_NOT_OK(
          RunRecorded(engine, record ? record->AddDdl(t) : nullptr,
                      [&] { return engine->Execute(ddl); })
              .status());
    }
    std::vector<bool> mask;
    for (size_t r = 0; r < sdb.tables[t].rows.size(); ++r) {
      if (keep && !(*keep)[t][r]) {
        mask.push_back(false);
        continue;
      }
      auto result = RunRecorded(engine, record ? record->AddRow(t) : nullptr,
                                [&] { return insert(t, r); });
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

// True for a name the SQL lexer reads back as one identifier, verbatim.
bool PlainIdentifier(const std::string& name) {
  if (name.empty() ||
      !(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
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
  const InsertRow insert = [&](size_t t, size_t r) {
    const TableSpec& table = sdb.tables[t];
    return engine->Execute(RenderInsert(table.name, table.rows[r]));
  };
  // A filtered load follows an unfiltered one of the same database, so it
  // misses only when that one was not kept.
  if (keep) return ExecuteLoad(engine, sdb, insert, accepted, keep, nullptr);
  LoadSnapshot snapshot(sdb);
  const Status status =
      ExecuteLoad(engine, sdb, insert, accepted, nullptr, &snapshot);
  if (status.ok() && snapshot.TakeRows(*engine)) {
    SPATTER_METRIC_INC("engine.snapshot.build");
    cache.Insert(sdb, fault_mask, std::move(snapshot));
  }
  return status;
}

// --- The affine pair ---------------------------------------------------------

AffinePair::AffinePair(engine::Engine* engine, const DatabaseSpec& sdb1,
                       const algo::AffineTransform& transform)
    : engine_(engine), sdb1_(sdb1), image_(sdb1.tables.size()) {
  DerivedSdb1& derived = LoadCache::Of(engine).Derived(sdb1);
  derived.Canonicalize(&engine->fault_state());
  for (size_t t = 0; t < sdb1.tables.size(); ++t) {
    const TableSpec& table = sdb1.tables[t];
    const bool typed_table = PlainIdentifier(table.name);
    for (size_t r = 0; r < table.rows.size(); ++r) {
      ImageRow& row = image_[t].emplace_back();
      const geom::Geometry* canonical = derived.Canonical(t, r);
      if (canonical == nullptr) {
        row.insert = RenderInsert(table.name, table.rows[r]);
        continue;
      }
      geom::GeomPtr g = canonical->Clone();
      transform.ApplyInPlace(g.get());
      if (typed_table && geom::NormalizeForWkt(g.get())) {
        row.typed = std::move(g);
      } else {
        row.insert = RenderInsert(table.name, g->ToWkt());
      }
    }
  }
}

AffinePair::~AffinePair() = default;

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
  if (snapshot_) {
    snapshot_->Restore(engine_, accepted, keep);
    return Status::OK();
  }
  const InsertRow insert = [&](size_t t, size_t r) {
    const ImageRow& row = image_[t][r];
    if (!row.typed) return engine_->Execute(row.insert);
    return engine_->InsertGeometry(sdb1_.tables[t].name, "g", row.typed);
  };
  auto record = keep ? nullptr : std::make_unique<LoadSnapshot>(sdb1_);
  Status status;
  engine_->TypedLoad([&] {
    status = ExecuteLoad(engine_, sdb1_, insert, accepted, keep, record.get());
  });
  if (status.ok() && record && record->TakeRows(*engine_)) {
    SPATTER_METRIC_INC("engine.snapshot.build");
    snapshot_ = std::move(record);
  }
  return status;
}

double DistanceBound(engine::Engine* engine, const DatabaseSpec& sdb1,
                     const std::string& table1, const std::string& table2) {
  return LoadCache::Of(engine).Derived(sdb1).DistanceBound(table1, table2);
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
  const CountRun r1 = ReadCount(engine->Execute(query.ToSql()));
  if (!pair.LoadImage(nullptr, &keep.value()).ok()) return out;
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
