// The embedded spatial SQL engine: tables of geometries, an envelope index
// scan, a prepared-geometry join path, per-dialect function surface, and
// injected-fault hooks at the code sites where the paper's bugs lived.
#ifndef SPATTER_ENGINE_ENGINE_H_
#define SPATTER_ENGINE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/dialect.h"
#include "engine/value.h"
#include "faults/fault.h"
#include "geom/envelope.h"
#include "sql/ast.h"
#include "sql/stmt_cache.h"

namespace spatter::engine {

using Row = std::vector<Value>;

/// One table: a column schema and rows. `has_index` marks a GiST-style
/// index on the geometry column, which routes scans through the envelope
/// admission filter (Engine::CollectIndexCandidates).
struct Table {
  std::vector<std::string> column_names;
  std::vector<std::string> column_types;
  std::vector<Row> rows;
  int geometry_column = -1;
  bool has_index = false;

  int ColumnIndex(const std::string& name) const;
};

/// Result of executing one statement.
struct ExecResult {
  enum class Kind { kNone, kCount, kRows };
  Kind kind = Kind::kNone;
  int64_t count = 0;                 // COUNT(*) queries
  std::vector<Row> rows;             // scalar SELECTs (single row typical)

  std::string ToString() const;
  bool operator==(const ExecResult& other) const {
    return ToString() == other.ToString();
  }
};

/// Execution statistics, split the way Figure 7 reports time: the engine
/// accounts its own statement execution time so the harness can separate
/// "SDBMS time" from total Spatter time.
///
/// A count query replayed from a ResultStore counts as a statement, but
/// its join ran no pair, scan or prepared evaluation, so it adds to none of
/// those counters, and it reads no clock: it adds nothing to exec_seconds
/// and is no sample of the engine.statement histograms, which time only
/// statements that ran. engine.result_store.replay counts the replays.
struct EngineStats {
  uint64_t statements_executed = 0;
  uint64_t pairs_evaluated = 0;      // join pairs examined
  uint64_t index_scans = 0;
  uint64_t prepared_evaluations = 0;
  /// Statement execution time on the per-thread CPU clock (wall clock
  /// would inflate the Figure-7 SDBMS share when --jobs > cores).
  double exec_seconds = 0.0;

  /// Field-wise sum/difference, so campaign finalization (delta since a
  /// baseline) and cross-shard aggregation (summing) stay in lockstep
  /// when a counter is added here.
  EngineStats& operator+=(const EngineStats& o) {
    statements_executed += o.statements_executed;
    pairs_evaluated += o.pairs_evaluated;
    index_scans += o.index_scans;
    prepared_evaluations += o.prepared_evaluations;
    exec_seconds += o.exec_seconds;
    return *this;
  }
  EngineStats operator-(const EngineStats& o) const {
    EngineStats d = *this;
    d.statements_executed -= o.statements_executed;
    d.pairs_evaluated -= o.pairs_evaluated;
    d.index_scans -= o.index_scans;
    d.prepared_evaluations -= o.prepared_evaluations;
    d.exec_seconds -= o.exec_seconds;
    return d;
  }
};

/// The count queries run on one restored database, each with its result
/// (status text included) and what running it did besides (its
/// faults::Effects: fault ids fired, coverage sites hit with their counts),
/// so a repeat on the same database replays the record instead of running
/// the join again. Engine::Restore lends one; Engine::Execute reads it.
///
///  - Key: the restored database is the store's own key, kept by whoever
///    lends it (fuzz::LoadDatabase keeps one per snapshot and effective
///    row set). Within a store an entry is keyed by the statement
///    (sql::AppendKey: the tree, number literals by their bits) and the
///    EnabledMask at execution; the hash only picks the bucket.
///  - Why a replay is exact: a count query reads only the tables, the
///    statement, the dialect, the enabled fault set and the session
///    variables, and a restore leaves no variables. The prepared-geometry
///    cache fault lives within one outer row of one statement, and the
///    relate memo and operand cache change only metrics. So a replay
///    leaves fault hits, coverage counts, traces and enclosing captures as
///    running the query does.
///  - Memory: an entry is its key (the enabled mask and the statement's
///    key, about 90 bytes for a plain join, a few hundred for an EET
///    variant) and its recorded (site, count) pairs, at most 27 in the
///    measured runs. A store is allocated on the first restore of its row
///    set, never at engine construction. The lender keeps stores only in
///    the per-SDB1 state it keeps, one per engine, so an engine holds the
///    distinct count queries of one SDB1: at most one per statement an
///    oracle runs on it, about ten per query of the iteration. At the end
///    of a round of perfbench's `suite-j3` workload (`--dialect=all
///    --oracles=all --geometries=10 --iterations=3 --queries=50`, seed
///    4242) a campaign engine's stores held 71 to 201 KiB in two stores,
///    and a differential oracle's second engine 7 to 12 KiB in one.
class ResultStore {
 public:
  ResultStore() = default;
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

 private:
  friend class Engine;
  struct Entry {
    Result<ExecResult> result;
    faults::Effects effects;
  };
  std::unordered_map<std::string, Entry> entries_;
};

class Engine {
 public:
  /// `enable_faults` provisions the dialect's default fault set (its own
  /// component bugs plus GEOS bugs when it embeds the shared library);
  /// pass false for a "fixed" reference engine.
  explicit Engine(Dialect dialect, bool enable_faults = true);

  Dialect dialect() const { return dialect_; }
  const DialectTraits& traits() const { return GetDialectTraits(dialect_); }

  faults::FaultState& fault_state() { return faults_; }
  const faults::FaultState& fault_state() const { return faults_; }

  /// Read-only: callers wanting a before/after delta copy the snapshot by
  /// value (`EngineStats t0 = engine.stats();`) and subtract. Mutation is
  /// the engine's own business — external writes would corrupt the
  /// Figure-7 accounting.
  const EngineStats& stats() const { return stats_; }

  /// Parses and executes one statement.
  Result<ExecResult> Execute(const std::string& sql);
  /// Executes one statement. Every statement counts in statements_executed
  /// and hits its engine_stmt/<kind> coverage site. While a ResultStore is
  /// lent (Restore), a COUNT(*) query (join or WHERE) found in it under
  /// the current EnabledMask is replayed: its recorded effects are
  /// replayed and its recorded result returned, with no clock read (see
  /// EngineStats). One not found runs inside faults::Effects::Record and
  /// is stored. A scalar SELECT keeps the lent store; every other
  /// statement drops it, whether or not it succeeds.
  Result<ExecResult> Execute(const sql::Statement& stmt);
  /// Executes a ';'-separated script, returning the last result. Stops at
  /// the first error.
  Result<ExecResult> ExecuteScript(const std::string& script);

  /// Drops all tables and session variables, and the lent ResultStore.
  /// Fault configuration and statistics are preserved, and so are the
  /// statement cache (parsing is a pure function of the text) and the
  /// snapshot store, from which fuzz::LoadDatabase restores an SDB1 it
  /// has loaded before instead of re-running its DDL and row inserts.
  void Reset();

  /// Replaces the database without running a statement: Reset, then
  /// `install` fills the empty table map with copied rows. This is how a
  /// recorded load is restored (fuzz::LoadDatabase): statements_executed
  /// does not move, but the call's thread CPU time counts toward
  /// exec_seconds and is one sample of the engine.restore histogram and
  /// one engine.restore trace span.
  ///
  /// `results` is lent: the store of the count queries run on exactly the
  /// database `install` builds (every restore has one), which Execute
  /// replays and fills until Reset, InsertValue, TypedLoad, a statement
  /// other than a SELECT or the next Restore drops it. The engine holds it
  /// weakly: a store its lender has freed is never read, and the queries
  /// run.
  void Restore(
      const std::function<void(std::map<std::string, Table>*)>& install,
      const std::shared_ptr<ResultStore>& results);

  /// Inserts `value` into `column` of `table` as one row, as the statement
  /// `INSERT INTO <table> (<column>) VALUES (<literal>)` would. A string is
  /// the literal '<string>', coerced as the statement coerces it; a
  /// geometry stands for the literal of its WKT, where it must be exactly
  /// what ReadWkt returns for that WKT (geom::NormalizeForWkt). It shares
  /// ExecInsert's row code, so it hits the same engine_stmt/insert and
  /// engine/insert coverage sites, counts in statements_executed, runs the
  /// same CoerceGeometry validity check and returns the same ok, error or
  /// crash, and drops the lent ResultStore as the statement does. It reads
  /// no clock: call it inside TypedLoad, which accounts its time.
  Result<ExecResult> InsertValue(const std::string& table,
                                 const std::string& column, Value value);

  /// Runs `load`, a database load of DDL statements and InsertValue rows,
  /// as one unit of engine time: one pair of thread-CPU reads around it
  /// (each read is a system call, so not a pair per row) feeds
  /// exec_seconds, the engine.typed_load histogram and one engine.typed_load
  /// trace span. The statements it runs take their own reads as usual;
  /// their time is counted once, in the load's. It drops the lent
  /// ResultStore.
  void TypedLoad(const std::function<void()>& load);

  /// State a caller keeps per engine: it lives as long as the engine and
  /// survives Reset. fuzz::LoadDatabase keeps here what it knows of the
  /// SDB1 it loaded last (parsed rows, snapshots, derived forms), a type
  /// derived from this base so the engine needs no fuzz types; the engine
  /// never reads it.
  class SnapshotStore {
   public:
    SnapshotStore() = default;
    SnapshotStore(const SnapshotStore&) = delete;
    SnapshotStore& operator=(const SnapshotStore&) = delete;
    virtual ~SnapshotStore() = default;
  };
  std::unique_ptr<SnapshotStore>& snapshot_store() { return snapshot_store_; }

  /// Test reference knob (engine_test): resizing the cache evicts LRU
  /// entries as needed (0 disables it).
  void set_statement_cache_capacity(size_t capacity);
  size_t statement_cache_size() const { return stmt_cache_.size(); }

  /// Read-only, so a lent ResultStore always describes the tables: they
  /// change only through statements, InsertValue and Restore.
  const std::map<std::string, Table>& tables() const { return tables_; }
  const Table* FindTable(const std::string& name) const;

 private:
  Table* MutableTable(const std::string& name);

  /// Runs one parsed statement; Execute wraps it with the accounting. Each
  /// Exec* compiles the statement's expressions once (compiled_expr.h) and
  /// evaluates them per row or row pair.
  Result<ExecResult> Dispatch(const sql::Statement& stmt);
  Result<ExecResult> ExecCreateTable(const sql::Statement& stmt);
  Result<ExecResult> ExecCreateIndex(const sql::Statement& stmt);
  Result<ExecResult> ExecDropTable(const sql::Statement& stmt);
  Result<ExecResult> ExecInsert(const sql::Statement& stmt);
  /// The row code ExecInsert and InsertValue share. InsertTarget
  /// resolves the table and the target columns (`names` empty: every
  /// column, in order); StoreRow appends one row whose value i, from
  /// `value(i)`, goes to column cols[i], coerced under the dialect's
  /// validity policy when that column holds geometry.
  Result<Table*> InsertTarget(const std::string& table,
                              const std::vector<std::string>& names,
                              std::vector<int>* cols);
  Status StoreRow(Table* table, const std::vector<int>& cols,
                  const std::function<Result<Value>(size_t)>& value);
  Result<ExecResult> ExecSet(const sql::Statement& stmt);
  Result<ExecResult> ExecSelectCountJoin(const sql::Statement& stmt);
  Result<ExecResult> ExecSelectCountWhere(const sql::Statement& stmt);
  Result<ExecResult> ExecSelectScalar(const sql::Statement& stmt);

  /// Fills `candidates` with the row ids of `table`, in row order, that
  /// one index probe admits (IndexAdmitsRow, injected faults inline).
  void CollectIndexCandidates(const Table& table, const geom::Envelope& probe,
                              std::vector<size_t>* candidates);

  Dialect dialect_;
  faults::FaultState faults_;
  EngineStats stats_;
  std::map<std::string, Table> tables_;
  std::map<std::string, Value> variables_;
  sql::StatementCache stmt_cache_;
  std::unique_ptr<SnapshotStore> snapshot_store_;
  std::weak_ptr<ResultStore> results_;  // the lent store (Restore)
};

}  // namespace spatter::engine

#endif  // SPATTER_ENGINE_ENGINE_H_
