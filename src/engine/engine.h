// The embedded spatial SQL engine: tables of geometries, an envelope index
// scan, a prepared-geometry join path, per-dialect function surface, and
// injected-fault hooks at the code sites where the paper's bugs lived.
#ifndef SPATTER_ENGINE_ENGINE_H_
#define SPATTER_ENGINE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
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
  Result<ExecResult> Execute(const sql::Statement& stmt);
  /// Executes a ';'-separated script, returning the last result. Stops at
  /// the first error.
  Result<ExecResult> ExecuteScript(const std::string& script);

  /// Drops all tables and session variables. Fault configuration and
  /// statistics are preserved, and so are the statement cache (parsing is
  /// a pure function of the text) and the snapshot store, from which
  /// fuzz::LoadDatabase restores a database it has loaded before instead
  /// of re-running its DDL and row inserts.
  void Reset();

  /// Replaces the database without running a statement: Reset, then
  /// `install` fills the empty table map with copied rows. This is how a
  /// recorded load is restored (fuzz::LoadDatabase): statements_executed
  /// does not move, but the call's thread CPU time counts toward
  /// exec_seconds and is one sample of the engine.restore histogram and
  /// one engine.restore trace span.
  void Restore(
      const std::function<void(std::map<std::string, Table>*)>& install);

  /// Inserts `value` into `column` of `table` as one row, as the statement
  /// `INSERT INTO <table> (<column>) VALUES (<literal>)` would. A string is
  /// the literal '<string>', coerced as the statement coerces it; a
  /// geometry stands for the literal of its WKT, where it must be exactly
  /// what ReadWkt returns for that WKT (geom::NormalizeForWkt). It shares
  /// ExecInsert's row code, so it hits the same engine_stmt/insert and
  /// engine/insert coverage sites, counts in statements_executed, runs the
  /// same CoerceGeometry validity check and returns the same ok, error or
  /// crash. It reads no clock: call it inside TypedLoad, which accounts its
  /// time.
  Result<ExecResult> InsertValue(const std::string& table,
                                 const std::string& column, Value value);

  /// Runs `load`, a database load of DDL statements and InsertValue rows,
  /// as one unit of engine time: one pair of thread-CPU reads around it
  /// (each read is a system call, so not a pair per row) feeds
  /// exec_seconds, the engine.typed_load histogram and one engine.typed_load
  /// trace span. The statements it runs take their own reads as usual;
  /// their time is counted once, in the load's.
  void TypedLoad(const std::function<void()>& load);

  /// State a caller keeps per engine: it lives as long as the engine and
  /// survives Reset. fuzz::LoadDatabase keeps what it knows of the
  /// databases it loaded here (parsed rows, snapshots, derived forms),
  /// behind this base so the engine needs no fuzz types; the engine never
  /// reads it.
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

  const std::map<std::string, Table>& tables() const { return tables_; }
  Table* FindTable(const std::string& name);

 private:
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
};

}  // namespace spatter::engine

#endif  // SPATTER_ENGINE_ENGINE_H_
