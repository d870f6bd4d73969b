#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/coverage.h"
#include "common/strings.h"
#include "engine/compiled_expr.h"
#include "engine/functions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relate/prepared.h"
#include "sql/parser.h"

namespace spatter::engine {

using faults::FaultId;
using geom::Geometry;

namespace {

/// Behaviour-class coverage for join predicates — the greybox corpus's
/// admission signal. A site per (predicate, content feature) pair records
/// WHAT kind of inputs a query exercised, not just that the predicate ran;
/// rare combinations ("ST_Crosses over large coordinates", "ST_Touches
/// against a nested collection") are exactly the neighbourhoods the
/// catalog's bugs live in, so keeping and mutating the databases that
/// first reach them is what makes coverage guidance correlate with fault
/// discovery. Runs once per join statement (not per pair): ~a dozen
/// registry hits against ~10^2 pair evaluations.
struct ContentFeatures {
  bool types[7] = {};
  bool empty = false;
  bool nested = false;
  bool fractional = false;
  bool large = false;
  bool negative = false;
};

void ClassifyGeometry(const Geometry& g, int depth, ContentFeatures* f) {
  f->types[static_cast<int>(g.type())] = true;
  if (g.IsEmpty()) f->empty = true;
  if (geom::IsCollectionType(g.type())) {
    if (depth > 0) f->nested = true;
    for (const auto& e : geom::AsCollection(g).elements()) {
      ClassifyGeometry(*e, depth + 1, f);
    }
    return;
  }
  geom::ForEachBasic(g, [f](const Geometry& basic) {
    auto coord = [f](const geom::Coord& c) {
      for (double v : {c.x, c.y}) {
        // trunc-compare, not an int64 cast: mutation lineages can scale
        // coordinates past 2^63, where the cast is undefined behaviour.
        if (std::trunc(v) != v) f->fractional = true;
        if (v <= -100 || v >= 100) f->large = true;
        if (v < 0) f->negative = true;
      }
    };
    switch (basic.type()) {
      case geom::GeomType::kPoint:
        if (!basic.IsEmpty()) coord(*geom::AsPoint(basic).coord());
        break;
      case geom::GeomType::kLineString:
        for (const auto& p : geom::AsLineString(basic).points()) coord(p);
        break;
      case geom::GeomType::kPolygon:
        for (const auto& ring : geom::AsPolygon(basic).rings()) {
          for (const auto& p : ring) coord(p);
        }
        break;
      default:
        break;
    }
  });
}

// `fn` is the join's predicate, null for `~=`.
void CoverJoinBehaviour(const FunctionDef* fn, const Table& t1,
                        const Table& t2) {
  ContentFeatures f;
  for (const Table* t : {&t1, &t2}) {
    if (t->geometry_column < 0) continue;
    for (const Row& row : t->rows) {
      const Value& v = row[t->geometry_column];
      if (v.kind() == Value::Kind::kGeometry && v.geometry()) {
        ClassifyGeometry(*v.geometry(), 0, &f);
      }
    }
  }
  // Registration takes the global registry mutex and builds strings, so
  // the 12 site indices per predicate are resolved once per thread, in a
  // table indexed by the predicate's place in AllFunctions() (`~=` takes
  // the slot past the end); steady-state cost is relaxed increments.
  static constexpr int kFeatureSites = 12;
  using Sites = std::array<size_t, kFeatureSites>;
  static thread_local std::vector<std::optional<Sites>> site_cache(
      AllFunctions().size() + 1);
  std::optional<Sites>& cached =
      site_cache[fn != nullptr ? fn - AllFunctions().data()
                               : AllFunctions().size()];
  if (!cached) {
    const std::string func = fn != nullptr ? fn->name : "~=";
    auto& registry = CoverageRegistry::Instance();
    Sites sites;
    for (int t = 0; t < 7; ++t) {
      sites[t] = registry.Register(
          "behaviour",
          func + "/" + geom::GeomTypeName(static_cast<geom::GeomType>(t)));
    }
    sites[7] = registry.Register("behaviour", func + "/empty");
    sites[8] = registry.Register("behaviour", func + "/nested");
    sites[9] = registry.Register("behaviour", func + "/fractional");
    sites[10] = registry.Register("behaviour", func + "/large");
    sites[11] = registry.Register("behaviour", func + "/negative");
    cached = sites;
  }
  const Sites& sites = *cached;
  auto& registry = CoverageRegistry::Instance();
  for (int t = 0; t < 7; ++t) {
    if (f.types[t]) registry.Hit(sites[t]);
  }
  if (f.empty) registry.Hit(sites[7]);
  if (f.nested) registry.Hit(sites[8]);
  if (f.fractional) registry.Hit(sites[9]);
  if (f.large) registry.Hit(sites[10]);
  if (f.negative) registry.Hit(sites[11]);
}

}  // namespace

namespace {

// 256 statements comfortably hold one iteration's working set: the count
// queries and their rewrites, the generator's derive statements, and the
// DDL of each database fuzz::LoadDatabase builds a snapshot of (its rows
// go in as values, Engine::InsertValue). Reloads restore the snapshot and
// look nothing up.
constexpr size_t kStatementCacheCapacity = 256;

// Compiles and evaluates an expression that reads no row: an INSERT value,
// a SET value, a scalar SELECT item, an index probe's literal.
Result<Value> EvalWithoutRows(const sql::Expr& expr, const FunctionContext& ctx,
                              const std::map<std::string, Value>& variables) {
  CompiledExpr compiled =
      CompiledExpr::Compile(expr, Scope(), ctx.dialect, variables);
  SPATTER_ASSIGN_OR_RETURN(const Value* v, compiled.Eval(ctx, RowBinding{}));
  return *v;
}

}  // namespace

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (EqualsIgnoreCase(column_names[i], name)) return static_cast<int>(i);
  }
  return -1;
}

std::string ExecResult::ToString() const {
  switch (kind) {
    case Kind::kNone:
      return "OK";
    case Kind::kCount:
      return "{" + std::to_string(count) + "}";
    case Kind::kRows: {
      std::string out = "{";
      for (size_t r = 0; r < rows.size(); ++r) {
        if (r > 0) out += "; ";
        for (size_t c = 0; c < rows[r].size(); ++c) {
          if (c > 0) out += ",";
          out += rows[r][c].ToDisplayString();
        }
      }
      return out + "}";
    }
  }
  return "?";
}

Engine::Engine(Dialect dialect, bool enable_faults)
    : dialect_(dialect),
      faults_(DefaultFaultStateFor(dialect, enable_faults)),
      stmt_cache_(kStatementCacheCapacity) {}

void Engine::Reset() {
  tables_.clear();
  variables_.clear();
  results_.reset();
}

void Engine::Restore(
    const std::function<void(std::map<std::string, Table>*)>& install,
    const std::shared_ptr<ResultStore>& results) {
  static obs::LatencyHistogram* restore_hist =
      obs::MetricsRegistry::Instance().GetHistogram("engine.restore");
  // Accounted like a statement (Execute), on the thread CPU clock.
  const double start =
      obs::ScopedTimer::Now(obs::ScopedTimer::Clock::kThreadCpu);
  obs::ScopedTraceSpan restore_span("engine.restore");
  Reset();
  install(&tables_);
  results_ = results;
  const double seconds =
      obs::ScopedTimer::Now(obs::ScopedTimer::Clock::kThreadCpu) - start;
  stats_.exec_seconds += seconds;
  restore_hist->Record(seconds);
}

void Engine::TypedLoad(const std::function<void()>& load) {
  static obs::LatencyHistogram* load_hist =
      obs::MetricsRegistry::Instance().GetHistogram("engine.typed_load");
  const double start =
      obs::ScopedTimer::Now(obs::ScopedTimer::Clock::kThreadCpu);
  obs::ScopedTraceSpan load_span("engine.typed_load");
  const double exec_before = stats_.exec_seconds;
  results_.reset();
  load();
  const double seconds =
      obs::ScopedTimer::Now(obs::ScopedTimer::Clock::kThreadCpu) - start;
  // The statements inside `load` added their own time; the load's replaces
  // it, so each second counts once.
  stats_.exec_seconds = exec_before + seconds;
  load_hist->Record(seconds);
}

void Engine::set_statement_cache_capacity(size_t capacity) {
  stmt_cache_.SetCapacity(capacity);
}

const Table* Engine::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Engine::MutableTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Result<ExecResult> Engine::Execute(const std::string& sql) {
  static obs::LatencyHistogram* parse_hist =
      obs::MetricsRegistry::Instance().GetHistogram("engine.parse");
  // Statement cache: parsing is a pure function of the text, so a hit
  // replays the cached AST and skips the parser entirely. Strictly
  // passive — the executed statement is identical either way.
  if (stmt_cache_.capacity() > 0) {
    if (std::shared_ptr<const sql::Statement> cached =
            stmt_cache_.Lookup(sql)) {
      SPATTER_METRIC_INC("engine.stmt_cache.hit");
      return Execute(*cached);
    }
  }
  sql::StatementPtr stmt;
  {
    obs::ScopedTimer t(parse_hist, obs::ScopedTimer::Clock::kThreadCpu);
    SPATTER_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(sql));
  }
  if (stmt_cache_.capacity() > 0) {
    SPATTER_METRIC_INC("engine.stmt_cache.miss");
    // Keep a reference across Execute: an eviction storm must never free
    // the statement out from under the executor.
    std::shared_ptr<const sql::Statement> shared = std::move(stmt);
    if (stmt_cache_.Insert(sql, shared)) {
      SPATTER_METRIC_INC("engine.stmt_cache.evict");
    }
    SPATTER_METRIC_GAUGE_SET("engine.stmt_cache.size", stmt_cache_.size());
    return Execute(*shared);
  }
  return Execute(*stmt);
}

Result<ExecResult> Engine::ExecuteScript(const std::string& script) {
  SPATTER_ASSIGN_OR_RETURN(std::vector<sql::StatementPtr> stmts,
                           sql::ParseScript(script));
  ExecResult last;
  for (const auto& stmt : stmts) {
    SPATTER_ASSIGN_OR_RETURN(last, Execute(*stmt));
  }
  return last;
}

namespace {

const char* StatementKindName(sql::Statement::Kind kind) {
  switch (kind) {
    case sql::Statement::Kind::kCreateTable:
      return "create_table";
    case sql::Statement::Kind::kCreateIndex:
      return "create_index";
    case sql::Statement::Kind::kDropTable:
      return "drop_table";
    case sql::Statement::Kind::kInsert:
      return "insert";
    case sql::Statement::Kind::kSet:
      return "set";
    case sql::Statement::Kind::kSelectCountJoin:
      return "select_count_join";
    case sql::Statement::Kind::kSelectCountWhere:
      return "select_count_where";
    case sql::Statement::Kind::kSelectScalar:
      return "select_scalar";
  }
  return "unknown";
}

constexpr size_t kStatementKinds =
    static_cast<size_t>(sql::Statement::Kind::kSelectScalar) + 1;

// The "engine_stmt" coverage site of `kind`. Every kind registers on the
// first call, so the coverage denominator counts all statement kinds,
// executed or not.
size_t StatementCoverageSite(sql::Statement::Kind kind) {
  static const std::array<size_t, kStatementKinds> sites = [] {
    std::array<size_t, kStatementKinds> out{};
    for (size_t k = 0; k < kStatementKinds; ++k) {
      out[k] = CoverageRegistry::Instance().Register(
          "engine_stmt",
          StatementKindName(static_cast<sql::Statement::Kind>(k)));
    }
    return out;
  }();
  return sites[static_cast<size_t>(kind)];
}

// The engine.statement.<kind> histogram of `kind`, registered on the first
// statement of that kind, so a metrics dump lists only kinds that ran.
obs::LatencyHistogram* StatementKindHistogram(sql::Statement::Kind kind) {
  static std::array<std::atomic<obs::LatencyHistogram*>, kStatementKinds>
      hists{};
  std::atomic<obs::LatencyHistogram*>& slot =
      hists[static_cast<size_t>(kind)];
  obs::LatencyHistogram* hist = slot.load(std::memory_order_acquire);
  if (hist == nullptr) {
    hist = obs::MetricsRegistry::Instance().GetHistogram(
        std::string("engine.statement.") + StatementKindName(kind));
    slot.store(hist, std::memory_order_release);
  }
  return hist;
}

}  // namespace

Result<ExecResult> Engine::Execute(const sql::Statement& stmt) {
  static obs::LatencyHistogram* stmt_hist =
      obs::MetricsRegistry::Instance().GetHistogram("engine.statement");
  stats_.statements_executed++;
  CoverageRegistry::Instance().Hit(StatementCoverageSite(stmt.kind));
  std::shared_ptr<ResultStore> results;
  std::string key;
  if (stmt.kind == sql::Statement::Kind::kSelectCountJoin ||
      stmt.kind == sql::Statement::Kind::kSelectCountWhere) {
    results = results_.lock();
  } else if (stmt.kind != sql::Statement::Kind::kSelectScalar) {
    results_.reset();  // the statement may change the tables or variables
  }
  if (results) {
    const uint64_t mask = faults_.EnabledMask();
    key.assign(reinterpret_cast<const char*>(&mask), sizeof(mask));
    sql::AppendKey(stmt, &key);
    const auto it = results->entries_.find(key);
    if (it != results->entries_.end()) {
      SPATTER_METRIC_INC("engine.result_store.replay");
      it->second.effects.Replay(&faults_);
      return it->second.result;
    }
  }
  // Engine time is read on the per-thread CPU clock, once on entry and
  // once on exit, and feeds the Figure-7 exec_seconds account and the
  // engine.statement and engine.statement.<kind> histograms. CPU time, not
  // wall: a statement must not bill time the OS scheduled the worker out,
  // or the SDBMS share inflates whenever --jobs oversubscribes the cores.
  const double start =
      obs::ScopedTimer::Now(obs::ScopedTimer::Clock::kThreadCpu);
  obs::ScopedTraceSpan stmt_span("engine.statement",
                                 StatementKindName(stmt.kind));
  faults::Effects effects;
  Result<ExecResult> result =
      results ? effects.Record(&faults_, [&] { return Dispatch(stmt); })
              : Dispatch(stmt);
  if (results) {
    SPATTER_METRIC_INC("engine.result_store.record");
    results->entries_.emplace(std::move(key),
                              ResultStore::Entry{result, std::move(effects)});
  }
  const double seconds =
      obs::ScopedTimer::Now(obs::ScopedTimer::Clock::kThreadCpu) - start;
  stats_.exec_seconds += seconds;
  stmt_hist->Record(seconds);
  StatementKindHistogram(stmt.kind)->Record(seconds);
  return result;
}

Result<ExecResult> Engine::Dispatch(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateTable:
      return ExecCreateTable(stmt);
    case sql::Statement::Kind::kCreateIndex:
      return ExecCreateIndex(stmt);
    case sql::Statement::Kind::kDropTable:
      return ExecDropTable(stmt);
    case sql::Statement::Kind::kInsert:
      return ExecInsert(stmt);
    case sql::Statement::Kind::kSet:
      return ExecSet(stmt);
    case sql::Statement::Kind::kSelectCountJoin:
      return ExecSelectCountJoin(stmt);
    case sql::Statement::Kind::kSelectCountWhere:
      return ExecSelectCountWhere(stmt);
    case sql::Statement::Kind::kSelectScalar:
      return ExecSelectScalar(stmt);
  }
  return Status::Internal("unhandled statement kind");
}

Result<ExecResult> Engine::ExecCreateTable(const sql::Statement& stmt) {
  if (tables_.count(stmt.table) > 0) {
    return Status::InvalidArgument("table '" + stmt.table +
                                   "' already exists");
  }
  Table table;
  for (const auto& col : stmt.columns) {
    table.column_names.push_back(col.name);
    table.column_types.push_back(col.type);
    if (EqualsIgnoreCase(col.type, "geometry") &&
        table.geometry_column < 0) {
      table.geometry_column =
          static_cast<int>(table.column_names.size()) - 1;
    }
  }
  tables_.emplace(stmt.table, std::move(table));
  SPATTER_COV("engine", "create_table");
  return ExecResult{};
}

Result<ExecResult> Engine::ExecCreateIndex(const sql::Statement& stmt) {
  Table* table = MutableTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }
  if (table->geometry_column < 0 ||
      !EqualsIgnoreCase(stmt.columns[0].name,
                        table->column_names[table->geometry_column])) {
    return Status::InvalidArgument("index column is not the geometry column");
  }
  table->has_index = true;
  SPATTER_COV("engine", "create_index");
  return ExecResult{};
}

Result<ExecResult> Engine::ExecDropTable(const sql::Statement& stmt) {
  if (tables_.erase(stmt.table) == 0) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }
  return ExecResult{};
}

Result<Table*> Engine::InsertTarget(const std::string& table,
                                    const std::vector<std::string>& names,
                                    std::vector<int>* cols) {
  Table* target = MutableTable(table);
  if (target == nullptr) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  cols->clear();
  if (names.empty()) {
    for (size_t i = 0; i < target->column_names.size(); ++i) {
      cols->push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& name : names) {
      const int idx = target->ColumnIndex(name);
      if (idx < 0) {
        return Status::NotFound("unknown column '" + name + "'");
      }
      cols->push_back(idx);
    }
  }
  return target;
}

Status Engine::StoreRow(Table* table, const std::vector<int>& cols,
                        const std::function<Result<Value>(size_t)>& value) {
  const FunctionContext ctx{dialect_, &faults_};
  Row row(table->column_names.size(), Value::Null());
  for (size_t i = 0; i < cols.size(); ++i) {
    SPATTER_ASSIGN_OR_RETURN(Value v, value(i));
    const int col = cols[i];
    if (EqualsIgnoreCase(table->column_types[col], "geometry")) {
      SPATTER_ASSIGN_OR_RETURN(v, CoerceGeometry(ctx, v));
    }
    row[col] = std::move(v);
  }
  table->rows.push_back(std::move(row));
  return Status::OK();
}

Result<ExecResult> Engine::ExecInsert(const sql::Statement& stmt) {
  std::vector<int> cols;
  SPATTER_ASSIGN_OR_RETURN(Table * table,
                           InsertTarget(stmt.table, stmt.insert_cols, &cols));
  const FunctionContext ctx{dialect_, &faults_};
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != cols.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    SPATTER_RETURN_NOT_OK(StoreRow(table, cols, [&](size_t i) {
      return EvalWithoutRows(*row_exprs[i], ctx, variables_);
    }));
  }
  SPATTER_COV("engine", "insert");
  return ExecResult{};
}

Result<ExecResult> Engine::InsertValue(const std::string& table,
                                       const std::string& column,
                                       Value value) {
  // What Execute does around a statement, less the clock (TypedLoad's).
  stats_.statements_executed++;
  CoverageRegistry::Instance().Hit(
      StatementCoverageSite(sql::Statement::Kind::kInsert));
  results_.reset();
  std::vector<int> cols;
  SPATTER_ASSIGN_OR_RETURN(Table * target,
                           InsertTarget(table, {column}, &cols));
  SPATTER_RETURN_NOT_OK(StoreRow(
      target, cols, [&](size_t) -> Result<Value> { return std::move(value); }));
  SPATTER_COV("engine", "insert");
  return ExecResult{};
}

Result<ExecResult> Engine::ExecSet(const sql::Statement& stmt) {
  const FunctionContext ctx{dialect_, &faults_};
  SPATTER_ASSIGN_OR_RETURN(Value v,
                           EvalWithoutRows(*stmt.set_value, ctx, variables_));
  variables_[stmt.set_name] = std::move(v);
  SPATTER_COV("engine", "set_variable");
  return ExecResult{};
}

namespace {

// Index-scan candidate filter with the two injected index bugs.
bool IndexAdmitsRow(const faults::FaultState& faults,
                    const geom::Envelope& probe,
                    const geom::Envelope& row_env, bool row_empty) {
  if (faults.IsEnabled(FaultId::kPostgisGistEmptySameAs)) {
    // Injected bug (paper Listing 8): EMPTY rows and rows whose envelope
    // collapses onto the origin never come back from the GiST scan.
    const bool degenerate_at_origin =
        !row_env.IsNull() && row_env.min_x() == 0 && row_env.max_x() == 0 &&
        row_env.min_y() == 0 && row_env.max_y() == 0;
    if (row_empty || degenerate_at_origin) {
      faults.Fire(FaultId::kPostgisGistEmptySameAs);
      return false;
    }
  }
  if (row_empty || row_env.IsNull()) return true;  // evaluate exactly.
  if (probe.IsNull()) return true;
  geom::Envelope q = probe;
  if (faults.IsEnabled(FaultId::kMysqlWithinIndexGrid)) {
    const double mag =
        std::max({std::fabs(q.min_x()), std::fabs(q.max_x()),
                  std::fabs(q.min_y()), std::fabs(q.max_y())});
    if (mag >= 512.0) {
      // Injected bug: the pre-filter snaps the probe envelope DOWN onto a
      // coarse grid, losing candidates near the upper cell edges.
      auto snap = [](double v) { return std::floor(v / 64.0) * 64.0; };
      geom::Envelope snapped(snap(q.min_x()), snap(q.min_y()),
                             snap(q.max_x()), snap(q.max_y()));
      const bool admits = snapped.Intersects(row_env);
      if (!admits && q.Intersects(row_env)) {
        faults.Fire(FaultId::kMysqlWithinIndexGrid);
      }
      return admits;
    }
  }
  return q.Intersects(row_env);
}

}  // namespace

void Engine::CollectIndexCandidates(const Table& table,
                                    const geom::Envelope& probe,
                                    std::vector<size_t>* candidates) {
  candidates->clear();
  const int gcol = table.geometry_column;
  if (gcol < 0) return;
  // Row order is part of the scan's behaviour: the shortcut fault keeps
  // the FIRST candidate and the join dedup fault keys off CONSECUTIVE
  // matches.
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const Value& gv = table.rows[r][gcol];
    if (gv.kind() != Value::Kind::kGeometry || !gv.geometry()) continue;
    const Geometry& g = *gv.geometry();
    if (IndexAdmitsRow(faults_, probe, g.GetEnvelope(), g.IsEmpty())) {
      candidates->push_back(r);
    }
  }
}

namespace {

using PreparedPredicate = Result<bool> (relate::PreparedGeometry::*)(
    const Geometry&, const faults::FaultState*) const;

// The PreparedGeometry member that evaluates `fn`, or null when PostGIS
// prepares no form of it.
PreparedPredicate PreparedPredicateOf(const FunctionDef& fn) {
  if (std::strcmp(fn.name, "ST_Intersects") == 0) {
    return &relate::PreparedGeometry::Intersects;
  }
  if (std::strcmp(fn.name, "ST_Contains") == 0) {
    return &relate::PreparedGeometry::Contains;
  }
  if (std::strcmp(fn.name, "ST_Covers") == 0) {
    return &relate::PreparedGeometry::Covers;
  }
  return nullptr;
}

// True when the join predicate `fn` (null for `~=`) admits an envelope
// pre-filter.
bool AdmitsIndexScan(const FunctionDef* fn) {
  if (fn == nullptr) return true;
  for (const char* name : {"ST_Intersects", "ST_Within", "ST_Contains",
                           "ST_Covers", "ST_CoveredBy", "ST_Equals"}) {
    if (std::strcmp(fn->name, name) == 0) return true;
  }
  return false;
}

}  // namespace

Result<ExecResult> Engine::ExecSelectCountJoin(const sql::Statement& stmt) {
  const Table* t1 = FindTable(stmt.table);
  const Table* t2 = FindTable(stmt.table2);
  if (t1 == nullptr || t2 == nullptr) {
    return Status::NotFound("unknown table in join");
  }
  static obs::LatencyHistogram* plan_hist =
      obs::MetricsRegistry::Instance().GetHistogram("engine.plan");

  // Planned once per statement: the compiled condition and outer filter,
  // and the paths the pairs take.
  std::optional<CompiledExpr> cond;
  std::optional<CompiledExpr> filter;
  PreparedPredicate prepared_fn = nullptr;
  bool index_path = false;
  {
    obs::ScopedTimer plan_timer(plan_hist, obs::ScopedTimer::Clock::kThreadCpu);
    Scope scope;
    scope.Bind(stmt.table, *t1);
    // A self-join binds only the outer row.
    if (stmt.table2 != stmt.table) scope.Bind(stmt.table2, *t2);
    cond.emplace(
        CompiledExpr::Compile(*stmt.condition, scope, dialect_, variables_));
    if (stmt.filter1) {
      filter.emplace(CompiledExpr::Compile(
          *stmt.filter1, Scope().Bind(stmt.table, *t1), dialect_, variables_));
    }
    const FunctionDef* fn = nullptr;
    if (cond->IsColumnPredicate(stmt.table, stmt.table2, &fn)) {
      CoverJoinBehaviour(fn, *t1, *t2);
      // Prepared-geometry path: PostGIS prepares the outer geometry when
      // the same predicate is evaluated against many inner candidates.
      if (fn != nullptr && traits().uses_prepared && t2->rows.size() >= 2) {
        prepared_fn = PreparedPredicateOf(*fn);
      }
      // Index path: inner table has a GiST index and the predicate admits
      // an envelope pre-filter.
      index_path = t2->has_index && AdmitsIndexScan(fn);
    }
  }

  const FunctionContext ctx{dialect_, &faults_};
  const int gcol1 = t1->geometry_column;
  const int gcol2 = t2->geometry_column;
  int64_t count = 0;
  std::vector<size_t> candidates;  // reused across outer rows
  RowBinding rows{};
  for (const Row& row1 : t1->rows) {
    rows[0] = &row1;
    // Derived-table filter on the outer side (the EET push-through-subquery
    // form): rows whose filter does not evaluate TRUE never reach the pair
    // loop; filter errors follow the per-pair convention below.
    if (filter) {
      auto fv = filter->Eval(ctx, RowBinding{&row1, nullptr});
      if (!fv.ok()) {
        if (EndsStatement(fv.status())) return fv.status();
        continue;
      }
      if (fv.value()->kind() != Value::Kind::kBool ||
          !fv.value()->bool_value()) {
        continue;
      }
    }
    std::optional<relate::PreparedGeometry> prepared;
    const Geometry* outer_geom = nullptr;
    if ((prepared_fn != nullptr || index_path) && gcol1 >= 0) {
      const Value& gv = row1[gcol1];
      if (gv.kind() == Value::Kind::kGeometry) outer_geom = gv.geometry().get();
    }
    if (prepared_fn != nullptr && outer_geom != nullptr) {
      prepared.emplace(*outer_geom);
    }

    // Candidate rows of t2, via one index probe per outer row.
    if (index_path && outer_geom != nullptr) {
      SPATTER_COV("engine", "join_index_scan");
      stats_.index_scans++;
      const geom::Envelope probe = outer_geom->GetEnvelope();
      CollectIndexCandidates(*t2, probe, &candidates);
      if (candidates.size() > 1 &&
          faults_.IsEnabled(FaultId::kInjectedIndexScanShortcut)) {
        // Injected bug (recall gate): the index scan returns only its
        // first hit, silently dropping every later candidate.
        faults_.Fire(FaultId::kInjectedIndexScanShortcut);
        candidates.resize(1);
      }
    } else {
      candidates.resize(t2->rows.size());
      for (size_t r = 0; r < candidates.size(); ++r) candidates[r] = r;
    }

    bool prev_matched = false;
    for (size_t r : candidates) {
      const Row& row2 = t2->rows[r];
      stats_.pairs_evaluated++;
      bool matched;
      if (prepared && gcol2 >= 0 &&
          row2[gcol2].kind() == Value::Kind::kGeometry) {
        SPATTER_COV("engine", "join_prepared_path");
        stats_.prepared_evaluations++;
        Result<bool> pr =
            ((*prepared).*prepared_fn)(*row2[gcol2].geometry(), &faults_);
        if (!pr.ok()) return pr.status();
        matched = pr.value();
      } else {
        rows[1] = &row2;
        Result<const Value*> v = cond->Eval(ctx, rows);
        if (!v.ok()) {
          // A per-pair semantic error reads as UNKNOWN and is not counted.
          if (EndsStatement(v.status())) return v.status();
          prev_matched = false;
          continue;
        }
        matched = v.value()->kind() == Value::Kind::kBool &&
                  v.value()->bool_value();
      }
      if (matched) {
        if (prev_matched &&
            faults_.IsEnabled(FaultId::kInjectedJoinDedupDrop)) {
          // Injected bug (recall gate): a bogus dedup pass drops the
          // second of two consecutive matching candidates.
          faults_.Fire(FaultId::kInjectedJoinDedupDrop);
          prev_matched = false;
          continue;
        }
        count++;
        prev_matched = true;
      } else {
        prev_matched = false;
      }
    }
  }
  ExecResult out;
  out.kind = ExecResult::Kind::kCount;
  out.count = count;
  SPATTER_COV("engine", "select_count_join");
  return out;
}

Result<ExecResult> Engine::ExecSelectCountWhere(const sql::Statement& stmt) {
  const Table* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }
  const FunctionContext ctx{dialect_, &faults_};
  int64_t count = 0;
  // Index path for `g ~= <literal>` scans (the paper Listing 8 shape).
  const sql::Expr* cond = stmt.condition.get();
  bool index_scan = false;
  geom::Envelope probe;
  if (cond != nullptr && cond->kind == sql::Expr::Kind::kSameAs &&
      t->has_index &&
      cond->args[0]->kind == sql::Expr::Kind::kColumnRef) {
    auto v = EvalWithoutRows(*cond->args[1], ctx, variables_);
    if (v.ok()) {
      auto g = CoerceGeometry(ctx, v.value());
      if (g.ok() && g.value().kind() == Value::Kind::kGeometry) {
        probe = g.value().geometry()->GetEnvelope();
        index_scan = true;
      }
    }
  }
  // The probe itself: one index_scans bump per probe, the same unit as the
  // join path.
  std::vector<char> admitted;
  if (index_scan) {
    SPATTER_COV("engine", "where_index_scan");
    stats_.index_scans++;
    std::vector<size_t> candidates;
    CollectIndexCandidates(*t, probe, &candidates);
    admitted.assign(t->rows.size(), 0);
    for (size_t r : candidates) admitted[r] = 1;
  }
  std::optional<CompiledExpr> where;
  if (cond != nullptr) {
    where.emplace(CompiledExpr::Compile(*cond, Scope().Bind(stmt.table, *t),
                                        dialect_, variables_));
  }
  for (size_t r = 0; r < t->rows.size(); ++r) {
    const Row& row = t->rows[r];
    if (!where) {
      count++;
      continue;
    }
    if (index_scan && t->geometry_column >= 0 &&
        row[t->geometry_column].kind() == Value::Kind::kGeometry &&
        !admitted[r]) {
      continue;
    }
    auto v = where->Eval(ctx, RowBinding{&row, nullptr});
    if (!v.ok()) {
      if (EndsStatement(v.status())) return v.status();
      continue;
    }
    if (v.value()->kind() == Value::Kind::kBool && v.value()->bool_value()) {
      count++;
    }
  }
  ExecResult out;
  out.kind = ExecResult::Kind::kCount;
  out.count = count;
  SPATTER_COV("engine", "select_count_where");
  return out;
}

Result<ExecResult> Engine::ExecSelectScalar(const sql::Statement& stmt) {
  const FunctionContext ctx{dialect_, &faults_};
  Row row;
  for (const auto& e : stmt.select_list) {
    SPATTER_ASSIGN_OR_RETURN(Value v, EvalWithoutRows(*e, ctx, variables_));
    row.push_back(std::move(v));
  }
  ExecResult out;
  out.kind = ExecResult::Kind::kRows;
  out.rows.push_back(std::move(row));
  SPATTER_COV("engine", "select_scalar");
  return out;
}

}  // namespace spatter::engine
