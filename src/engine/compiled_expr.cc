#include "engine/compiled_expr.h"

#include "common/coverage.h"

namespace spatter::engine {

using faults::FaultId;

bool EndsStatement(const Status& status) {
  const StatusCode code = status.code();
  return code == StatusCode::kCrash || code == StatusCode::kUnsupported ||
         code == StatusCode::kNotFound;
}

namespace {

// A column reference's slot and column index in `scope`.
Status ResolveColumn(const sql::Expr& expr, const Scope& scope, int* slot,
                     int* column) {
  if (!expr.table.empty()) {
    for (int s = 0; s < scope.size; ++s) {
      if (*scope.alias[s] != expr.table) continue;
      *column = scope.table[s]->ColumnIndex(expr.name);
      if (*column < 0) {
        return Status::NotFound("unknown column '" + expr.name + "'");
      }
      *slot = s;
      return Status::OK();
    }
    return Status::NotFound("unknown table alias '" + expr.table + "'");
  }
  if (scope.size == 1) {
    *column = scope.table[0]->ColumnIndex(expr.name);
    if (*column >= 0) {
      *slot = 0;
      return Status::OK();
    }
  }
  return Status::NotFound("cannot resolve column '" + expr.name + "'");
}

}  // namespace

CompiledExpr CompiledExpr::Compile(
    const sql::Expr& expr, const Scope& scope, Dialect dialect,
    const std::map<std::string, Value>& variables) {
  CompiledExpr out;
  out.expr_ = &expr;
  switch (expr.kind) {
    case sql::Expr::Kind::kStringLiteral:
      out.value_ = Value::String(expr.text);
      break;
    case sql::Expr::Kind::kNumberLiteral:
      out.value_ = expr.number == static_cast<int64_t>(expr.number)
                       ? Value::Int(static_cast<int64_t>(expr.number))
                       : Value::Double(expr.number);
      break;
    case sql::Expr::Kind::kBoolLiteral:
      out.value_ = Value::Bool(expr.bool_value);
      break;
    case sql::Expr::Kind::kVarRef: {
      auto it = variables.find("@" + expr.name);
      if (it == variables.end()) {
        out.error_ =
            Status::NotFound("unknown variable '@" + expr.name + "'");
      } else {
        out.value_ = it->second;
      }
      break;
    }
    case sql::Expr::Kind::kColumnRef:
      out.op_ = Op::kColumn;
      out.error_ = ResolveColumn(expr, scope, &out.slot_, &out.column_);
      break;
    case sql::Expr::Kind::kFuncCall: {
      out.op_ = Op::kCall;
      Result<const FunctionDef*> fn = ResolveFunction(expr.name, dialect);
      if (!fn.ok()) {
        out.error_ = fn.status();
        out.fn_ = FindFunction(expr.name);
        break;
      }
      out.fn_ = fn.value();
      const int argc = static_cast<int>(expr.args.size());
      if (argc < out.fn_->min_args || argc > out.fn_->max_args) {
        out.error_ = Status::InvalidArgument("wrong argument count for " +
                                             std::string(out.fn_->name));
      }
      out.site_ = FunctionCoverageSite(*out.fn_);
      out.argv_.resize(expr.args.size());
      break;
    }
    case sql::Expr::Kind::kCastGeometry:
      out.op_ = Op::kCast;
      break;
    case sql::Expr::Kind::kSameAs:
      out.op_ = Op::kSameAs;
      break;
    case sql::Expr::Kind::kNot:
      out.op_ = Op::kNot;
      break;
    case sql::Expr::Kind::kIsUnknown:
      out.op_ = Op::kIsUnknown;
      break;
    case sql::Expr::Kind::kAnd:
      out.op_ = Op::kAnd;
      break;
    case sql::Expr::Kind::kOr:
      out.op_ = Op::kOr;
      break;
  }
  out.args_.reserve(expr.args.size());
  for (const auto& arg : expr.args) {
    out.args_.push_back(Compile(*arg, scope, dialect, variables));
  }
  return out;
}

Result<const Value*> CompiledExpr::Store(Result<Value> v) {
  if (!v.ok()) return v.status();
  value_ = v.Take();
  return &value_;
}

Result<std::optional<bool>> CompiledExpr::Truth(const FunctionContext& ctx,
                                                const RowBinding& rows) {
  Result<const Value*> v = Eval(ctx, rows);
  if (!v.ok()) {
    if (EndsStatement(v.status())) return v.status();
    return std::optional<bool>();
  }
  const Value& value = *v.value();
  if (value.is_null()) return std::optional<bool>();
  if (value.kind() != Value::Kind::kBool) {
    return Status::InvalidArgument("AND/OR expects booleans");
  }
  return std::optional<bool>(value.bool_value());
}

Result<const Value*> CompiledExpr::Eval(const FunctionContext& ctx,
                                        const RowBinding& rows) {
  if (!error_.ok()) return error_;
  switch (op_) {
    case Op::kValue:
      return &value_;
    case Op::kColumn:
      return &(*rows[slot_])[column_];
    case Op::kCall: {
      for (size_t i = 0; i < args_.size(); ++i) {
        SPATTER_ASSIGN_OR_RETURN(argv_[i], args_[i].Eval(ctx, rows));
      }
      CoverageRegistry::Instance().Hit(site_);
      return Store(fn_->impl(ctx, ArgList(argv_.data(), argv_.size())));
    }
    case Op::kCast: {
      SPATTER_ASSIGN_OR_RETURN(const Value* inner, args_[0].Eval(ctx, rows));
      return Store(CoerceGeometry(ctx, *inner));
    }
    case Op::kSameAs: {
      SPATTER_ASSIGN_OR_RETURN(const Value* lhs, args_[0].Eval(ctx, rows));
      SPATTER_ASSIGN_OR_RETURN(const Value* rhs, args_[1].Eval(ctx, rows));
      return Store(EvalSameAs(ctx, *lhs, *rhs));
    }
    case Op::kNot: {
      SPATTER_ASSIGN_OR_RETURN(const Value* inner, args_[0].Eval(ctx, rows));
      if (inner->is_null()) return Store(Value::Null());
      if (inner->kind() != Value::Kind::kBool) {
        return Status::InvalidArgument("NOT expects a boolean");
      }
      return Store(Value::Bool(!inner->bool_value()));
    }
    case Op::kIsUnknown: {
      // Three-valued logic: predicate errors other than crashes surface as
      // UNKNOWN, which is what TLP's third partition counts.
      Result<const Value*> inner = args_[0].Eval(ctx, rows);
      if (!inner.ok()) {
        if (inner.status().code() == StatusCode::kCrash) {
          return inner.status();
        }
        return Store(Value::Bool(true));
      }
      return Store(Value::Bool(inner.value()->is_null()));
    }
    case Op::kAnd:
    case Op::kOr: {
      // Kleene three-valued AND/OR. Both operands are evaluated (no
      // short-circuit) so missing functions/operators still fail the whole
      // statement; a per-operand semantic error reads as UNKNOWN, matching
      // the join loop's per-pair convention.
      SPATTER_ASSIGN_OR_RETURN(std::optional<bool> a,
                               args_[0].Truth(ctx, rows));
      SPATTER_ASSIGN_OR_RETURN(std::optional<bool> b,
                               args_[1].Truth(ctx, rows));
      std::optional<bool> out;
      if (op_ == Op::kAnd) {
        if ((a && !*a) || (b && !*b)) out = false;
        else if (a && b) out = true;
      } else {
        if ((a && *a) || (b && *b)) out = true;
        else if (a && b) out = false;
      }
      if (out && ctx.faults != nullptr &&
          ctx.faults->IsEnabled(FaultId::kInjectedConjunctionSignFlip)) {
        // Injected bug (EET recall gate): the AND/OR evaluator flips every
        // two-valued result. Only EET-rewritten predicates contain AND/OR,
        // so only the EET oracle can observe the flip.
        ctx.faults->Fire(FaultId::kInjectedConjunctionSignFlip);
        out = !*out;
      }
      return Store(out ? Value::Bool(*out) : Value::Null());
    }
  }
  return Status::Internal("unhandled expression kind");
}

bool CompiledExpr::IsColumnPredicate(const std::string& q1,
                                     const std::string& q2,
                                     const FunctionDef** fn) const {
  if (op_ != Op::kSameAs &&
      (op_ != Op::kCall || fn_ == nullptr || !fn_->is_predicate)) {
    return false;
  }
  if (expr_->args.size() < 2) return false;
  const sql::Expr& a = *expr_->args[0];
  const sql::Expr& b = *expr_->args[1];
  if (a.kind != sql::Expr::Kind::kColumnRef ||
      b.kind != sql::Expr::Kind::kColumnRef || a.table != q1 ||
      b.table != q2) {
    return false;
  }
  *fn = fn_;
  return true;
}

}  // namespace spatter::engine
