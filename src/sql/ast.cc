#include "sql/ast.h"

#include <cstring>

namespace spatter::sql {

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->text = text;
  out->number = number;
  out->bool_value = bool_value;
  out->table = table;
  out->name = name;
  out->args.reserve(args.size());
  for (const auto& a : args) out->args.push_back(a->Clone());
  return out;
}

ExprPtr Expr::String(std::string s) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kStringLiteral;
  e->text = std::move(s);
  return e;
}

ExprPtr Expr::Number(double v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNumberLiteral;
  e->number = v;
  return e;
}

ExprPtr Expr::Bool(bool v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBoolLiteral;
  e->bool_value = v;
  return e;
}

ExprPtr Expr::Var(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kVarRef;
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::Column(std::string table, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumnRef;
  e->table = std::move(table);
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kFuncCall;
  e->name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::Cast(ExprPtr inner) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kCastGeometry;
  e->args.push_back(std::move(inner));
  return e;
}

ExprPtr Expr::MakeSameAs(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kSameAs;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr inner) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNot;
  e->args.push_back(std::move(inner));
  return e;
}

ExprPtr Expr::MakeIsUnknown(ExprPtr inner) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kIsUnknown;
  e->args.push_back(std::move(inner));
  return e;
}

ExprPtr Expr::MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAnd;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeOr(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kOr;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

namespace {

// The key is a prefix code: every size and count comes before what it
// sizes, so no two field sequences encode alike.
void AppendSize(size_t n, std::string* key) {
  do {
    const char low = static_cast<char>(n & 0x7f);
    n >>= 7;
    key->push_back(n != 0 ? static_cast<char>(low | 0x80) : low);
  } while (n != 0);
}

void AppendText(const std::string& text, std::string* key) {
  AppendSize(text.size(), key);
  key->append(text);
}

// A null expression is tag 0; an expression is its kind + 1, then its
// fields.
void AppendExpr(const Expr* e, std::string* key) {
  if (e == nullptr) {
    key->push_back(0);
    return;
  }
  key->push_back(static_cast<char>(static_cast<int>(e->kind) + 1));
  AppendText(e->text, key);
  char bits[sizeof(double)];
  std::memcpy(bits, &e->number, sizeof(bits));
  key->append(bits, sizeof(bits));
  key->push_back(e->bool_value ? 1 : 0);
  AppendText(e->table, key);
  AppendText(e->name, key);
  AppendSize(e->args.size(), key);
  for (const ExprPtr& arg : e->args) AppendExpr(arg.get(), key);
}

}  // namespace

void AppendKey(const Statement& stmt, std::string* key) {
  key->push_back(static_cast<char>(stmt.kind));
  AppendText(stmt.table, key);
  AppendText(stmt.table2, key);
  AppendText(stmt.index_name, key);
  AppendSize(stmt.columns.size(), key);
  for (const Statement::ColumnDef& col : stmt.columns) {
    AppendText(col.name, key);
    AppendText(col.type, key);
  }
  AppendSize(stmt.insert_cols.size(), key);
  for (const std::string& col : stmt.insert_cols) AppendText(col, key);
  AppendSize(stmt.rows.size(), key);
  for (const std::vector<ExprPtr>& row : stmt.rows) {
    AppendSize(row.size(), key);
    for (const ExprPtr& e : row) AppendExpr(e.get(), key);
  }
  AppendText(stmt.set_name, key);
  AppendExpr(stmt.set_value.get(), key);
  AppendExpr(stmt.condition.get(), key);
  AppendExpr(stmt.filter1.get(), key);
  AppendSize(stmt.select_list.size(), key);
  for (const ExprPtr& e : stmt.select_list) AppendExpr(e.get(), key);
}

}  // namespace spatter::sql
