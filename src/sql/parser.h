// SQL tokenizer and recursive-descent parser for the Spatter subset.
#ifndef SPATTER_SQL_PARSER_H_
#define SPATTER_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"

namespace spatter::sql {

/// Parses a single statement (trailing ';' optional).
Result<StatementPtr> ParseStatement(const std::string& text);

/// Parses a ';'-separated script into statements; empty fragments are
/// skipped, "--" comments run to end of line.
Result<std::vector<StatementPtr>> ParseScript(const std::string& text);

/// Renders a statement back to SQL; the output parses back to an
/// equivalent statement. fuzz::QuerySpec::ToSql prints queries through it
/// for reproducers and reports; the tests read it too (decoder_fuzz_test's
/// parse -> print -> parse fixed point, eet_test's variant checks).
std::string PrintStatement(const Statement& stmt);

/// Renders an expression back to SQL.
std::string PrintExpr(const Expr& expr);

}  // namespace spatter::sql

#endif  // SPATTER_SQL_PARSER_H_
