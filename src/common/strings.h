// Small string helpers shared across modules.
#ifndef SPATTER_COMMON_STRINGS_H_
#define SPATTER_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spatter {

/// Formats a double the way WKT expects: shortest round-trip form, no
/// trailing zeros, "-0" normalized to "0".
std::string FormatCoord(double v);

/// ASCII upper-casing (locale independent).
std::string ToUpperAscii(std::string s);

/// True if `s` equals `expect` ignoring ASCII case.
bool EqualsIgnoreCase(const std::string& s, const std::string& expect);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` at every `sep`, keeping empty fields: "a,,b" is three
/// fields and "" is one. The text codecs print one separator between
/// fields, so an empty field is a spelling their decoders reject.
std::vector<std::string> Split(const std::string& s, char sep);

/// Appends printf-formatted text to `*out`, however long it is.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Appends `s` as a JSON string literal: quoted, with '"', '\\' and every
/// byte below 0x20 escaped (the last as \\u00XX).
void AppendJsonString(std::string* out, const std::string& s);

/// True for a name the SQL lexer reads back as one identifier, verbatim: a
/// letter or '_', then letters, digits and '_'. A table name must be one,
/// or a statement naming it names another table ("t3 " reads as "t3").
bool IsPlainIdentifier(const std::string& s);

/// Strict unsigned decimal: `s` must be one or more ASCII digits whose
/// value fits in 64 bits. No sign, whitespace, or trailing characters, so
/// "", "abc", "12x", "-1" and 2^64 are all rejected. On success stores the
/// value in `*out`; on failure leaves it untouched.
bool ParseU64(const std::string& s, uint64_t* out);

}  // namespace spatter

#endif  // SPATTER_COMMON_STRINGS_H_
