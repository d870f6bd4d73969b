#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace spatter {

std::string FormatCoord(double v) {
  if (v == 0.0) return "0";  // also normalizes -0.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  return std::string(buf, ptr);
}

std::string ToUpperAscii(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

bool EqualsIgnoreCase(const std::string& s, const std::string& expect) {
  if (s.size() != expect.size()) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(s[i])) !=
        std::toupper(static_cast<unsigned char>(expect[i]))) {
      return false;
    }
  }
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t end = s.find(sep, start);
    out.push_back(s.substr(start, end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

void AppendF(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_list again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const size_t at = out->size();
    out->resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[at], static_cast<size_t>(n) + 1, fmt, again);
    out->resize(at + static_cast<size_t>(n));
  }
  va_end(again);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out->push_back(static_cast<char>(c));
    }
  }
  out->push_back('"');
}

bool IsPlainIdentifier(const std::string& s) {
  // The SQL lexer's identifier rule (sql/parser.cc).
  if (s.empty() ||
      !(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace spatter
