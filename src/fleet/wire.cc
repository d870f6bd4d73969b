#include "fleet/wire.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "corpus/codec.h"

namespace spatter::fleet {

namespace {

constexpr const char kMagic[] = "SPTW1";

const char* kTypeNames[] = {"INFLIGHT", "SLICEPROGRESS", "COV",
                            "ENTRY",    "BUG",           "DONE",
                            "NETHELLO", "ASSIGN",        "BYE"};

}  // namespace

bool ParseFieldF64(const std::string& s, double* out) {
  // strtod alone would also take "nan", "inf", hex, a leading '+' and
  // leading whitespace; screen the token against the printed grammar
  // first, and refuse what overflows to infinity.
  size_t i = 0;
  const auto digits = [&] {
    const size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (!digits()) return false;
  if (i < s.size() && s[i] == '.' && (++i, !digits())) return false;
  if (i < s.size() && s[i] == 'e') {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  if (i != s.size()) return false;
  const double value = std::strtod(s.c_str(), nullptr);
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseFieldBool01(const std::string& s, bool* out) {
  if (s == "0") return *out = false, true;
  if (s == "1") return *out = true, true;
  return false;
}

namespace {

std::string FormatF64(double v) {
  // %.6f prints every integer digit, over 300 of them near DBL_MAX.
  std::string out;
  AppendF(&out, "%.6f", v);
  return out;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("wire: malformed frame: ") +
                                 what);
}

}  // namespace

std::string FormatSiteKeys(const std::vector<uint64_t>& keys) {
  if (keys.empty()) return "-";
  std::string out;
  char buf[24];
  for (size_t i = 0; i < keys.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%016" PRIx64, i == 0 ? "" : ",",
                  keys[i]);
    out += buf;
  }
  return out;
}

bool ParseSiteKeys(const std::string& s, std::vector<uint64_t>* out) {
  out->clear();
  if (s == "-") return true;
  for (const std::string& tok : Split(s, ',')) {
    if (tok.size() != 16) return false;
    uint64_t key = 0;
    for (char c : tok) {
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else {
        return false;
      }
      key = (key << 4) | static_cast<uint64_t>(digit);
    }
    out->push_back(key);
  }
  return true;
}

const char* FrameTypeName(FrameType t) {
  return kTypeNames[static_cast<size_t>(t)];
}

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Result<std::vector<uint8_t>> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("wire: odd-length hex payload");
  }
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int value = 0;
    for (size_t j = i; j < i + 2; ++j) {
      const char c = hex[j];
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else {
        return Status::InvalidArgument("wire: non-hex character in payload");
      }
      value = (value << 4) | digit;
    }
    out.push_back(static_cast<uint8_t>(value));
  }
  return out;
}

std::string EncodeFrame(const Frame& frame) {
  std::string line = kMagic;
  line += ' ';
  line += FrameTypeName(frame.type);
  auto put_u = [&line](uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), " %" PRIu64, v);
    line += buf;
  };
  auto put_f = [&line](double v) { line += ' ' + FormatF64(v); };
  switch (frame.type) {
    case FrameType::kInflight:
      put_u(frame.dialect);
      put_u(frame.slice);
      break;
    case FrameType::kSliceProgress:
      put_u(frame.dialect);
      put_u(frame.slice);
      put_u(frame.completed);
      put_u(frame.queries);
      put_u(frame.checks);
      put_u(frame.findings);
      put_f(frame.busy_seconds);
      put_f(frame.engine_seconds);
      break;
    case FrameType::kCov: {
      line += ' ' + FormatSiteKeys(frame.site_keys);
      const std::string text = frame.metrics.EncodeText();
      line += ' ' + HexEncode(std::vector<uint8_t>(text.begin(), text.end()));
      break;
    }
    case FrameType::kEntry:
      line += ' ' + HexEncode(frame.payload);
      break;
    case FrameType::kBug:
      put_u(frame.fault);
      put_u(frame.query_index);
      put_u(frame.is_crash ? 1 : 0);
      line += ' ' + HexEncode(std::vector<uint8_t>(frame.detail.begin(),
                                                   frame.detail.end()));
      line += ' ' + HexEncode(frame.payload);
      break;
    case FrameType::kNetHello:
      put_u(frame.proto);
      break;
    case FrameType::kAssign:
      put_u(frame.worker);
      line += ' ' + HexEncode(frame.payload);
      break;
    case FrameType::kDone:
    case FrameType::kBye:
      break;
  }
  line += '\n';
  return line;
}

namespace {

Result<Frame> DecodeFrameImpl(const std::string& line) {
  if (line.size() > kMaxFrameBytes) return Malformed("oversized frame");
  if (line.find('\0') != std::string::npos) {
    return Malformed("NUL byte in frame");
  }
  std::string body = line;
  if (!body.empty() && body.back() == '\n') body.pop_back();
  if (!body.empty() && body.back() == '\r') body.pop_back();
  const std::vector<std::string> fields = Split(body, ' ');
  if (fields.size() > kMaxFrameFields) return Malformed("too many fields");
  if (fields.size() < 2 || fields[0] != kMagic) return Malformed("bad magic");

  Frame frame;
  bool known = false;
  for (size_t t = 0; t < sizeof(kTypeNames) / sizeof(kTypeNames[0]); ++t) {
    if (fields[1] == kTypeNames[t]) {
      frame.type = static_cast<FrameType>(t);
      known = true;
      break;
    }
  }
  if (!known) return Malformed("unknown type");

  const auto args = fields.size() - 2;
  auto arg = [&fields](size_t i) -> const std::string& {
    return fields[2 + i];
  };
  switch (frame.type) {
    case FrameType::kInflight:
      if (args != 2) return Malformed("INFLIGHT field count");
      if (!ParseU64(arg(0), &frame.dialect) ||
          !ParseU64(arg(1), &frame.slice)) {
        return Malformed("INFLIGHT fields");
      }
      if (frame.dialect >= static_cast<uint64_t>(engine::kNumDialects)) {
        return Malformed("INFLIGHT dialect out of range");
      }
      break;
    case FrameType::kSliceProgress:
      if (args != 8) return Malformed("SLICEPROGRESS field count");
      if (!ParseU64(arg(0), &frame.dialect) ||
          !ParseU64(arg(1), &frame.slice) ||
          !ParseU64(arg(2), &frame.completed) ||
          !ParseU64(arg(3), &frame.queries) ||
          !ParseU64(arg(4), &frame.checks) ||
          !ParseU64(arg(5), &frame.findings) ||
          !ParseFieldF64(arg(6), &frame.busy_seconds) ||
          !ParseFieldF64(arg(7), &frame.engine_seconds)) {
        return Malformed("SLICEPROGRESS fields");
      }
      if (frame.dialect >= static_cast<uint64_t>(engine::kNumDialects)) {
        return Malformed("SLICEPROGRESS dialect out of range");
      }
      break;
    case FrameType::kCov: {
      if (args != 2) return Malformed("COV field count");
      if (!ParseSiteKeys(arg(0), &frame.site_keys)) {
        return Malformed("COV fields");
      }
      auto payload = HexDecode(arg(1));
      if (!payload.ok()) return payload.status();
      const std::vector<uint8_t> bytes = payload.Take();
      auto snapshot = obs::MetricsSnapshot::DecodeText(
          std::string(bytes.begin(), bytes.end()));
      if (!snapshot.ok()) return snapshot.status();
      frame.metrics = snapshot.Take();
      break;
    }
    case FrameType::kEntry: {
      if (args != 1) return Malformed("ENTRY field count");
      auto payload = HexDecode(arg(0));
      if (!payload.ok()) return payload.status();
      frame.payload = payload.Take();
      break;
    }
    case FrameType::kBug: {
      if (args != 5) return Malformed("BUG field count");
      if (!ParseU64(arg(0), &frame.fault) ||
          !ParseU64(arg(1), &frame.query_index) ||
          !ParseFieldBool01(arg(2), &frame.is_crash)) {
        return Malformed("BUG fields");
      }
      if (frame.fault >= static_cast<uint64_t>(faults::FaultId::kNumFaults)) {
        return Malformed("BUG fault out of range");
      }
      auto detail = HexDecode(arg(3));
      if (!detail.ok()) return detail.status();
      const std::vector<uint8_t> detail_bytes = detail.Take();
      frame.detail.assign(detail_bytes.begin(), detail_bytes.end());
      auto payload = HexDecode(arg(4));
      if (!payload.ok()) return payload.status();
      frame.payload = payload.Take();
      break;
    }
    case FrameType::kDone:
      if (args != 0) return Malformed("DONE field count");
      break;
    case FrameType::kNetHello:
      // Every version's NETHELLO starts with its version; what follows is
      // that version's layout (5 sent a pid), so skew decodes and is
      // answered with BYE instead of a silent protocol error.
      if (args < 1 || !ParseU64(arg(0), &frame.proto)) {
        return Malformed("NETHELLO fields");
      }
      if (frame.proto == kNetProtocolVersion && args != 1) {
        return Malformed("NETHELLO field count");
      }
      break;
    case FrameType::kAssign: {
      if (args != 2) return Malformed("ASSIGN field count");
      if (!ParseU64(arg(0), &frame.worker)) {
        return Malformed("ASSIGN fields");
      }
      auto payload = HexDecode(arg(1));
      if (!payload.ok()) return payload.status();
      frame.payload = payload.Take();
      break;
    }
    case FrameType::kBye:
      if (args != 0) return Malformed("BYE field count");
      break;
  }
  return frame;
}

}  // namespace

Result<Frame> DecodeFrame(const std::string& line) {
  auto result = DecodeFrameImpl(line);
  // Every rejection — bad magic, torn line, hostile payload — lands in
  // one counter so a fleet operator can see a misbehaving peer at a
  // glance (`wire.rejected` in the metrics snapshot).
  if (!result.ok()) SPATTER_METRIC_INC("wire.rejected");
  return result;
}

Result<Frame> MakeBugFrame(faults::FaultId id, const fuzz::Discrepancy& d,
                           uint64_t master_seed) {
  auto encoded =
      corpus::TestCaseCodec::Encode(fuzz::ReproducerOf(d, master_seed));
  if (!encoded.ok()) return encoded.status();

  Frame frame;
  frame.type = FrameType::kBug;
  frame.fault = static_cast<uint64_t>(id);
  frame.query_index = d.query_index;
  frame.is_crash = d.is_crash;
  frame.detail = d.detail;
  frame.payload = encoded.Take();
  return frame;
}

Result<fuzz::Discrepancy> BugFrameToDiscrepancy(const Frame& frame) {
  auto decoded = corpus::TestCaseCodec::Decode(frame.payload);
  if (!decoded.ok()) return decoded.status();
  fuzz::Discrepancy d = fuzz::FindingOf(decoded.value());
  if (d.fault_hits.count(static_cast<faults::FaultId>(frame.fault)) == 0) {
    return Status::InvalidArgument(
        "wire: BUG fault is not among its record's fault ids");
  }
  d.query_index = frame.query_index;
  d.is_crash = frame.is_crash;
  d.detail = frame.detail;
  return d;
}

}  // namespace spatter::fleet
