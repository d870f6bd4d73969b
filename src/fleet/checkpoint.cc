#include "fleet/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fsio.h"
#include "common/strings.h"
#include "engine/dialect.h"
#include "fleet/wire.h"

namespace spatter::fleet {

namespace {

// Line keywords of the v3 body. `config` and `counters` appear exactly
// once, `corpus` and `metrics` at most once, `progress` at most once per
// (dialect, slice); the repeatable lines may appear any number of times
// (including zero) in any order after `config`.
constexpr const char kConfig[] = "config";
constexpr const char kCounters[] = "counters";
constexpr const char kProgress[] = "progress";
constexpr const char kBug[] = "bug";
constexpr const char kSites[] = "sites";
constexpr const char kCurve[] = "curve";
constexpr const char kCorpus[] = "corpus";
constexpr const char kMetrics[] = "metrics";
constexpr const char kEnd[] = "end";

/// Keys per `sites` line: bounds line length without bounding set size.
constexpr size_t kSiteChunk = 64;

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("checkpoint: malformed: " + what);
}

/// %.17g: doubles round-trip exactly through the text format, so a
/// restored curve sample re-renders to the identical JSON as the original.
std::string FormatF64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatDialects(const std::vector<engine::Dialect>& dialects) {
  std::string out;
  for (size_t i = 0; i < dialects.size(); ++i) {
    if (i > 0) out += ',';
    out += engine::DialectCliToken(dialects[i]);
  }
  return out;
}

bool ParseDialects(const std::string& csv,
                   std::vector<engine::Dialect>* out) {
  out->clear();
  size_t start = 0;
  while (start <= csv.size()) {
    size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    auto dialect = engine::ParseDialectCliToken(csv.substr(start, end - start));
    if (!dialect.ok()) return false;
    out->push_back(dialect.value());
    start = end + 1;
  }
  return !out->empty();
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kCheckpointFileName).string();
}

std::string EncodeCheckpoint(const CheckpointState& state) {
  std::vector<engine::Dialect> dialects = state.dialects;
  if (dialects.empty()) dialects.push_back(state.base.dialect);

  std::string body;
  size_t lines = 0;
  auto put = [&body, &lines](const std::string& line) {
    body += line;
    body += '\n';
    lines++;
  };
  char buf[256];

  const fuzz::CampaignConfig& base = state.base;
  std::snprintf(buf, sizeof(buf),
                "%s %" PRIu64 " %zu %zu %zu %" PRIu64 " %d %d ", kConfig,
                base.seed, base.iterations, base.queries_per_iteration,
                base.generator.num_geometries, state.total_slices,
                base.enable_faults ? 1 : 0,
                base.generator.derivative_enabled ? 1 : 0);
  put(std::string(buf) + FormatDialects(dialects) + ' ' +
      fuzz::FormatOracleSuite(base.oracles) + ' ' +
      (base.corpus.enabled ? "1" : "0") + ' ' +
      std::to_string(base.corpus.mutate_pct) + ' ' +
      FormatF64(state.duration_seconds));

  std::snprintf(buf, sizeof(buf),
                "%s %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64,
                kCounters, FormatF64(state.elapsed_seconds).c_str(),
                state.iterations_run, state.queries_run, state.checks_run,
                state.findings);
  put(std::string(buf) + ' ' + FormatF64(state.busy_seconds) + ' ' +
      FormatF64(state.engine_seconds));

  for (const auto& [key, count] : state.completed) {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 " %" PRIu64 " %" PRIu64,
                  kProgress, key.first, key.second, count);
    put(buf);
  }

  for (const auto& [id, d] : state.unique_bugs) {
    auto frame = MakeBugFrame(id, d, base.seed);
    if (!frame.ok()) {
      // Dropped, not fatal — but loudly: a missing bug line is a
      // bug-set divergence on resume, which must be diagnosable.
      std::fprintf(stderr,
                   "checkpoint: cannot encode unique bug %u (%s); it will "
                   "be missing from resumed reports unless re-found\n",
                   static_cast<unsigned>(id),
                   frame.status().ToString().c_str());
      continue;
    }
    std::string line = EncodeFrame(frame.value());
    line.pop_back();  // EncodeFrame terminates with '\n'; put() re-adds it
    put(std::string(kBug) + ' ' + line);
  }

  std::vector<uint64_t> chunk;
  chunk.reserve(kSiteChunk);
  for (uint64_t key : state.covered_sites) {
    chunk.push_back(key);
    if (chunk.size() == kSiteChunk) {
      put(std::string(kSites) + ' ' + FormatSiteKeys(chunk));
      chunk.clear();
    }
  }
  if (!chunk.empty()) put(std::string(kSites) + ' ' + FormatSiteKeys(chunk));

  for (const CurveSample& s : state.curve) {
    std::snprintf(buf, sizeof(buf), "%s %s %" PRIu64 " %" PRIu64 " %" PRIu64,
                  kCurve, FormatF64(s.elapsed_seconds).c_str(),
                  s.covered_sites, s.unique_bugs, s.iterations);
    put(buf);
  }

  if (base.corpus.enabled && !state.corpus_dir.empty()) {
    // dir goes last: it may contain spaces, so the parser takes the
    // remainder of the line.
    put(std::string(kCorpus) + ' ' + FormatSiteKeys(state.corpus_signatures) +
        ' ' + state.corpus_dir);
  }

  if (!state.metrics.empty()) {
    // Hex of the metrics text document: keeps this codec line-oriented
    // while the snapshot keeps its own multi-line format and validation.
    const std::string text = state.metrics.EncodeText();
    put(std::string(kMetrics) + ' ' +
        HexEncode(std::vector<uint8_t>(text.begin(), text.end())));
  }

  std::string out = kCheckpointMagic;
  out += '\n';
  out += body;
  out += std::string(kEnd) + ' ' + std::to_string(lines) + '\n';
  return out;
}

Result<CheckpointState> DecodeCheckpoint(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  if (lines.empty()) return Malformed("empty file");
  if (lines[0] != kCheckpointMagic) {
    return Status::InvalidArgument(
        "checkpoint: version skew or not a checkpoint (want '" +
        std::string(kCheckpointMagic) + "', got '" + lines[0] + "')");
  }
  // Truncation check before touching any body line: the trailer must be
  // present and must count the body exactly.
  const std::string& last = lines.back();
  const std::vector<std::string> trailer = Split(last, ' ');
  uint64_t declared = 0;
  if (trailer.size() != 2 || trailer[0] != kEnd ||
      !ParseU64(trailer[1], &declared)) {
    return Malformed("missing end trailer (truncated checkpoint?)");
  }
  if (declared != lines.size() - 2) {
    return Malformed("end trailer count mismatch (truncated checkpoint?)");
  }

  CheckpointState state;
  bool saw_config = false;
  bool saw_counters = false;
  bool saw_corpus = false;
  bool saw_metrics = false;
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::vector<std::string> fields = Split(line, ' ');
    if (fields.empty() || fields[0].empty()) return Malformed("empty line");
    const std::string& kw = fields[0];
    const size_t args = fields.size() - 1;
    auto arg = [&fields](size_t j) -> const std::string& {
      return fields[1 + j];
    };

    if (kw == kConfig) {
      if (saw_config) return Malformed("duplicate config line");
      if (args != 12) return Malformed("config field count");
      fuzz::CampaignConfig& base = state.base;
      uint64_t iterations = 0, queries = 0, geometries = 0, mutate = 0;
      if (!ParseU64(arg(0), &base.seed) || !ParseU64(arg(1), &iterations) ||
          !ParseU64(arg(2), &queries) || !ParseU64(arg(3), &geometries) ||
          !ParseU64(arg(4), &state.total_slices) ||
          !ParseFieldBool01(arg(5), &base.enable_faults) ||
          !ParseFieldBool01(arg(6), &base.generator.derivative_enabled) ||
          !ParseDialects(arg(7), &state.dialects) ||
          !ParseFieldBool01(arg(9), &base.corpus.enabled) ||
          !ParseU64(arg(10), &mutate) || mutate > 100 ||
          !ParseFieldF64(arg(11), &state.duration_seconds) ||
          state.duration_seconds < 0 || state.total_slices == 0) {
        return Malformed("config fields");
      }
      auto oracles = fuzz::ParseOracleSuite(arg(8));
      if (!oracles.ok()) return Malformed("config oracle suite");
      base.oracles = oracles.Take();
      base.iterations = static_cast<size_t>(iterations);
      base.queries_per_iteration = static_cast<size_t>(queries);
      base.generator.num_geometries = static_cast<size_t>(geometries);
      base.corpus.mutate_pct = static_cast<int>(mutate);
      base.dialect = state.dialects.front();
      saw_config = true;
    } else if (kw == kCounters) {
      if (saw_counters) return Malformed("duplicate counters line");
      if (args != 7) return Malformed("counters field count");
      if (!ParseFieldF64(arg(0), &state.elapsed_seconds) ||
          !ParseU64(arg(1), &state.iterations_run) ||
          !ParseU64(arg(2), &state.queries_run) ||
          !ParseU64(arg(3), &state.checks_run) ||
          !ParseU64(arg(4), &state.findings) ||
          !ParseFieldF64(arg(5), &state.busy_seconds) ||
          !ParseFieldF64(arg(6), &state.engine_seconds) ||
          state.elapsed_seconds < 0) {
        return Malformed("counters fields");
      }
      saw_counters = true;
    } else if (kw == kProgress) {
      if (args != 3) return Malformed("progress field count");
      uint64_t dialect = 0, slice = 0, count = 0;
      if (!ParseU64(arg(0), &dialect) || !ParseU64(arg(1), &slice) ||
          !ParseU64(arg(2), &count) ||
          dialect >= static_cast<uint64_t>(engine::kNumDialects)) {
        return Malformed("progress fields");
      }
      // A second mark for one slice would silently re-run or skip work.
      if (!state.completed.try_emplace({dialect, slice}, count).second) {
        return Malformed("duplicate progress line");
      }
    } else if (kw == kBug) {
      if (args < 1) return Malformed("bug field count");
      // The rest of the line is a wire BUG frame (spaces included).
      auto frame = DecodeFrame(line.substr(std::strlen(kBug) + 1));
      if (!frame.ok() || frame.value().type != FrameType::kBug) {
        return Malformed("bug frame");
      }
      auto d = BugFrameToDiscrepancy(frame.value());
      if (!d.ok()) return Malformed("bug payload");
      state.unique_bugs.emplace_back(
          static_cast<faults::FaultId>(frame.value().fault), d.Take());
    } else if (kw == kSites) {
      if (args != 1) return Malformed("sites field count");
      std::vector<uint64_t> keys;
      if (!ParseSiteKeys(arg(0), &keys)) return Malformed("sites keys");
      state.covered_sites.insert(keys.begin(), keys.end());
    } else if (kw == kCurve) {
      if (args != 4) return Malformed("curve field count");
      CurveSample s;
      if (!ParseFieldF64(arg(0), &s.elapsed_seconds) ||
          !ParseU64(arg(1), &s.covered_sites) ||
          !ParseU64(arg(2), &s.unique_bugs) ||
          !ParseU64(arg(3), &s.iterations)) {
        return Malformed("curve fields");
      }
      state.curve.push_back(s);
    } else if (kw == kCorpus) {
      if (saw_corpus) return Malformed("duplicate corpus line");
      if (args < 2) return Malformed("corpus field count");
      saw_corpus = true;
      if (!ParseSiteKeys(arg(0), &state.corpus_signatures)) {
        return Malformed("corpus manifest");
      }
      // dir = everything after the second space (it may contain spaces).
      const size_t dir_at = line.find(' ', kw.size() + 1) + 1;
      state.corpus_dir = line.substr(dir_at);
      if (state.corpus_dir.empty()) return Malformed("corpus dir");
    } else if (kw == kMetrics) {
      if (saw_metrics) return Malformed("duplicate metrics line");
      if (args != 1) return Malformed("metrics field count");
      saw_metrics = true;
      auto bytes = HexDecode(arg(0));
      if (!bytes.ok()) return Malformed("metrics hex");
      auto snapshot = obs::MetricsSnapshot::DecodeText(
          std::string(bytes.value().begin(), bytes.value().end()));
      if (!snapshot.ok()) return Malformed("metrics snapshot");
      state.metrics = snapshot.Take();
    } else {
      return Malformed("unknown line keyword '" + kw + "'");
    }
  }
  if (!saw_config) return Malformed("missing config line");
  if (!saw_counters) return Malformed("missing counters line");
  return state;
}

Status WriteCheckpoint(const std::string& dir,
                       const CheckpointState& state) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("checkpoint: cannot create dir '" + dir +
                            "': " + ec.message());
  }
  return AtomicWriteFile(CheckpointPath(dir), EncodeCheckpoint(state));
}

Result<CheckpointState> LoadCheckpoint(const std::string& dir) {
  const std::string path = CheckpointPath(dir);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("checkpoint: no checkpoint at '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("checkpoint: cannot read '" + path + "'");
  }
  return DecodeCheckpoint(text.str());
}

}  // namespace spatter::fleet
