#include "obs/metrics.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strings.h"

namespace spatter::obs {

namespace {

// Strict signed decimal on the shared strict unsigned parser: an optional
// '-', then ParseU64's digits, in int64_t range.
Result<int64_t> ParseI64(const std::string& s) {
  const bool neg = !s.empty() && s[0] == '-';
  const uint64_t limit = neg ? uint64_t{1} << 63 : (uint64_t{1} << 63) - 1;
  uint64_t mag = 0;
  if (!ParseU64(neg ? s.substr(1) : s, &mag) || mag > limit) {
    return Status::InvalidArgument("bad i64: '" + s + "'");
  }
  return static_cast<int64_t>(neg ? 0 - mag : mag);
}

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed metrics snapshot: " + what);
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  if (!(seconds > 0.0)) {
    RecordNanos(0);
    return;
  }
  double ns = seconds * 1e9;
  RecordNanos(ns >= 9.2e18 ? UINT64_MAX : static_cast<uint64_t>(ns));
}

void LatencyHistogram::RecordNanos(uint64_t ns) {
  Shard& s = shards_[ThreadSlot() % kShards];
  s.buckets[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum_ns.fetch_add(ns, std::memory_order_relaxed);
}

size_t LatencyHistogram::BucketOf(uint64_t ns) {
  if (ns < 2) {
    return 0;
  }
  size_t b = 63 - static_cast<size_t>(__builtin_clzll(ns));
  return std::min(b, kNumBuckets - 1);
}

double HistogramData::QuantileSeconds(double q) const {
  if (count == 0 || buckets.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then walk buckets until the
  // cumulative count reaches it.
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) {
    rank = 1.0;
  }
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    uint64_t prev = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) >= rank) {
      double low = static_cast<double>(LatencyHistogram::BucketLowNs(i));
      // The last bucket is open-ended; report its lower bound rather than
      // inventing an upper edge.
      if (i + 1 >= LatencyHistogram::kNumBuckets) {
        return low * 1e-9;
      }
      double high = static_cast<double>(LatencyHistogram::BucketLowNs(i + 1));
      double frac = (rank - static_cast<double>(prev)) /
                    static_cast<double>(buckets[i]);
      return (low + (high - low) * frac) * 1e-9;
    }
  }
  return static_cast<double>(
             LatencyHistogram::BucketLowNs(buckets.size() - 1)) *
         1e-9;
}

void HistogramData::Merge(const HistogramData& o) {
  count += o.count;
  sum_ns += o.sum_ns;
  if (o.buckets.empty()) {
    return;
  }
  if (buckets.size() < o.buckets.size()) {
    buckets.resize(o.buckets.size(), 0);
  }
  for (size_t i = 0; i < o.buckets.size(); ++i) {
    buckets[i] += o.buckets[i];
  }
}

void MetricsSnapshot::Merge(const MetricsSnapshot& o) {
  for (const auto& [name, v] : o.counters) {
    counters[name] += v;
  }
  for (const auto& [name, v] : o.gauges) {
    gauges[name] = v;
  }
  for (const auto& [name, h] : o.histograms) {
    histograms[name].Merge(h);
  }
}

std::string MetricsSnapshot::EncodeText() const {
  std::string out(kMetricsTextMagic);
  out.push_back('\n');
  size_t body_lines = 0;
  auto put = [&out, &body_lines](const std::string& line) {
    out.append(line);
    out.push_back('\n');
    ++body_lines;
  };
  char buf[64];
  for (const auto& [name, v] : counters) {
    snprintf(buf, sizeof(buf), " %llu", static_cast<unsigned long long>(v));
    put("c " + name + buf);
  }
  for (const auto& [name, v] : gauges) {
    snprintf(buf, sizeof(buf), " %lld", static_cast<long long>(v));
    put("g " + name + buf);
  }
  for (const auto& [name, h] : histograms) {
    std::string line = "h " + name;
    snprintf(buf, sizeof(buf), " %llu %llu",
             static_cast<unsigned long long>(h.count),
             static_cast<unsigned long long>(h.sum_ns));
    line += buf;
    std::string cells;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) {
        continue;
      }
      if (!cells.empty()) {
        cells.push_back(',');
      }
      snprintf(buf, sizeof(buf), "%zu:%llu", i,
               static_cast<unsigned long long>(h.buckets[i]));
      cells += buf;
    }
    // '-' marks an empty bucket list so the line always has 5 fields.
    line += " " + (cells.empty() ? std::string("-") : cells);
    put(line);
  }
  snprintf(buf, sizeof(buf), "end %zu\n", body_lines);
  out.append(buf);
  return out;
}

Result<MetricsSnapshot> MetricsSnapshot::DecodeText(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (!lines.back().empty()) {
    return Malformed("missing trailing newline");
  }
  lines.pop_back();
  if (lines.size() < 2) {
    return Malformed("truncated document");
  }
  if (lines.front() != kMetricsTextMagic) {
    return Malformed("bad magic '" + lines.front() + "'");
  }
  // Validate the `end <n>` trailer before trusting the body.
  {
    std::vector<std::string> f = Split(lines.back(), ' ');
    if (f.size() != 2 || f[0] != "end") {
      return Malformed("missing end trailer");
    }
    uint64_t n = 0;
    if (!ParseU64(f[1], &n) || n != lines.size() - 2) {
      return Malformed("end trailer count mismatch");
    }
  }
  MetricsSnapshot snap;
  for (size_t li = 1; li + 1 < lines.size(); ++li) {
    std::vector<std::string> f = Split(lines[li], ' ');
    if (std::find(f.begin(), f.end(), "") != f.end()) {
      return Malformed("empty field in line " + std::to_string(li));
    }
    if (f[0] == "c") {
      if (f.size() != 3) {
        return Malformed("counter line arity");
      }
      uint64_t v = 0;
      if (!ParseU64(f[2], &v)) {
        return Malformed("counter value in '" + f[1] + "'");
      }
      if (!snap.counters.emplace(f[1], v).second) {
        return Malformed("duplicate counter '" + f[1] + "'");
      }
    } else if (f[0] == "g") {
      if (f.size() != 3) {
        return Malformed("gauge line arity");
      }
      Result<int64_t> v = ParseI64(f[2]);
      if (!v.ok()) {
        return v.status();
      }
      if (!snap.gauges.emplace(f[1], v.value()).second) {
        return Malformed("duplicate gauge '" + f[1] + "'");
      }
    } else if (f[0] == "h") {
      if (f.size() != 5) {
        return Malformed("histogram line arity");
      }
      HistogramData h;
      if (!ParseU64(f[2], &h.count) || !ParseU64(f[3], &h.sum_ns)) {
        return Malformed("histogram numbers in '" + f[1] + "'");
      }
      h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
      uint64_t bucket_total = 0;
      if (f[4] != "-") {
        size_t prev_idx = 0;
        bool first = true;
        for (const std::string& cell : Split(f[4], ',')) {
          size_t colon = cell.find(':');
          if (colon == std::string::npos) {
            return Malformed("histogram cell '" + cell + "'");
          }
          uint64_t idx = 0;
          uint64_t val = 0;
          if (!ParseU64(cell.substr(0, colon), &idx) ||
              !ParseU64(cell.substr(colon + 1), &val) ||
              idx >= LatencyHistogram::kNumBuckets || val == 0) {
            return Malformed("histogram cell '" + cell + "'");
          }
          if (!first && idx <= prev_idx) {
            return Malformed("histogram buckets out of order");
          }
          first = false;
          prev_idx = idx;
          h.buckets[idx] = val;
          bucket_total += val;
        }
      }
      if (bucket_total != h.count) {
        return Malformed("histogram count/bucket mismatch in '" + f[1] + "'");
      }
      if (!snap.histograms.emplace(f[1], std::move(h)).second) {
        return Malformed("duplicate histogram '" + f[1] + "'");
      }
    } else {
      return Malformed("unknown line kind '" + f[0] + "'");
    }
  }
  return snap;
}

std::string MetricsToJson(const MetricsSnapshot& snapshot,
                          const MetricsJsonInfo& info) {
  std::string out;
  out.reserve(4096);
  out += "{\n";
  AppendF(&out, "  \"schema\": \"%s\",\n", kMetricsJsonSchema);
  out += "  \"label\": ";
  AppendJsonString(&out, info.label);
  out += ",\n";
  AppendF(&out, "  \"seed\": %llu,\n",
          static_cast<unsigned long long>(info.seed));
  AppendF(&out, "  \"fleet\": %llu,\n",
          static_cast<unsigned long long>(info.fleet));
  AppendF(&out, "  \"jobs\": %llu,\n",
          static_cast<unsigned long long>(info.jobs));
  AppendF(&out, "  \"elapsed_seconds\": %.6f,\n", info.elapsed_seconds);

  // Opens the next member of an object: names come from peers' COV
  // frames and checkpoints too, so they are escaped, never printed raw.
  bool first = true;
  const auto member = [&out, &first](const std::string& name) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    out += ": ";
  };
  out += "  \"counters\": {";
  for (const auto& [name, v] : snapshot.counters) {
    member(name);
    AppendF(&out, "%llu", static_cast<unsigned long long>(v));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    member(name);
    AppendF(&out, "%lld", static_cast<long long>(v));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    member(name);
    out += "{\n";
    AppendF(&out, "      \"count\": %llu,\n",
            static_cast<unsigned long long>(h.count));
    AppendF(&out, "      \"sum_ns\": %llu,\n",
            static_cast<unsigned long long>(h.sum_ns));
    AppendF(&out, "      \"mean_us\": %.3f,\n", h.MeanSeconds() * 1e6);
    AppendF(&out, "      \"p50_us\": %.3f,\n", h.QuantileSeconds(0.50) * 1e6);
    AppendF(&out, "      \"p90_us\": %.3f,\n", h.QuantileSeconds(0.90) * 1e6);
    AppendF(&out, "      \"p99_us\": %.3f,\n", h.QuantileSeconds(0.99) * 1e6);
    out += "      \"buckets\": [";
    bool first_cell = true;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) {
        continue;
      }
      AppendF(&out, "%s[%zu, %llu]", first_cell ? "" : ", ", i,
              static_cast<unsigned long long>(h.buckets[i]));
      first_cell = false;
    }
    out += "]\n    }";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"derived\": {";
  first = true;
  for (const auto& [name, v] : info.derived) {
    member(name);
    AppendF(&out, "%.6f", v);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {
std::string SanitizeName(const std::string& name) {
  std::string out = name.empty() ? "_" : name;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      c = '_';
    }
  }
  return out;
}
}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[SanitizeName(name)];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[SanitizeName(name)];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<LatencyHistogram>& slot = histograms_[SanitizeName(name)];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->Value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->Value();
  }
  for (const auto& [name, h] : histograms_) {
    HistogramData d;
    d.buckets.resize(LatencyHistogram::kNumBuckets);
    // Read buckets first, then reconcile count with their sum: a Record()
    // racing the snapshot may have bumped count_ but not yet its bucket
    // (or vice versa), and the codec requires count == Σ buckets.
    uint64_t bucket_total = 0;
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      d.buckets[i] = h->bucket(i);
      bucket_total += d.buckets[i];
    }
    d.count = bucket_total;
    d.sum_ns = h->sum_ns();
    snap.histograms[name] = std::move(d);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    g->Set(0);
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

double ScopedTimer::Now(Clock clock) {
  if (clock == Clock::kThreadCpu) {
    struct timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
  }
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace spatter::obs
