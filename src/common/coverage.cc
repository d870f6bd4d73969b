#include "common/coverage.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace spatter {

CoverageRegistry& CoverageRegistry::Instance() {
  static CoverageRegistry registry;
  return registry;
}

namespace {
uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

size_t CoverageRegistry::Register(const std::string& module,
                                  const std::string& point) {
  const std::string key = module + "/" + point;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const size_t idx = points_.size();
  if (idx >= kMaxPoints) {
    std::fprintf(stderr,
                 "coverage: more than %zu registered points; raise "
                 "CoverageRegistry::kMaxPoints\n",
                 kMaxPoints);
    std::abort();
  }
  points_.push_back(Point{module, point, Fnv1a64(key)});
  index_.emplace(key, idx);
  return idx;
}

uint64_t CoverageRegistry::Hits(size_t index) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.hits[index].load(std::memory_order_relaxed);
  }
  return total;
}

void CoverageRegistry::ResetHits() { RestoreHits({}); }

std::vector<uint32_t> CoverageRegistry::NewSitesSince(
    const std::vector<uint64_t>& snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> out;
  for (size_t i = 0; i < points_.size(); ++i) {
    const uint64_t before = i < snapshot.size() ? snapshot[i] : 0;
    if (Hits(i) > before) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

namespace {
/// The calling thread's active trace (null when off) and its active
/// captures, innermost last.
thread_local std::vector<uint32_t>* trace_sink = nullptr;
thread_local std::vector<std::vector<CoverageRegistry::SiteHits>*>
    capture_sinks;
thread_local std::vector<uint32_t> trace_storage;
/// Epoch mark per site: trace_seen[i] == trace_epoch iff site i is
/// already in trace_storage for the current trace. Bumping the epoch on
/// BeginTrace resets all marks in O(1).
thread_local std::vector<uint32_t> trace_seen;
thread_local uint32_t trace_epoch = 0;
}  // namespace

void CoverageRegistry::BeginTrace() {
  trace_storage.clear();
  if (trace_seen.size() < kMaxPoints) trace_seen.resize(kMaxPoints, 0);
  if (++trace_epoch == 0) {  // epoch wrapped: clear stale marks
    std::fill(trace_seen.begin(), trace_seen.end(), 0);
    trace_epoch = 1;
  }
  trace_sink = &trace_storage;
  tapped_ = true;
}

std::vector<uint32_t> CoverageRegistry::TakeTrace() {
  trace_sink = nullptr;
  tapped_ = !capture_sinks.empty();
  std::sort(trace_storage.begin(), trace_storage.end());
  return std::move(trace_storage);
}

void CoverageRegistry::BeginCapture(std::vector<SiteHits>* out) {
  out->clear();
  capture_sinks.push_back(out);
  tapped_ = true;
}

void CoverageRegistry::EndCapture() {
  capture_sinks.pop_back();
  tapped_ = trace_sink != nullptr || !capture_sinks.empty();
}

void CoverageRegistry::Tap(uint32_t index, uint64_t n) {
  if (trace_sink != nullptr && trace_seen[index] != trace_epoch) {
    trace_seen[index] = trace_epoch;
    trace_sink->push_back(index);
  }
  for (std::vector<SiteHits>* sink : capture_sinks) {
    auto it = std::find_if(sink->begin(), sink->end(), [index](const auto& s) {
      return s.site == index;
    });
    if (it != sink->end()) {
      it->count += n;
    } else {
      sink->push_back({index, n});
    }
  }
}

std::vector<uint64_t> CoverageRegistry::KeysCoveredSince(
    const std::vector<uint64_t>& snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < points_.size(); ++i) {
    const uint64_t before = i < snapshot.size() ? snapshot[i] : 0;
    if (Hits(i) > before) {
      keys.push_back(points_[i].key);
    }
  }
  return keys;
}

std::vector<uint64_t> CoverageRegistry::KeysOf(
    const std::vector<uint32_t>& indices,
    const std::set<std::string>& exclude_modules) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> keys;
  keys.reserve(indices.size());
  for (uint32_t i : indices) {
    if (i >= points_.size()) continue;
    if (exclude_modules.count(points_[i].module) > 0) continue;
    keys.push_back(points_[i].key);
  }
  return keys;
}

size_t CoverageRegistry::TotalPoints(const std::string& module) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (module.empty()) return points_.size();
  size_t n = 0;
  for (const auto& p : points_) {
    if (p.module == module) n++;
  }
  return n;
}

size_t CoverageRegistry::HitPoints(const std::string& module) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (!covered_[i].load(std::memory_order_relaxed)) continue;
    if (module.empty() || points_[i].module == module) n++;
  }
  return n;
}

double CoverageRegistry::Percent(const std::string& module) const {
  // Single lock acquisition: counting hit and total in two separate
  // locked calls could interleave with a concurrent registration and
  // report > 100% mid-campaign.
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  size_t hit = 0;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (!module.empty() && points_[i].module != module) continue;
    total++;
    if (covered_[i].load(std::memory_order_relaxed)) hit++;
  }
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(hit) / static_cast<double>(total);
}

std::vector<CoverageRegistry::ModuleSummary> CoverageRegistry::Summaries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, ModuleSummary> by_module;
  for (size_t i = 0; i < points_.size(); ++i) {
    auto& s = by_module[points_[i].module];
    s.module = points_[i].module;
    s.total++;
    if (covered_[i].load(std::memory_order_relaxed)) s.hit++;
  }
  std::vector<ModuleSummary> out;
  out.reserve(by_module.size());
  for (auto& [_, s] : by_module) out.push_back(s);
  return out;
}

std::vector<uint64_t> CoverageRegistry::SnapshotHits() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) out[i] = Hits(i);
  return out;
}

void CoverageRegistry::RestoreHits(const std::vector<uint64_t>& hits) {
  std::lock_guard<std::mutex> lock(mu_);
  // Shard 0 takes each restored count; the other shards start from zero.
  size_t covered = 0;
  for (size_t i = 0; i < points_.size(); ++i) {
    const uint64_t n = i < hits.size() ? hits[i] : 0;
    for (size_t s = 0; s < kShards; ++s) {
      shards_[s].hits[i].store(s == 0 ? n : 0, std::memory_order_relaxed);
    }
    covered_[i].store(n > 0, std::memory_order_relaxed);
    if (n > 0) covered++;
  }
  covered_count_.store(covered, std::memory_order_relaxed);
}

}  // namespace spatter
