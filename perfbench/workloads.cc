#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/rng.h"
#include "faults/fault.h"
#include "fuzz/oracle_suite.h"

namespace spatter::perfbench {

const std::vector<Workload>& Workloads() {
  // A round is a fraction of a second, so a run covers many universes.
  // The round-0 pinned lines are the CLI's output for one round's flags at
  // kDefaultSeed; the all-rounds ones cover a whole default-length run.
  static const std::vector<Workload> kWorkloads = {
      {"aei-n40", "aei", 40, 1, 1, 50, 0.9, 6,
       "geos_gc_boundary_last_one_wins,geos_gc_empty_element_intersects,"
       "postgis_dfullywithin_definition,postgis_gist_empty_same_as,"
       "duckdb_crash_collection_extract_empty,duckdb_crash_geometry_n_zero,"
       "duckdb_crash_force_cw_collection,duckdb_intersects_envelope_only,"
       "mysql_overlaps_swapped_axes,mysql_touches_empty_collection",
       "aei=7{geos_gc_boundary_last_one_wins,geos_gc_empty_element_intersects,"
       "postgis_dfullywithin_definition,postgis_gist_empty_same_as,"
       "duckdb_intersects_envelope_only,mysql_overlaps_swapped_axes,"
       "mysql_touches_empty_collection} "
       "gen=3{duckdb_crash_collection_extract_empty,"
       "duckdb_crash_geometry_n_zero,duckdb_crash_force_cw_collection}",
       "geos_gc_boundary_last_one_wins,geos_prepared_stale_cache,"
       "geos_mixed_dimension_first_element,geos_boundary_empty_element_drop,"
       "geos_gc_empty_element_intersects,geos_touches_closed_line_boundary,"
       "geos_within_gc_point_interior,geos_overlaps_ignores_holes,"
       "geos_crosses_shared_endpoint,geos_crash_polygonize_dangling,"
       "geos_crash_relate_nested_gc,postgis_distance_empty_recursion,"
       "postgis_dfullywithin_definition,postgis_gist_empty_same_as,"
       "postgis_coveredby_negative_quadrant,postgis_equals_collapsed_line,"
       "postgis_dwithin_negative_coords,"
       "duckdb_crash_collection_extract_empty,duckdb_crash_geometry_n_zero,"
       "duckdb_crash_polygonize_empty,duckdb_crash_force_cw_collection,"
       "duckdb_intersects_envelope_only,mysql_crosses_gc_large_coords,"
       "mysql_overlaps_swapped_axes,mysql_within_index_grid,"
       "mysql_touches_empty_collection,sqlserver_disjoint_asymmetric,"
       "sqlserver_crash_nested_collection",
       "aei=14{geos_boundary_empty_element_drop,"
       "geos_gc_empty_element_intersects,geos_touches_closed_line_boundary,"
       "geos_within_gc_point_interior,postgis_distance_empty_recursion,"
       "postgis_dfullywithin_definition,postgis_equals_collapsed_line,"
       "postgis_dwithin_negative_coords,mysql_crosses_gc_large_coords,"
       "mysql_overlaps_swapped_axes,mysql_within_index_grid,"
       "mysql_touches_empty_collection,sqlserver_disjoint_asymmetric,"
       "sqlserver_crash_nested_collection} "
       "canon=9{geos_gc_boundary_last_one_wins,geos_prepared_stale_cache,"
       "geos_mixed_dimension_first_element,geos_overlaps_ignores_holes,"
       "geos_crosses_shared_endpoint,geos_crash_relate_nested_gc,"
       "postgis_gist_empty_same_as,postgis_coveredby_negative_quadrant,"
       "duckdb_intersects_envelope_only} "
       "gen=5{geos_crash_polygonize_dangling,"
       "duckdb_crash_collection_extract_empty,duckdb_crash_geometry_n_zero,"
       "duckdb_crash_polygonize_empty,duckdb_crash_force_cw_collection}"},
      {"suite-j3", "all", 10, 3, 3, 50, 1.2, 6,
       "geos_gc_boundary_last_one_wins,geos_prepared_stale_cache,"
       "geos_mixed_dimension_first_element,geos_gc_empty_element_intersects,"
       "geos_crash_convex_hull_collinear,postgis_gist_empty_same_as,"
       "postgis_dwithin_negative_coords,duckdb_crash_polygonize_empty,"
       "duckdb_crash_force_cw_collection,mysql_crosses_gc_large_coords,"
       "mysql_overlaps_swapped_axes,mysql_within_index_grid,"
       "mysql_touches_empty_collection",
       "aei=1{postgis_dwithin_negative_coords} "
       "diff=5{geos_gc_boundary_last_one_wins,geos_gc_empty_element_intersects,"
       "mysql_crosses_gc_large_coords,mysql_overlaps_swapped_axes,"
       "mysql_touches_empty_collection} "
       "index=2{postgis_gist_empty_same_as,mysql_within_index_grid} "
       "gen=3{geos_crash_convex_hull_collinear,duckdb_crash_polygonize_empty,"
       "duckdb_crash_force_cw_collection} "
       "eet=2{geos_prepared_stale_cache,geos_mixed_dimension_first_element}",
       "geos_gc_boundary_last_one_wins,geos_prepared_stale_cache,"
       "geos_mixed_dimension_first_element,geos_boundary_empty_element_drop,"
       "geos_gc_empty_element_intersects,geos_touches_closed_line_boundary,"
       "geos_within_gc_point_interior,geos_overlaps_ignores_holes,"
       "geos_crosses_shared_endpoint,geos_crash_convex_hull_collinear,"
       "geos_crash_polygonize_dangling,geos_crash_relate_nested_gc,"
       "postgis_covers_displacement_precision,"
       "postgis_distance_empty_recursion,postgis_dfullywithin_definition,"
       "postgis_gist_empty_same_as,postgis_coveredby_negative_quadrant,"
       "postgis_equals_collapsed_line,postgis_dwithin_negative_coords,"
       "duckdb_crash_collection_extract_empty,duckdb_crash_geometry_n_zero,"
       "duckdb_crash_polygonize_empty,duckdb_crash_force_cw_collection,"
       "duckdb_intersects_envelope_only,mysql_crosses_gc_large_coords,"
       "mysql_overlaps_swapped_axes,mysql_within_index_grid,"
       "mysql_touches_empty_collection,sqlserver_disjoint_asymmetric,"
       "sqlserver_crash_nested_collection",
       "aei=4{geos_within_gc_point_interior,geos_crash_relate_nested_gc,"
       "postgis_coveredby_negative_quadrant,postgis_equals_collapsed_line} "
       "canon=3{postgis_distance_empty_recursion,"
       "postgis_dfullywithin_definition,sqlserver_crash_nested_collection} "
       "diff=7{geos_gc_empty_element_intersects,geos_overlaps_ignores_holes,"
       "geos_crosses_shared_endpoint,mysql_crosses_gc_large_coords,"
       "mysql_overlaps_swapped_axes,mysql_touches_empty_collection,"
       "sqlserver_disjoint_asymmetric} index=2{postgis_gist_empty_same_as,"
       "mysql_within_index_grid} "
       "tlp=1{postgis_covers_displacement_precision} "
       "gen=5{geos_crash_polygonize_dangling,"
       "duckdb_crash_collection_extract_empty,duckdb_crash_geometry_n_zero,"
       "duckdb_crash_polygonize_empty,duckdb_crash_force_cw_collection} "
       "eet=8{geos_gc_boundary_last_one_wins,geos_prepared_stale_cache,"
       "geos_mixed_dimension_first_element,geos_boundary_empty_element_drop,"
       "geos_touches_closed_line_boundary,geos_crash_convex_hull_collinear,"
       "postgis_dwithin_negative_coords,duckdb_intersects_envelope_only}"},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string Flags(const Workload& w) {
  return "--dialect=all --oracles=" + std::string(w.oracles) +
         " --geometries=" + std::to_string(w.geometries) +
         " --jobs=" + std::to_string(w.jobs) +
         " --iterations=" + std::to_string(w.iterations) +
         " --queries=" + std::to_string(w.queries);
}

size_t RoundsFor(const Workload& w, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds * w.rounds_per_second)));
}

fuzz::OracleSuiteSpec Suite(const Workload& w) {
  return fuzz::ParseOracleSuite(w.oracles).value();
}

runtime::ShardedCampaignConfig MakeConfig(const Workload& w, uint64_t seed,
                                          size_t jobs) {
  runtime::ShardedCampaignConfig config;
  config.base.seed = seed;
  config.base.iterations = w.iterations;
  config.base.queries_per_iteration = w.queries;
  config.base.generator.num_geometries = w.geometries;
  config.base.enable_faults = true;
  config.base.oracles = Suite(w);
  config.jobs = jobs;
  config.dialects = runtime::ShardedCampaign::AllDialects();
  return config;
}

std::string BugSetLine(const fuzz::CampaignResult& result) {
  std::string line;
  for (const auto& [id, first] : result.unique_bugs) {
    if (!line.empty()) line += ",";
    line += faults::GetFaultInfo(id).name;
  }
  return line.empty() ? "(none)" : line;
}

std::string BugSetByOracleLine(const fuzz::CampaignResult& result) {
  std::string line;
  for (const auto& [kind, ids] : result.UniqueBugsByOracle()) {
    if (!line.empty()) line += " ";
    line += fuzz::OracleCliToken(kind);
    line += "=" + std::to_string(ids.size()) + "{";
    bool first = true;
    for (faults::FaultId id : ids) {
      if (!first) line += ",";
      line += faults::GetFaultInfo(id).name;
      first = false;
    }
    line += "}";
  }
  return line.empty() ? "(none)" : line;
}

RegistryDelta::RegistryDelta(obs::MetricsSnapshot before,
                             obs::MetricsSnapshot after)
    : before_(std::move(before)), after_(std::move(after)) {}

std::optional<uint64_t> RegistryDelta::Counter(const std::string& name) const {
  const auto it = after_.counters.find(name);
  if (it == after_.counters.end()) return std::nullopt;
  return it->second - before_.CounterOr(name);
}

std::optional<obs::HistogramData> RegistryDelta::Histogram(
    const std::string& name) const {
  const obs::HistogramData* after = after_.FindHistogram(name);
  if (after == nullptr) return std::nullopt;
  obs::HistogramData delta = *after;
  delta.buckets.resize(obs::LatencyHistogram::kNumBuckets, 0);
  if (const obs::HistogramData* before = before_.FindHistogram(name)) {
    delta.count -= before->count;
    delta.sum_ns -= before->sum_ns;
    for (size_t i = 0; i < before->buckets.size(); ++i) {
      delta.buckets[i] -= before->buckets[i];
    }
  }
  return delta;
}

std::optional<RegistryDelta::Verdicts> RegistryDelta::OracleVerdicts(
    const std::string& token) const {
  const std::string prefix = "oracle." + token;
  bool seen = false;
  Verdicts v;
  for (const char* bucket : {".ok", ".mismatch", ".crash"}) {
    if (const auto n = Counter(prefix + bucket)) {
      seen = true;
      v.verdicts += *n;
    }
  }
  if (const auto n = Counter(prefix + ".inapplicable")) {
    seen = true;
    v.inapplicable = *n;
  }
  if (!seen) return std::nullopt;
  return v;
}

namespace {

volatile double kernel_sink = 0.0;

}  // namespace

double ReferenceKernelSeconds() {
  const double t0 = fuzz::Campaign::NowSeconds();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<double> values(40000);
  for (double& v : values) v = static_cast<double>(next() % 1000000) * 1e-3;
  std::sort(values.begin(), values.end());
  std::map<uint64_t, double> by_key;
  for (size_t i = 0; i < 20000; ++i) by_key[next() % 50000] += values[i];
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < 15000; ++i) {
    std::vector<double>& row =
        by_name["t" + std::to_string(next() % 3000) + "_col"];
    row.push_back(values[i]);
    if (row.size() > 8) row.clear();
  }
  double acc = 0.0;
  for (const auto& [k, v] : by_key) acc += v * static_cast<double>(k & 7);
  for (const auto& [k, row] : by_name) acc += static_cast<double>(row.size());
  kernel_sink = acc;
  return fuzz::Campaign::NowSeconds() - t0;
}

double LogQuantileSeconds(const obs::HistogramData& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double below = 0.0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && below + n >= rank) {
      const double low = static_cast<double>(
          obs::LatencyHistogram::BucketLowNs(std::max<size_t>(i, 1)));
      return 1e-9 * low * std::exp2((rank - below) / n);
    }
    below += n;
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t RoundSeed(uint64_t seed, size_t round) {
  return round == 0 ? seed : Rng::SplitSeed(seed, round);
}

void CheckSelf(const Workload& w, const fuzz::CampaignResult& result,
               const RegistryDelta& delta, Report* report) {
  report->Check("join-pairs", result.engine_stats.pairs_evaluated > 0,
                std::to_string(result.engine_stats.pairs_evaluated) +
                    " join pairs evaluated");
  const auto full = delta.Counter("relate.full");
  report->Check("relate-full", full.has_value() && *full > 0,
                full ? std::to_string(*full) + " full relate computations"
                     : "instrument relate.full missing");
  for (fuzz::OracleKind kind : Suite(w).oracles) {
    const std::string token = fuzz::OracleCliToken(kind);
    const auto v = delta.OracleVerdicts(token);
    report->Check("verdicts." + token, v.has_value() && v->verdicts > 0,
                  v ? std::to_string(v->verdicts) + " checks with a verdict, " +
                          std::to_string(v->inapplicable) + " without"
                    : "instruments oracle." + token + ".* missing");
  }
  report->Check("bug-set-nonempty", !result.unique_bugs.empty(),
                std::to_string(result.unique_bugs.size()) + " unique bugs");
}

void CheckPinned(const Workload& w, uint64_t seed, size_t rounds,
                 const fuzz::CampaignResult& round0,
                 const fuzz::CampaignResult& all, Report* report) {
  const std::string bug_set = BugSetLine(round0);
  const std::string by_oracle = BugSetByOracleLine(round0);
  const std::string all_bug_set = BugSetLine(all);
  const std::string all_by_oracle = BugSetByOracleLine(all);
  std::printf("bug-set: %s\nbug-set-by-oracle: %s\n", bug_set.c_str(),
              by_oracle.c_str());
  std::printf("all %zu rounds: bug-set: %s\nall %zu rounds: "
              "bug-set-by-oracle: %s\n",
              rounds, all_bug_set.c_str(), rounds, all_by_oracle.c_str());
  if (seed != kDefaultSeed) {
    std::printf("pinned bug-set lines skipped: seed %llu is held out\n",
                static_cast<unsigned long long>(seed));
    return;
  }
  report->Check("pinned.bug-set", bug_set == w.pinned_bug_set,
                std::string("pinned ") + w.pinned_bug_set);
  report->Check("pinned.bug-set-by-oracle",
                by_oracle == w.pinned_bug_set_by_oracle,
                std::string("pinned ") + w.pinned_bug_set_by_oracle);
  if (rounds != RoundsFor(w, kDefaultSeconds)) {
    std::printf("pinned all-rounds lines skipped: they cover %zu rounds\n",
                RoundsFor(w, kDefaultSeconds));
    return;
  }
  report->Check("pinned.all.bug-set", all_bug_set == w.pinned_all_bug_set,
                std::string("pinned ") + w.pinned_all_bug_set);
  report->Check("pinned.all.bug-set-by-oracle",
                all_by_oracle == w.pinned_all_bug_set_by_oracle,
                std::string("pinned ") + w.pinned_all_bug_set_by_oracle);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    Missing(name, "not a finite number");
    return;
  }
  std::printf("metric %-36s %16.6f %-9s%s%s\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : "  ", note.c_str());
  metrics_.push_back({name, value, unit});
}

void Report::Missing(const std::string& name, const std::string& why) {
  std::printf("MISSING %s: %s\n", name.c_str(), why.c_str());
  ++missing_;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("%s %s: %s\n", ok ? "check ok" : "FAIL", name.c_str(),
              detail.c_str());
  if (!ok) ++failures_;
}

int Report::Finish() const {
  std::string json = "{\"correct\": ";
  json += failures_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": 0";
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok() ? 0 : 1;
}

}  // namespace spatter::perfbench
