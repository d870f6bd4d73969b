// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures.
#ifndef SPATTER_BENCH_BENCH_COMMON_H_
#define SPATTER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "common/fsio.h"
#include "fuzz/campaign.h"
#include "obs/metrics.h"

namespace spatter::bench {

/// The one wall clock every bench binary times with (the campaign's own
/// monotonic clock, so bench numbers and campaign counters agree).
inline double NowSeconds() { return fuzz::Campaign::NowSeconds(); }

/// Runs an AEI campaign against one faulty dialect and returns the set of
/// ground-truth unique bugs it detected.
inline fuzz::CampaignResult RunDialectCampaign(engine::Dialect dialect,
                                               uint64_t seed,
                                               size_t iterations,
                                               size_t queries) {
  fuzz::CampaignConfig config;
  config.dialect = dialect;
  config.seed = seed;
  config.iterations = iterations;
  config.queries_per_iteration = queries;
  config.generator.num_geometries = 10;
  fuzz::Campaign campaign(config);
  return campaign.Run();
}

/// Pretty separator line.
inline void Rule(char c = '-', int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Emits a bench result as a spatter-metrics-v1 JSON document (the same
/// schema `spatter --metrics-out` writes, so one set of tooling reads
/// both): the registry snapshot carries the phase histograms, `derived`
/// carries the bench's own headline numbers. Atomic write-rename.
inline bool WriteMetricsJson(const std::string& path,
                             const std::string& label, uint64_t seed,
                             const obs::MetricsSnapshot& snapshot,
                             double elapsed_seconds,
                             const std::map<std::string, double>& derived) {
  obs::MetricsJsonInfo info;
  info.label = label;
  info.seed = seed;
  info.fleet = 1;
  info.jobs = 1;
  info.elapsed_seconds = elapsed_seconds;
  info.derived = derived;
  const Status st =
      AtomicWriteFile(path, obs::MetricsToJson(snapshot, info));
  if (!st.ok()) {
    std::fprintf(stderr, "bench: cannot write '%s': %s\n", path.c_str(),
                 st.ToString().c_str());
    return false;
  }
  std::printf("bench: wrote %s\n", path.c_str());
  return true;
}

}  // namespace spatter::bench

#endif  // SPATTER_BENCH_BENCH_COMMON_H_
