// The repository benchmark: one fuzzing campaign workload per run, driven
// in-process through runtime::ShardedCampaign.
//
//   spatter_perfbench --workload <name> [--seed N] [--seconds S]
//                     [--trace 0|1] [--trace-dir DIR]
//
// Untraced (--trace 0): times the workload's set-up in batches, then runs
// a fixed number of rounds (about S seconds' worth on a 4-core x86 host),
// each a whole campaign at a seed derived from N (round 0 at N itself),
// and reports the end-to-end metrics over all rounds: many small universes
// keep the heavy-tailed per-iteration cost from letting one universe
// decide a run. The workload self-assertions hold over all rounds. At the
// default seed, round 0 and all rounds of a default-length run must print
// the pinned bug-set lines. Times are in reference seconds (see
// ReferenceKernelSeconds); raw values are logged. Traced (--trace 1): see
// redrive.h.
//
// Human-readable lines come first; the last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 only when every check passed and no metric is missing.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "redrive.h"
#include "runtime/aggregator.h"
#include "workloads.h"

namespace spatter::perfbench {
namespace {

constexpr int kSetupBatches = 15;
constexpr int kSetupsPerBatch = 2000;

double Now() { return fuzz::Campaign::NowSeconds(); }

/// One set-up: from the start of the workload until its campaign objects
/// (one fuzz::Campaign per dialect and shard, as ShardedCampaign::Run
/// builds them) are ready for the first iteration. Tear-down is untimed.
double TimeSetup(const Workload& w, uint64_t seed) {
  const double t0 = Now();
  const runtime::ShardedCampaignConfig config = MakeConfig(w, seed, w.jobs);
  runtime::ShardedCampaign campaign(config);
  std::vector<std::unique_ptr<fuzz::Campaign>> shards;
  for (engine::Dialect dialect : campaign.dialects()) {
    for (size_t s = 0; s < campaign.shards_per_dialect(); ++s) {
      fuzz::CampaignConfig cfg = config.base;
      cfg.dialect = dialect;
      shards.push_back(std::make_unique<fuzz::Campaign>(cfg));
    }
  }
  return Now() - t0;
}

int RunUntraced(const Workload& w, uint64_t seed, double seconds) {
  Report report;
  const size_t rounds = RoundsFor(w, seconds);
  std::printf("workload %s: %zu rounds of spatter %s, seeds derived from "
              "%llu\n",
              w.name, rounds, Flags(w).c_str(),
              static_cast<unsigned long long>(seed));

  // Set-up takes microseconds, so each sample is the mean of a batch,
  // scaled by the reference kernels around it.
  const double first_setup = TimeSetup(w, seed);
  std::vector<double> setups;
  double kernel = ReferenceKernelSeconds();
  for (int b = 0; b < kSetupBatches; ++b) {
    double total = 0.0;
    for (int i = 0; i < kSetupsPerBatch; ++i) total += TimeSetup(w, seed);
    const double next_kernel = ReferenceKernelSeconds();
    setups.push_back(total / kSetupsPerBatch *
                     ReferenceScale(kernel, next_kernel));
    kernel = next_kernel;
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const obs::MetricsSnapshot before = registry.Snapshot();
  runtime::Aggregator aggregator;
  fuzz::CampaignResult round0;
  size_t discrepancies = 0;
  std::vector<double> kernels;
  double wall = 0.0;
  double scaled_wall = 0.0;
  for (size_t r = 0; r < rounds; ++r) {
    runtime::ShardedCampaign campaign(
        MakeConfig(w, RoundSeed(seed, r), w.jobs));
    const double start = Now();
    fuzz::CampaignResult result = campaign.Run();
    const double round_wall = Now() - start;
    const double next_kernel = ReferenceKernelSeconds();
    const double scaled = round_wall * ReferenceScale(kernel, next_kernel);
    kernel = next_kernel;
    wall += round_wall;
    scaled_wall += scaled;
    std::printf("round %zu: %zu queries, %.6f s, %.6f reference s\n", r,
                result.queries_run, round_wall, scaled);
    discrepancies += result.discrepancies.size();
    kernels.push_back(next_kernel);
    if (r == 0) round0 = result;
    // Only the unique bugs are merged: holding every round's discrepancy
    // records would grow the peak resident set with the round count.
    result.discrepancies.clear();
    aggregator.Merge(std::move(result));
  }
  const RegistryDelta delta(before, registry.Snapshot());
  const fuzz::CampaignResult all = aggregator.Finish(wall);
  // Campaign-wide scale for the per-query check histogram.
  const double scale = scaled_wall / wall;
  std::printf("host speed: %.4f reference seconds per measured second "
              "(reference kernel median %.6f s)\n",
              scale, Median(kernels));

  CheckSelf(w, all, delta, &report);
  CheckPinned(w, seed, rounds, round0, all, &report);
  report.set_attempted(all.queries_run);

  report.Metric("queries_per_s", all.queries_run / scaled_wall, "queries/s",
                "over " + std::to_string(rounds) + " rounds; raw " +
                    std::to_string(all.queries_run / wall));
  if (const auto h = delta.Histogram("campaign.check")) {
    // Over the whole run, scaled by the run's mean factor: a round holds
    // too few iterations for a steady quantile of its own.
    const double raw = 1e6 * LogQuantileSeconds(*h, 0.5);
    report.Metric("check_p50_us", raw * scale, "us",
                  "campaign.check n=" + std::to_string(h->count) + "; raw " +
                      std::to_string(raw));
    // The tail is too few independent iterations to bound; logged only.
    std::printf("check tail: p90 %.3f us, p99 %.3f us\n",
                1e6 * LogQuantileSeconds(*h, 0.9) * scale,
                1e6 * LogQuantileSeconds(*h, 0.99) * scale);
  } else {
    report.Missing("check_p50_us", "histogram campaign.check absent");
  }
  report.Metric("unique_bugs", static_cast<double>(all.unique_bugs.size()),
                "count", std::to_string(discrepancies) +
                             " discrepancies over all rounds");
  report.Metric("setup_s", Median(setups), "s",
                "median of " + std::to_string(kSetupBatches) + " batches of " +
                    std::to_string(kSetupsPerBatch) + "; first set-up " +
                    std::to_string(first_setup) + " s raw");
  report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  return report.Finish();
}

int Usage() {
  std::fprintf(stderr,
               "usage: spatter_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR]\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace spatter::perfbench

int main(int argc, char** argv) {
  using namespace spatter::perfbench;  // NOLINT
  std::string workload;
  std::string trace_dir;
  uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::string(value) != "0";
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  const Workload* w = FindWorkload(workload);
  if (w == nullptr) return Usage();
  return trace ? RunTraced(*w, seed, trace_dir)
               : RunUntraced(*w, seed, seconds);
}
