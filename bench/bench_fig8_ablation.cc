// Reproduces Figure 8: the generator ablation — unique bugs over time and
// coverage over time for the Geometry-Aware Generator (GAG) versus the
// random-shape-only baseline (RSG), on the faulty PostGIS-sim.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/coverage.h"
#include "runtime/sharded_campaign.h"

using namespace spatter;        // NOLINT
using namespace spatter::bench;  // NOLINT

namespace {

struct Sample {
  double elapsed;
  size_t unique_bugs;
  double engine_cov;
  double geos_cov;
};

double GroupPercent(std::initializer_list<const char*> modules) {
  size_t hit = 0;
  size_t total = 0;
  auto& reg = CoverageRegistry::Instance();
  for (const char* m : modules) {
    hit += reg.HitPoints(m);
    total += reg.TotalPoints(m);
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(hit) /
                                static_cast<double>(total);
}

std::vector<Sample> RunTimed(bool derivative, double seconds) {
  CoverageRegistry::Instance().ResetHits();
  runtime::ShardedCampaignConfig config;
  config.base.dialect = engine::Dialect::kPostgis;
  config.base.seed = 8080;
  config.base.queries_per_iteration = 50;
  config.base.generator.num_geometries = 10;
  config.base.generator.derivative_enabled = derivative;
  config.jobs = 1;  // one slice: the serial iteration order 0, 1, 2, ...
  config.duration_seconds = seconds;
  std::vector<Sample> samples;
  runtime::ShardedCampaign::Observer observer;
  observer.sample = [&samples](double elapsed,
                               const fuzz::CampaignResult& r) {
    samples.push_back(Sample{
        elapsed, r.unique_bugs.size(),
        GroupPercent({"engine", "edit", "generator", "aei", "oracle",
                      "campaign"}),
        GroupPercent({"relate", "locate", "predicate", "prepared", "canon"})});
  };
  runtime::ShardedCampaign(config).Run(observer);
  return samples;
}

void PrintSeries(const char* name, const std::vector<Sample>& samples) {
  std::printf("%s:\n  %10s %12s %12s %10s\n", name, "t(s)", "unique bugs",
              "PostGIS cov", "GEOS cov");
  // Print ~8 evenly spaced samples.
  const size_t step = samples.size() <= 8 ? 1 : samples.size() / 8;
  for (size_t i = 0; i < samples.size(); i += step) {
    const auto& s = samples[i];
    std::printf("  %10.2f %12zu %11.1f%% %9.1f%%\n", s.elapsed,
                s.unique_bugs, s.engine_cov, s.geos_cov);
  }
  if (!samples.empty()) {
    const auto& s = samples.back();
    std::printf("  %10.2f %12zu %11.1f%% %9.1f%%  (final)\n", s.elapsed,
                s.unique_bugs, s.engine_cov, s.geos_cov);
  }
}

}  // namespace

int main() {
  // Scaled-down from the paper's 60 minutes to a few seconds per
  // configuration; the comparison (GAG >= RSG in bugs and coverage at
  // every time point) is what matters.
  const double kSeconds = 6.0;

  std::printf("Figure 8: Geometry-Aware Generator (GAG) vs random-shape "
              "generator (RSG)\n");
  Rule('=');
  const auto gag = RunTimed(/*derivative=*/true, kSeconds);
  const auto rsg = RunTimed(/*derivative=*/false, kSeconds);
  PrintSeries("GAG (random-shape + derivative strategies)", gag);
  Rule();
  PrintSeries("RSG (random-shape strategy only)", rsg);
  Rule();

  const size_t gag_bugs = gag.empty() ? 0 : gag.back().unique_bugs;
  const size_t rsg_bugs = rsg.empty() ? 0 : rsg.back().unique_bugs;
  std::printf("unique bugs: GAG %zu vs RSG %zu  (%s)\n", gag_bugs, rsg_bugs,
              gag_bugs >= rsg_bugs ? "shape holds: GAG >= RSG"
                                   : "UNEXPECTED: RSG ahead");
  std::printf("\npaper reference: within one hour GAG found ~7 unique bugs "
              "vs ~3 for RSG, with\nconsistently higher PostGIS and GEOS "
              "coverage.\n");
  return 0;
}
