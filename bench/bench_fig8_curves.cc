// Figure-8 coverage curves at runtime scale: corpus-guided vs pure-random
// site-coverage growth over equal wall-time budgets, on the sharded
// runtime (the duration-budget mode that `--fleet --duration` runs across
// processes).
//
// Gate: summed across seeds, the corpus-guided campaign must cover at
// least as many ENGINE coverage sites as the pure-random campaign at
// equal duration — site-coverage growth is where greybox guidance shows
// up first (unique-fault parity is gated separately in bench_corpus).
// Harness modules (campaign/corpus/generator/aei/oracle) are excluded
// from the count: corpus mode exercises its own instrumentation by
// construction, which would make the gate self-congratulatory.
//
// Also emits the machine-readable curve JSON (fleet/curve.h) that
// `spatter --duration=S --curve-out=FILE` produces, as a format example,
// and gates checkpoint-resume curve fidelity: a campaign SIGKILLed at a
// checkpoint and resumed must re-emit the checkpointed curve prefix
// sample-for-sample and converge to the identical final coverage, bug
// count, and iteration total as the uninterrupted reference at equal
// total budget. (The equal-budget comparison runs on an iteration budget
// — wall-time sample INSTANTS are never reproducible across runs, so the
// reference pin is the restored prefix plus the final totals.)
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/coverage.h"
#include "fleet/checkpoint.h"
#include "fleet/curve.h"
#include "net/fleet_server.h"
#include "runtime/sharded_campaign.h"

using namespace spatter;         // NOLINT
using namespace spatter::bench;  // NOLINT

namespace {

/// Engine-behaviour sites hit (all modules except the fuzzer's own).
size_t EngineSitesCovered() {
  size_t hit = 0;
  const auto& harness = fuzz::Campaign::HarnessCoverageModules();
  for (const auto& row : CoverageRegistry::Instance().Summaries()) {
    if (harness.count(row.module) > 0) continue;
    hit += row.hit;
  }
  return hit;
}

struct CurveRun {
  size_t engine_sites = 0;
  size_t iterations = 0;
  size_t unique_bugs = 0;
  std::unique_ptr<fleet::CurveRecorder> curve =
      std::make_unique<fleet::CurveRecorder>();
};

CurveRun RunTimed(uint64_t seed, bool corpus_mode, double seconds) {
  CoverageRegistry::Instance().ResetHits();
  runtime::ShardedCampaignConfig config;
  config.base.dialect = engine::Dialect::kPostgis;
  config.base.seed = seed;
  config.base.queries_per_iteration = 50;
  config.base.generator.num_geometries = 10;
  config.base.corpus.enabled = corpus_mode;
  config.base.corpus.mutate_pct = 50;
  config.jobs = 2;
  config.duration_seconds = seconds;
  config.cross_dialect_transfer = false;  // measure the loop, not the merge
  runtime::ShardedCampaign campaign(config);

  CurveRun run;
  auto& registry = CoverageRegistry::Instance();
  runtime::ShardedCampaign::Observer observer;
  observer.sample = [&run, &registry](double elapsed,
                                      const fuzz::CampaignResult& r) {
    run.curve->Add(elapsed, registry.CoveredSiteCount(),
                   r.unique_bugs.size(), r.iterations_run);
  };
  const fuzz::CampaignResult result = campaign.Run(observer);
  run.engine_sites = EngineSitesCovered();
  run.iterations = result.iterations_run;
  run.unique_bugs = result.unique_bugs.size();
  return run;
}

void PrintCurve(const char* name, const CurveRun& run) {
  const auto samples = run.curve->samples();
  std::printf("  %-12s %6zu engine sites, %5zu iterations, %3zu bugs, "
              "%4zu curve samples\n",
              name, run.engine_sites, run.iterations, run.unique_bugs,
              samples.size());
}

/// Gate 2: a resumed campaign's curve is the checkpointed prefix,
/// sample-for-sample, and its final totals equal the uninterrupted
/// reference's at equal total budget. Returns false on any mismatch.
bool CheckResumeCurveFidelity() {
  namespace fs = std::filesystem;
  std::printf("\nCheckpoint-resume curve fidelity (iteration budget, "
              "per-iteration COV)\n");

  net::FleetConfig base;
  base.base.dialect = engine::Dialect::kPostgis;
  base.base.seed = 3104;
  base.base.iterations = 16;
  base.base.queries_per_iteration = 40;
  base.base.generator.num_geometries = 10;
  base.processes = 1;
  base.jobs = 2;
  base.cov_interval_seconds = 0.0;  // exact coverage restoration

  net::FleetServer reference(base);
  if (!reference.Start().ok()) {
    std::printf("FAIL: cannot start the fleet supervisor\n");
    return false;
  }
  const fuzz::CampaignResult ref = reference.Run();
  const size_t ref_sites = reference.fleet_covered_sites();

  const std::string dir = "fig8_resume_ckpt";
  fs::remove_all(dir);
  net::FleetConfig killed = base;
  killed.checkpoint_dir = dir;
  killed.checkpoint_interval_seconds = 0.0;
  killed.die_after_frames = 29;  // < NETHELLO + 16 * (INFLIGHT, SLICEPROGRESS)
  const pid_t pid = ::fork();
  if (pid == 0) {
    net::FleetServer supervisor(killed);
    if (supervisor.Start().ok()) supervisor.Run();
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    std::printf("FAIL: seamed supervisor was not SIGKILLed mid-run\n");
    return false;
  }

  auto loaded = fleet::LoadCheckpoint(dir);
  if (!loaded.ok()) {
    std::printf("FAIL: %s\n", loaded.status().ToString().c_str());
    return false;
  }
  const std::vector<fleet::CurveSample> prefix = loaded.value().curve;
  net::FleetConfig resumed_config = base;
  resumed_config.resume = loaded.Take();
  net::FleetServer resumed(resumed_config);
  if (!resumed.Start().ok()) {
    std::printf("FAIL: cannot start the resumed fleet supervisor\n");
    return false;
  }
  const fuzz::CampaignResult result = resumed.Run();
  const std::vector<fleet::CurveSample> samples = resumed.curve().samples();

  if (samples.size() < prefix.size()) {
    std::printf("FAIL: resumed curve dropped restored samples\n");
    return false;
  }
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (samples[i].elapsed_seconds != prefix[i].elapsed_seconds ||
        samples[i].covered_sites != prefix[i].covered_sites ||
        samples[i].unique_bugs != prefix[i].unique_bugs ||
        samples[i].iterations != prefix[i].iterations) {
      std::printf("FAIL: restored curve sample %zu is not identical\n", i);
      return false;
    }
  }
  // The restored prefix renders into the resumed JSON byte-identically
  // (the checkpoint codec round-trips doubles exactly).
  if (!prefix.empty()) {
    fleet::CurveInfo info;
    info.label = "resume";
    const std::string json = resumed.curve().ToJson(info);
    char line[256];
    const fleet::CurveSample& last = prefix.back();
    std::snprintf(line, sizeof(line),
                  "{\"t\": %.3f, \"sites\": %llu, \"unique_bugs\": %llu, "
                  "\"iterations\": %llu}",
                  last.elapsed_seconds,
                  static_cast<unsigned long long>(last.covered_sites),
                  static_cast<unsigned long long>(last.unique_bugs),
                  static_cast<unsigned long long>(last.iterations));
    if (json.find(line) == std::string::npos) {
      std::printf("FAIL: restored sample missing from resumed JSON\n");
      return false;
    }
  }
  if (resumed.fleet_covered_sites() != ref_sites ||
      result.unique_bugs.size() != ref.unique_bugs.size() ||
      result.iterations_run != ref.iterations_run) {
    std::printf("FAIL: resumed totals diverge (sites %zu vs %zu, bugs %zu "
                "vs %zu, iterations %zu vs %zu)\n",
                resumed.fleet_covered_sites(), ref_sites,
                result.unique_bugs.size(), ref.unique_bugs.size(),
                result.iterations_run, ref.iterations_run);
    return false;
  }
  std::printf("OK: resumed curve = %zu restored + %zu new samples, final "
              "sites/bugs/iterations identical to uninterrupted\n",
              prefix.size(), samples.size() - prefix.size());
  fs::remove_all(dir);
  return true;
}

}  // namespace

int main() {
  const double kSeconds = 3.0;
  const std::vector<uint64_t> kSeeds = {3101, 3102, 3103};

  std::printf("Figure 8 (runtime scale): site-coverage growth, corpus vs "
              "pure-random, %.1fs per run\n",
              kSeconds);
  Rule();

  size_t corpus_total = 0;
  size_t random_total = 0;
  for (uint64_t seed : kSeeds) {
    std::printf("seed %llu:\n", static_cast<unsigned long long>(seed));
    CurveRun random = RunTimed(seed, /*corpus_mode=*/false, kSeconds);
    PrintCurve("pure-random", random);
    CurveRun corpus = RunTimed(seed, /*corpus_mode=*/true, kSeconds);
    PrintCurve("corpus", corpus);
    random_total += random.engine_sites;
    corpus_total += corpus.engine_sites;

    if (seed == kSeeds.back()) {
      fleet::CurveInfo info;
      info.label = "corpus";
      info.seed = seed;
      info.jobs = 2;
      info.duration_seconds = kSeconds;
      const Status st =
          corpus.curve->WriteJson("fig8_corpus_curve.json", info);
      std::printf("  curve JSON: %s\n",
                  st.ok() ? "fig8_corpus_curve.json" : st.ToString().c_str());
    }
  }

  Rule();
  std::printf("engine sites, summed over %zu seeds: corpus %zu vs "
              "pure-random %zu\n",
              kSeeds.size(), corpus_total, random_total);
  if (corpus_total < random_total) {
    std::printf("FAIL: corpus-guided coverage growth fell below "
                "pure-random at equal duration\n");
    return 1;
  }
  std::printf("OK: corpus-guided >= pure-random at equal duration\n");

  if (!CheckResumeCurveFidelity()) return 1;
  return 0;
}
