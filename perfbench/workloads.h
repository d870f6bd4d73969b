// The benchmark's workloads and the helpers its two runs share: campaign
// configuration, the `bug-set:` lines, registry deltas that tell an absent
// instrument from a zero one, order statistics, and the metric report.
//
// Every workload is the in-process equivalent of one `spatter` invocation
// over the four dialects in pure-generate mode with injected faults on,
// driven through runtime::ShardedCampaign.
#ifndef SPATTER_PERFBENCH_WORKLOADS_H_
#define SPATTER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "obs/metrics.h"
#include "runtime/sharded_campaign.h"

namespace spatter::perfbench {

/// The seed the pinned bug-set lines were recorded at. Any other seed is
/// held out: it skips the pinned comparison and keeps every other check.
inline constexpr uint64_t kDefaultSeed = 4242;
/// The run length the all-rounds pinned lines were recorded at.
inline constexpr double kDefaultSeconds = 40.0;

/// One workload: a campaign per round, run for a fixed number of rounds.
struct Workload {
  const char* name;
  const char* oracles;  ///< --oracles= value
  size_t geometries;    ///< --geometries=
  size_t jobs;          ///< --jobs=
  size_t iterations;    ///< --iterations= (per dialect, per round)
  size_t queries;       ///< --queries= (per iteration)
  /// Untraced rounds per requested second, as measured on a 4-core x86
  /// host: the round count is a pure function of --seconds, so a faster
  /// program runs the same inputs in less time.
  double rounds_per_second;
  size_t traced_rounds;  ///< rounds the traced run re-drives
  const char* pinned_bug_set;            ///< round 0 at kDefaultSeed
  const char* pinned_bug_set_by_oracle;  ///< round 0 at kDefaultSeed
  /// All rounds of a kDefaultSeconds run at kDefaultSeed, merged.
  const char* pinned_all_bug_set;
  const char* pinned_all_bug_set_by_oracle;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// The `spatter` flags equivalent to one round of `w`.
std::string Flags(const Workload& w);

/// Untraced rounds for a run of `seconds` (at least one).
size_t RoundsFor(const Workload& w, double seconds);

/// The workload's oracle suite.
fuzz::OracleSuiteSpec Suite(const Workload& w);

/// The sharded-campaign configuration `w` runs at `seed` with `jobs`
/// worker threads (the workload's own count unless overridden).
runtime::ShardedCampaignConfig MakeConfig(const Workload& w, uint64_t seed,
                                          size_t jobs);

/// The CLI's `bug-set:` / `bug-set-by-oracle:` values for `result`.
std::string BugSetLine(const fuzz::CampaignResult& result);
std::string BugSetByOracleLine(const fuzz::CampaignResult& result);

/// Difference between two registry snapshots. Lookups return nullopt when
/// the instrument is absent from `after`, so a renamed instrument reads as
/// missing, never as zero.
class RegistryDelta {
 public:
  RegistryDelta(obs::MetricsSnapshot before, obs::MetricsSnapshot after);

  std::optional<uint64_t> Counter(const std::string& name) const;
  std::optional<obs::HistogramData> Histogram(const std::string& name) const;

  /// Verdict and no-verdict check counts of one oracle, from its
  /// `oracle.<token>.{ok,mismatch,crash,inapplicable}` counters; nullopt
  /// when none of the four exists.
  struct Verdicts {
    uint64_t verdicts = 0;
    uint64_t inapplicable = 0;
  };
  std::optional<Verdicts> OracleVerdicts(const std::string& token) const;

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// Host-speed reference. Shared hosts drift by a quarter or more in speed
/// over minutes, whatever code runs, so the untraced run brackets every
/// round with this fixed kernel — a sort and two ordered-map passes over
/// generated keys, independent of the program under test — and reports
/// times in reference seconds: measured seconds x ReferenceScale. A host
/// running at the reference speed scales by about 1. (A kernel on one
/// thread per job tracked the three-job workload worse: its own threads
/// contend.)
inline constexpr double kReferenceKernelSeconds = 0.015;
/// Time of one kernel pass on the calling thread.
double ReferenceKernelSeconds();
/// Scale for an interval between two kernel timings.
inline double ReferenceScale(double kernel_before, double kernel_after) {
  return 2.0 * kReferenceKernelSeconds / (kernel_before + kernel_after);
}

/// q-quantile of a registry histogram in seconds, interpolated
/// log-linearly inside the power-of-two bucket the rank falls in (tail
/// buckets are wide and sparse; linear interpolation there would swing the
/// estimate with every sample crossing a bucket edge); 0 when empty.
double LogQuantileSeconds(const obs::HistogramData& h, double q);

/// Linearly interpolated q-quantile (q in [0,1]) of `values`; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set of this process, in MiB.
double PeakRssMiB();

/// Collects metrics, failed checks, and missing metrics, and prints them:
/// one human-readable line per item, then the result object as the last
/// line of standard output. Attempted operations are queries; none fails
/// (a crash or mismatch a query exposes is a finding, not a failure).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void Missing(const std::string& name, const std::string& why);
  /// Records a named check; a false `ok` fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);

  void set_attempted(uint64_t n) { attempted_ = n; }
  bool ok() const { return failures_ == 0 && missing_ == 0; }

  /// Prints the result object; returns the process exit code.
  int Finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  int failures_ = 0;
  int missing_ = 0;
};

/// Seed of round `round` of a run at `seed`: round 0 is the workload's
/// campaign at `seed` itself, later rounds derive their seeds from it.
uint64_t RoundSeed(uint64_t seed, size_t round);

/// The workload self-assertions on a campaign result and the registry
/// delta over it: join pairs, full relate computations, a verdict from
/// every oracle in the suite (its check line also counts the checks
/// without one), and a non-empty bug set.
void CheckSelf(const Workload& w, const fuzz::CampaignResult& result,
               const RegistryDelta& delta, Report* report);

/// Prints the bug-set lines of round 0 and of all `rounds` rounds merged.
/// At kDefaultSeed it checks round 0's against the workload's pinned lines
/// and, when `rounds` is a kDefaultSeconds run's count, the merged ones too.
void CheckPinned(const Workload& w, uint64_t seed, size_t rounds,
                 const fuzz::CampaignResult& round0,
                 const fuzz::CampaignResult& all, Report* report);

}  // namespace spatter::perfbench

#endif  // SPATTER_PERFBENCH_WORKLOADS_H_
