// Parallel campaign runtime tests: the task runner, cross-shard
// aggregation, and — most important — the determinism contract: the
// campaign universe is a pure function of (seed, iteration), so a sharded
// run reproduces a serial run's findings at ANY shard count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/coverage.h"
#include "common/rng.h"
#include "fuzz/campaign.h"
#include "runtime/aggregator.h"
#include "runtime/parallel_for.h"
#include "runtime/sharded_campaign.h"

namespace spatter::runtime {
namespace {

using engine::Dialect;
using fuzz::Campaign;
using fuzz::CampaignConfig;
using fuzz::CampaignResult;
using fuzz::Discrepancy;

CampaignConfig SmallConfig(Dialect dialect, uint64_t seed) {
  CampaignConfig config;
  config.dialect = dialect;
  config.seed = seed;
  config.iterations = 8;
  config.queries_per_iteration = 25;
  config.generator.num_geometries = 8;
  return config;
}

std::set<faults::FaultId> BugKeys(const CampaignResult& r) {
  std::set<faults::FaultId> keys;
  for (const auto& [id, _] : r.unique_bugs) keys.insert(id);
  return keys;
}

TEST(SplitSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(Rng::SplitSeed(42, 7), Rng::SplitSeed(42, 7));
  std::set<uint64_t> seen;
  for (uint64_t master : {0ull, 1ull, 42ull}) {
    for (uint64_t i = 0; i < 100; ++i) seen.insert(Rng::SplitSeed(master, i));
  }
  EXPECT_EQ(seen.size(), 300u) << "no collisions across masters/indices";
}

TEST(RngBelow, UnbiasedRangeAndDeterminism) {
  // Lemire rejection keeps results in range and reproducible from a seed.
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t bound = 1 + (static_cast<uint64_t>(i) * 37) % 1000;
    const uint64_t va = a.Below(bound);
    EXPECT_LT(va, bound);
    EXPECT_EQ(va, b.Below(bound));
  }
  // A coarse uniformity check on a bound that a biased `% bound` would
  // visibly skew if the generator were narrow; mostly documents intent.
  Rng c(11);
  size_t low = 0;
  const size_t kDraws = 30000;
  for (size_t i = 0; i < kDraws; ++i) {
    if (c.Below(3) == 0) low++;
  }
  EXPECT_NEAR(static_cast<double>(low) / kDraws, 1.0 / 3, 0.02);
}

TEST(ParallelFor, RunsEveryIndexOnceOffTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [threads, tasks] :
       std::vector<std::pair<size_t, size_t>>{{1, 0}, {1, 5}, {3, 2},
                                              {4, 200}}) {
    std::vector<std::atomic<int>> runs(tasks);
    std::atomic<int> inline_runs{0};
    ParallelFor(threads, tasks, [&](size_t i) {
      runs[i].fetch_add(1);
      if (std::this_thread::get_id() == caller) inline_runs.fetch_add(1);
    });
    for (size_t i = 0; i < tasks; ++i) {
      EXPECT_EQ(runs[i].load(), 1)
          << "index " << i << " of (" << threads << ", " << tasks << ")";
    }
    EXPECT_EQ(inline_runs.load(), 0);
  }
}

TEST(ParallelFor, AsManyThreadsAsTasksRunsThemAllAtOnce) {
  // Duration mode relies on this: every task waits here until all four
  // have started, which a runner with fewer threads never lets happen.
  // The deadline turns such a runner into a failure instead of a hang.
  constexpr size_t kTasks = 4;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<size_t> started{0};
  std::atomic<size_t> saw_all{0};
  ParallelFor(kTasks, kTasks, [&](size_t) {
    started.fetch_add(1);
    while (started.load() < kTasks &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == kTasks) saw_all.fetch_add(1);
  });
  EXPECT_EQ(saw_all.load(), kTasks);
}

TEST(ParallelFor, RethrowsATaskExceptionAfterJoining) {
  std::atomic<int> running{0};
  EXPECT_THROW(ParallelFor(3, 50,
                           [&](size_t i) {
                             running.fetch_add(1);
                             std::this_thread::yield();
                             running.fetch_sub(1);
                             if (i == 7) throw std::runtime_error("task 7");
                           }),
               std::runtime_error);
  EXPECT_EQ(running.load(), 0) << "returned before every thread finished";
}

TEST(Aggregator, DeduplicatesByFaultIdEarliestWins) {
  // "Earliest" is logical campaign position (iteration, query index), not
  // wall clock — the winner must not depend on thread scheduling.
  Discrepancy early;
  early.detail = "early";
  early.iteration = 2;
  early.query_index = 4;
  Discrepancy late;
  late.detail = "late";
  late.iteration = 5;
  late.query_index = 1;

  CampaignResult shard1;
  shard1.unique_bugs.emplace(faults::FaultId::kGeosOverlapsIgnoresHoles, late);
  shard1.discrepancies.push_back(late);
  shard1.iterations_run = 3;
  shard1.checks_run = 30;
  shard1.busy_seconds = 2.0;
  shard1.engine_seconds = 1.0;
  shard1.engine_stats.statements_executed = 10;

  CampaignResult shard2;
  shard2.unique_bugs.emplace(faults::FaultId::kGeosOverlapsIgnoresHoles,
                             early);
  shard2.unique_bugs.emplace(faults::FaultId::kMysqlOverlapsSwappedAxes,
                             late);
  shard2.discrepancies.push_back(early);
  shard2.iterations_run = 5;
  shard2.checks_run = 50;
  shard2.busy_seconds = 3.0;
  shard2.engine_seconds = 1.5;
  shard2.engine_stats.statements_executed = 32;

  Aggregator agg;
  agg.Merge(shard1);
  agg.Merge(shard2);
  const CampaignResult merged = agg.Finish(/*wall_seconds=*/2.5);

  ASSERT_EQ(merged.unique_bugs.size(), 2u);
  EXPECT_EQ(
      merged.unique_bugs.at(faults::FaultId::kGeosOverlapsIgnoresHoles).detail,
      "early");
  EXPECT_EQ(merged.discrepancies.size(), 2u);
  EXPECT_EQ(merged.iterations_run, 8u);
  EXPECT_EQ(merged.checks_run, 80u);
  EXPECT_DOUBLE_EQ(merged.busy_seconds, 5.0);
  EXPECT_DOUBLE_EQ(merged.engine_seconds, 2.5);
  EXPECT_EQ(merged.engine_stats.statements_executed, 42u);
  EXPECT_DOUBLE_EQ(merged.total_seconds, 2.5);
}

TEST(ShardedCampaign, OneShardEqualsSerialRun) {
  const CampaignConfig config = SmallConfig(Dialect::kPostgis, 2024);

  Campaign serial(config);
  const CampaignResult expected = serial.Run();

  ShardedCampaignConfig sharded;
  sharded.base = config;
  sharded.jobs = 1;
  const CampaignResult actual = ShardedCampaign(sharded).Run();

  EXPECT_EQ(actual.iterations_run, expected.iterations_run);
  EXPECT_EQ(actual.checks_run, expected.checks_run);
  EXPECT_EQ(actual.queries_run, expected.queries_run);
  ASSERT_EQ(actual.discrepancies.size(), expected.discrepancies.size());
  for (size_t i = 0; i < actual.discrepancies.size(); ++i) {
    EXPECT_EQ(actual.discrepancies[i].Signature(),
              expected.discrepancies[i].Signature());
    EXPECT_EQ(actual.discrepancies[i].iteration,
              expected.discrepancies[i].iteration);
  }
  EXPECT_EQ(BugKeys(actual), BugKeys(expected));
  // The winning reproducer per bug is the serial one, not just the key.
  for (const auto& [id, d] : expected.unique_bugs) {
    const auto& got = actual.unique_bugs.at(id);
    EXPECT_EQ(got.iteration, d.iteration);
    EXPECT_EQ(got.query_index, d.query_index);
    EXPECT_EQ(got.Signature(), d.Signature());
  }
}

TEST(ShardedCampaign, ShardCountDoesNotChangeTheUniverse) {
  // The acceptance property: --jobs=4 finds the identical fault-id set as
  // --jobs=1 for the same seed (same discrepancies, differently ordered).
  ShardedCampaignConfig one;
  one.base = SmallConfig(Dialect::kPostgis, 2024);
  one.jobs = 1;
  const CampaignResult r1 = ShardedCampaign(one).Run();

  ShardedCampaignConfig four = one;
  four.jobs = 4;
  const CampaignResult r4 = ShardedCampaign(four).Run();

  EXPECT_GT(r1.unique_bugs.size(), 0u);
  EXPECT_EQ(BugKeys(r4), BugKeys(r1));
  for (const auto& [id, d] : r1.unique_bugs) {
    EXPECT_EQ(r4.unique_bugs.at(id).Signature(), d.Signature())
        << "dedup winner must be schedule-independent";
  }
  EXPECT_EQ(r4.discrepancies.size(), r1.discrepancies.size());
  EXPECT_EQ(r4.checks_run, r1.checks_run);
  EXPECT_EQ(r4.iterations_run, r1.iterations_run);

  // Shard count decoupled from thread count: 4 shards on 2 threads.
  ShardedCampaignConfig uneven = one;
  uneven.jobs = 2;
  uneven.shards = 4;
  const CampaignResult ru = ShardedCampaign(uneven).Run();
  EXPECT_EQ(BugKeys(ru), BugKeys(r1));
  EXPECT_EQ(ru.discrepancies.size(), r1.discrepancies.size());
}

TEST(ShardedCampaign, FleetModeMatchesPerDialectRuns) {
  ShardedCampaignConfig fleet;
  fleet.base = SmallConfig(Dialect::kPostgis, 99);
  fleet.base.iterations = 5;
  fleet.jobs = 2;
  fleet.dialects = ShardedCampaign::AllDialects();
  const CampaignResult merged = ShardedCampaign(fleet).Run();

  std::set<faults::FaultId> expected;
  size_t checks = 0;
  for (const Dialect d : ShardedCampaign::AllDialects()) {
    CampaignConfig config = SmallConfig(d, 99);
    config.iterations = 5;
    Campaign campaign(config);
    const CampaignResult r = campaign.Run();
    for (const auto& [id, _] : r.unique_bugs) expected.insert(id);
    checks += r.checks_run;
  }
  EXPECT_EQ(BugKeys(merged), expected);
  EXPECT_EQ(merged.checks_run, checks);
  EXPECT_EQ(merged.iterations_run, 4u * 5u);
  // The fleet must surface bugs from more than one component.
  std::set<faults::Component> components;
  for (const auto& [id, d] : merged.unique_bugs) {
    components.insert(faults::GetFaultInfo(id).component);
    // Every winning discrepancy records which dialect's shard found it.
    EXPECT_TRUE(d.fault_hits.count(id)) << "winner actually fired the fault";
  }
  EXPECT_GT(components.size(), 1u);
}

TEST(ShardedCampaign, StreamedFindingsAttributeBugsAsMergedResults) {
  // A fleet worker sends each iteration's unique bugs, its first report of
  // each fault, as one BUG frame per (fault, finding) pair, and the
  // supervisor merges the pairs of several workers one at a time, in
  // arrival order (MergeUniqueBug); the in-process runtime merges whole
  // per-iteration results. Fed every iteration's pairs of recorded
  // all-oracle campaigns in random order, the merge must pick the
  // in-process winner for every fault. Seed 4242 with 3 iterations is
  // perfbench suite-j3's round 0, where an EET crash late in an iteration
  // fires GEOS logic faults a diff finding reported earlier in it; at seed
  // 7, iteration 6, DuckDB's first report of geos_within_gc_point_interior
  // loses to MySQL's, and a later DuckDB EET crash that fired it must not
  // win in its place.
  size_t shared_iterations = 0;  // a fault two dialects report at once
  size_t later_reports_ranked_first = 0;  // the crash-after-logic trap
  for (const auto& [seed, iterations] :
       std::vector<std::pair<uint64_t, size_t>>{
           {4242, 3}, {7, 7}, {977, 4}, {1, 4}, {99, 4}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ShardedCampaignConfig config;
    config.base.seed = seed;
    config.base.iterations = iterations;
    config.base.queries_per_iteration = 50;
    config.base.generator.num_geometries = 10;
    config.base.oracles = fuzz::ParseOracleSuite("all").value();
    config.jobs = 3;
    config.dialects = ShardedCampaign::AllDialects();

    std::mutex mu;
    std::vector<std::pair<faults::FaultId, Discrepancy>> pairs;
    std::map<std::pair<faults::FaultId, size_t>, std::set<Dialect>> reporters;
    ShardedCampaign::Observer observer;
    observer.after = [&](Campaign&, uint64_t, uint64_t,
                         CampaignResult* delta) {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [id, d] : delta->unique_bugs) {
        pairs.emplace_back(id, d);
        reporters[{id, d.iteration}].insert(d.dialect);
        for (const Discrepancy& later : delta->discrepancies) {
          if (later.fault_hits.count(id) != 0 &&
              fuzz::DetectedEarlier(later, d)) {
            later_reports_ranked_first++;
          }
        }
      }
    };
    const CampaignResult merged = ShardedCampaign(config).Run(observer);
    ASSERT_FALSE(merged.unique_bugs.empty());
    for (const auto& [key, dialects] : reporters) {
      if (dialects.size() > 1) shared_iterations++;
    }

    Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      for (size_t i = pairs.size(); i > 1; --i) {
        std::swap(pairs[i - 1], pairs[rng.Below(i)]);
      }
      Aggregator streamed;
      for (const auto& [id, d] : pairs) streamed.MergeUniqueBug(id, d);
      const CampaignResult got = streamed.Finish(0);
      ASSERT_EQ(BugKeys(got), BugKeys(merged)) << "round " << round;
      for (const auto& [id, want] : merged.unique_bugs) {
        const Discrepancy& d = got.unique_bugs.at(id);
        ASSERT_EQ(std::tie(d.iteration, d.query_index, d.is_crash, d.oracle,
                           d.dialect, d.detail),
                  std::tie(want.iteration, want.query_index, want.is_crash,
                           want.oracle, want.dialect, want.detail))
            << "round " << round << ": " << faults::GetFaultInfo(id).name;
      }
    }
  }
  // The inputs reach both cases a per-finding merge would get wrong.
  EXPECT_GT(shared_iterations, 0u);
  EXPECT_GT(later_reports_ranked_first, 0u);
}

TEST(Aggregator, MergeUniqueBugNeitherCountsNorKeeps) {
  // The supervisor's BUG frames and a checkpoint's restored bugs: each
  // (fault, finding) pair competes for its fault alone, is not counted
  // (its iteration's SLICEPROGRESS counts it), and the log stays empty, so
  // a long run does not grow.
  Discrepancy late;
  late.iteration = 3;
  late.detail = "late";
  late.fault_hits = {faults::FaultId::kGeosOverlapsIgnoresHoles,
                     faults::FaultId::kMysqlOverlapsSwappedAxes};
  Discrepancy early = late;
  early.iteration = 2;
  early.detail = "early";
  Aggregator agg;
  agg.MergeUniqueBug(faults::FaultId::kGeosOverlapsIgnoresHoles, late);
  agg.MergeUniqueBug(faults::FaultId::kGeosOverlapsIgnoresHoles, early);
  agg.MergeUniqueBug(faults::FaultId::kGeosOverlapsIgnoresHoles, late);
  EXPECT_EQ(agg.current().findings, 0u);
  EXPECT_TRUE(agg.current().discrepancies.empty());
  EXPECT_EQ(BugKeys(agg.current()),
            std::set<faults::FaultId>{
                faults::FaultId::kGeosOverlapsIgnoresHoles});
  EXPECT_EQ(agg.current()
                .unique_bugs.at(faults::FaultId::kGeosOverlapsIgnoresHoles)
                .detail,
            "early");

  // A whole result adds its count and keeps the findings it holds.
  CampaignResult shard;
  shard.Record(late);
  agg.Merge(std::move(shard));
  const CampaignResult merged = agg.Finish(0);
  EXPECT_EQ(merged.findings, 1u);
  EXPECT_EQ(merged.discrepancies.size(), 1u);
  EXPECT_EQ(BugKeys(merged), late.fault_hits);
  EXPECT_EQ(
      merged.unique_bugs.at(faults::FaultId::kGeosOverlapsIgnoresHoles).detail,
      "early");
}

TEST(ShardedCampaign, DiscrepancyOrderIsScheduleIndependent) {
  // Per-iteration merges arrive in schedule order; the finished report is
  // ordered by (iteration, query, dialect) whatever the thread count.
  ShardedCampaignConfig serial;
  serial.base = SmallConfig(Dialect::kPostgis, 99);
  serial.base.iterations = 4;
  serial.jobs = 1;
  serial.dialects = ShardedCampaign::AllDialects();
  ShardedCampaignConfig parallel = serial;
  parallel.jobs = 4;
  const CampaignResult a = ShardedCampaign(serial).Run();
  const CampaignResult b = ShardedCampaign(parallel).Run();
  ASSERT_FALSE(a.discrepancies.empty());
  ASSERT_EQ(a.discrepancies.size(), b.discrepancies.size());
  for (size_t i = 0; i < a.discrepancies.size(); ++i) {
    EXPECT_EQ(a.discrepancies[i].iteration, b.discrepancies[i].iteration);
    EXPECT_EQ(a.discrepancies[i].dialect, b.discrepancies[i].dialect);
    EXPECT_EQ(a.discrepancies[i].Signature(), b.discrepancies[i].Signature());
  }
}

TEST(ShardedCampaign, OwnedSlicesResumeAtTheirMarks) {
  // A fleet worker's run: stride 3, owning slices 1 and 2, with slice 1
  // resumed after one completed iteration. Slice 1 runs 4, 7, 10 and
  // slice 2 runs 2, 5, 8, 11 — each the serial campaign's iteration.
  ShardedCampaignConfig config;
  config.base = SmallConfig(Dialect::kPostgis, 2024);
  config.base.iterations = 12;
  config.jobs = 2;
  config.shards = 3;
  config.slices = {1, 2};
  config.completed[{static_cast<uint64_t>(Dialect::kPostgis), 1}] = 1;

  std::mutex mu;
  std::map<uint64_t, std::vector<size_t>> announced;
  std::map<uint64_t, std::vector<uint64_t>> marks;
  ShardedCampaign::Observer observer;
  observer.before = [&](Campaign&, uint64_t slice, size_t iteration) {
    std::lock_guard<std::mutex> lock(mu);
    announced[slice].push_back(iteration);
    return true;
  };
  observer.after = [&](Campaign&, uint64_t slice, uint64_t completed,
                       CampaignResult*) {
    std::lock_guard<std::mutex> lock(mu);
    marks[slice].push_back(completed);
  };
  const CampaignResult result = ShardedCampaign(config).Run(observer);

  EXPECT_EQ(announced[1], (std::vector<size_t>{4, 7, 10}));
  EXPECT_EQ(announced[2], (std::vector<size_t>{2, 5, 8, 11}));
  EXPECT_EQ(marks[1], (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(marks[2], (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(result.iterations_run, 7u);

  Campaign serial(config.base);
  CampaignResult expected;
  for (const size_t i : {2, 4, 5, 7, 8, 10, 11}) {
    serial.RunIterationAt(i, &expected);
  }
  ASSERT_EQ(result.discrepancies.size(), expected.discrepancies.size());
  for (size_t i = 0; i < expected.discrepancies.size(); ++i) {
    EXPECT_EQ(result.discrepancies[i].iteration,
              expected.discrepancies[i].iteration);
    EXPECT_EQ(result.discrepancies[i].Signature(),
              expected.discrepancies[i].Signature());
  }
}

TEST(ShardedCampaign, WallBudgetSamplesMonotonically) {
  ShardedCampaignConfig config;
  config.base = SmallConfig(Dialect::kPostgis, 7);
  config.base.iterations = 1;  // ignored by duration mode
  config.jobs = 2;
  config.duration_seconds = 0.25;

  std::vector<double> elapsed;
  std::vector<size_t> iterations_seen;
  ShardedCampaign::Observer observer;
  observer.sample = [&](double t, const CampaignResult& live) {
    elapsed.push_back(t);
    iterations_seen.push_back(live.iterations_run);
  };
  const CampaignResult result = ShardedCampaign(config).Run(observer);

  ASSERT_FALSE(elapsed.empty());
  for (size_t i = 1; i < elapsed.size(); ++i) {
    EXPECT_LE(elapsed[i - 1], elapsed[i]);
    EXPECT_LE(iterations_seen[i - 1], iterations_seen[i]);
  }
  EXPECT_GE(result.iterations_run, iterations_seen.back());
  EXPECT_GT(result.checks_run, 0u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.busy_seconds, 0.0);
}

TEST(ShardedCampaign, WallBudgetCoversEveryShardDespiteFewJobs) {
  // Regression: with more (dialect, shard) tasks than worker threads, a
  // fixed-size pool would run the first wave to the deadline and start
  // the rest too late to do anything; duration mode must give every
  // shard its own thread for the whole window.
  ShardedCampaignConfig config;
  config.base = SmallConfig(Dialect::kPostgis, 13);
  config.base.queries_per_iteration = 10;
  config.base.generator.num_geometries = 6;
  config.jobs = 1;  // 4 dialects x 2 shards = 8 tasks on 1 configured job
  config.shards = 2;
  config.dialects = ShardedCampaign::AllDialects();
  config.duration_seconds = 0.4;

  const CampaignResult result = ShardedCampaign(config).Run();
  // Every one of the 8 shard tasks must have completed at least one
  // iteration inside the window.
  EXPECT_GE(result.iterations_run, 8u);
  std::set<Dialect> dialects_seen;
  for (const auto& d : result.discrepancies) dialects_seen.insert(d.dialect);
  EXPECT_GT(dialects_seen.size(), 1u)
      << "late-starting dialects contributed nothing";
}

TEST(Coverage, ConcurrentHitsAreCounted) {
  auto& registry = CoverageRegistry::Instance();
  const size_t point =
      registry.Register("runtime_test", "concurrent_hit_point");
  const auto before = registry.SnapshotHits();
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kHits = 10000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, point] {
      for (int i = 0; i < kHits; ++i) registry.Hit(point);
    });
  }
  for (auto& t : threads) t.join();
  const auto after = registry.SnapshotHits();
  ASSERT_GT(after.size(), point);
  EXPECT_EQ(after[point] - before[point],
            static_cast<uint64_t>(kThreads) * kHits);
}

}  // namespace
}  // namespace spatter::runtime
