// Tests for the telemetry core: concurrent counter/histogram correctness,
// exact per-thread shards (coverage, counters, histograms), quantile
// extraction, snapshot merge associativity, the strict
// spatter-metrics-text-v1 codec, and the flight-recorder trace ring with
// its spatter-trace-v1 JSONL codec.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/coverage.h"
#include "common/thread_slot.h"
#include "obs/trace.h"

namespace spatter::obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(CounterTest, AddNAndReset) {
  Counter c;
  c.Add(41);
  c.Add();
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 9u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 10u);
  EXPECT_EQ(LatencyHistogram::BucketOf(UINT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketLowNs(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketLowNs(10), 1024u);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.RecordNanos(static_cast<uint64_t>(t + 1) * 1000);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

MetricsSnapshot SnapshotOfHistogram(const LatencyHistogram& h,
                                    const std::string& name) {
  MetricsSnapshot s;
  HistogramData d;
  d.buckets.resize(LatencyHistogram::kNumBuckets);
  uint64_t total = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    d.buckets[i] = h.bucket(i);
    total += d.buckets[i];
  }
  d.count = total;
  d.sum_ns = h.sum_ns();
  s.histograms[name] = std::move(d);
  return s;
}

TEST(HistogramTest, QuantilesOrderedAndWithinBounds) {
  LatencyHistogram h;
  // 900 fast observations (~1us) and 100 slow ones (~1ms).
  for (int i = 0; i < 900; ++i) {
    h.RecordNanos(1000);
  }
  for (int i = 0; i < 100; ++i) {
    h.RecordNanos(1000000);
  }
  MetricsSnapshot s = SnapshotOfHistogram(h, "x");
  const HistogramData& d = s.histograms["x"];
  double p50 = d.QuantileSeconds(0.50);
  double p90 = d.QuantileSeconds(0.90);
  double p99 = d.QuantileSeconds(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // p50 falls in the 1us bucket [2^9, 2^10) ns; p99 in the 1ms bucket.
  EXPECT_GE(p50, 512e-9);
  EXPECT_LT(p50, 1024e-9);
  EXPECT_GE(p99, 524288e-9);
  EXPECT_LT(p99, 1048576e-9);
  EXPECT_NEAR(d.MeanSeconds(), (900 * 1e-6 + 100 * 1e-3) / 1000, 1e-9);
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  HistogramData d;
  EXPECT_EQ(d.QuantileSeconds(0.5), 0.0);
  EXPECT_EQ(d.MeanSeconds(), 0.0);
}

TEST(SnapshotTest, MergeSumsCountersAndHistograms) {
  MetricsSnapshot a;
  a.counters["n"] = 3;
  a.gauges["g"] = 7;
  a.histograms["h"].count = 1;
  a.histograms["h"].sum_ns = 1000;
  a.histograms["h"].buckets.assign(LatencyHistogram::kNumBuckets, 0);
  a.histograms["h"].buckets[9] = 1;

  MetricsSnapshot b;
  b.counters["n"] = 5;
  b.counters["only_b"] = 2;
  b.gauges["g"] = 9;
  b.histograms["h"].count = 2;
  b.histograms["h"].sum_ns = 4000;
  b.histograms["h"].buckets.assign(LatencyHistogram::kNumBuckets, 0);
  b.histograms["h"].buckets[10] = 2;

  MetricsSnapshot m = a;
  m.Merge(b);
  EXPECT_EQ(m.counters["n"], 8u);
  EXPECT_EQ(m.counters["only_b"], 2u);
  EXPECT_EQ(m.gauges["g"], 9);  // gauges: incoming wins
  EXPECT_EQ(m.histograms["h"].count, 3u);
  EXPECT_EQ(m.histograms["h"].sum_ns, 5000u);
  EXPECT_EQ(m.histograms["h"].buckets[9], 1u);
  EXPECT_EQ(m.histograms["h"].buckets[10], 2u);
}

TEST(SnapshotTest, MergeIsAssociative) {
  auto make = [](uint64_t seedish) {
    MetricsSnapshot s;
    s.counters["c"] = seedish;
    s.counters["c" + std::to_string(seedish)] = seedish * 11;
    HistogramData h;
    h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
    h.buckets[seedish % LatencyHistogram::kNumBuckets] = seedish + 1;
    h.count = seedish + 1;
    h.sum_ns = seedish * 1000;
    s.histograms["h"] = h;
    return s;
  };
  MetricsSnapshot a = make(1), b = make(2), c = make(3);

  MetricsSnapshot left = a;  // (a+b)+c
  left.Merge(b);
  left.Merge(c);
  MetricsSnapshot bc = b;  // a+(b+c)
  bc.Merge(c);
  MetricsSnapshot right = a;
  right.Merge(bc);
  EXPECT_EQ(left.EncodeText(), right.EncodeText());
}

TEST(SnapshotTest, CodecRoundTrip) {
  MetricsSnapshot s;
  s.counters["campaign.iterations"] = 123;
  s.counters["zero"] = 0;
  s.gauges["corpus.size"] = -5;
  HistogramData h;
  h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  h.buckets[0] = 2;
  h.buckets[20] = 40;
  h.buckets[47] = 1;
  h.count = 43;
  h.sum_ns = 987654321;
  s.histograms["engine.statement"] = h;
  s.histograms["empty.hist"] = HistogramData{};

  std::string text = s.EncodeText();
  Result<MetricsSnapshot> back = MetricsSnapshot::DecodeText(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().EncodeText(), text);
  EXPECT_EQ(back.value().counters.at("campaign.iterations"), 123u);
  EXPECT_EQ(back.value().gauges.at("corpus.size"), -5);
  EXPECT_EQ(back.value().histograms.at("engine.statement").buckets[20], 40u);
  EXPECT_EQ(back.value().histograms.at("empty.hist").count, 0u);
}

TEST(SnapshotTest, DecodeRejectsCorruption) {
  MetricsSnapshot s;
  s.counters["a"] = 1;
  HistogramData h;
  h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  h.buckets[3] = 4;
  h.count = 4;
  h.sum_ns = 100;
  s.histograms["h"] = h;
  const std::string good = s.EncodeText();
  ASSERT_TRUE(MetricsSnapshot::DecodeText(good).ok());

  // Truncations: dropping any suffix must fail.
  for (size_t cut = 1; cut < good.size(); ++cut) {
    EXPECT_FALSE(MetricsSnapshot::DecodeText(good.substr(0, cut)).ok())
        << "accepted truncation at " << cut;
  }
  EXPECT_FALSE(MetricsSnapshot::DecodeText("").ok());
  EXPECT_FALSE(MetricsSnapshot::DecodeText("bogus-magic\nend 0\n").ok());
  // Unknown line kind.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nq a 1\nend 1\n")
                   .ok());
  // Duplicate counter name.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nc a 1\nc a 2\nend 2\n")
                   .ok());
  // Non-numeric value.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nc a 1x\nend 1\n")
                   .ok());
  // Histogram bucket index out of range.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nh h 1 5 99:1\nend 1\n")
                   .ok());
  // Histogram count disagreeing with bucket sum.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nh h 3 5 4:1\nend 1\n")
                   .ok());
  // Buckets out of order.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nh h 2 5 4:1,2:1\nend 1\n")
                   .ok());
  // Wrong end count.
  EXPECT_FALSE(MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) +
                                           "\nc a 1\nend 2\n")
                   .ok());
  // Spellings the encoder never prints: a trailing comma in a bucket list,
  // leading, trailing or repeated spaces, tabs, an indented trailer.
  for (const char* body : {"\nh x 2 30 10:2,\nend 1\n",
                           "\n  c  y   5  \nend 1\n", "\nc\ty\t5\nend 1\n",
                           "\nc a 1\n  end 1\n"}) {
    EXPECT_FALSE(
        MetricsSnapshot::DecodeText(std::string(kMetricsTextMagic) + body)
            .ok())
        << body;
  }
}

TEST(RegistryTest, RegisterSnapshotReset) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.Reset();
  Counter* c = reg.GetCounter("obs_test.counter");
  EXPECT_EQ(c, reg.GetCounter("obs_test.counter"));  // stable pointer
  c->Add(5);
  reg.GetGauge("obs_test.gauge")->Set(17);
  reg.GetHistogram("obs_test.hist")->RecordNanos(2048);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.counter"), 5u);
  EXPECT_EQ(snap.gauges.at("obs_test.gauge"), 17);
  EXPECT_EQ(snap.histograms.at("obs_test.hist").count, 1u);
  EXPECT_EQ(snap.histograms.at("obs_test.hist").buckets[11], 1u);

  reg.Reset();
  MetricsSnapshot zero = reg.Snapshot();
  // Names survive reset with zeroed values.
  EXPECT_EQ(zero.counters.at("obs_test.counter"), 0u);
  EXPECT_EQ(zero.histograms.at("obs_test.hist").count, 0u);
}

TEST(RegistryTest, MacroCachesAndCounts) {
  MetricsRegistry::Instance().Reset();
  for (int i = 0; i < 3; ++i) {
    SPATTER_METRIC_INC("obs_test.macro");
  }
  SPATTER_METRIC_ADD("obs_test.macro", 7);
  EXPECT_EQ(
      MetricsRegistry::Instance().GetCounter("obs_test.macro")->Value(), 10u);
}

// --- Per-thread shards --------------------------------------------------
//
// Coverage hit counters, metrics counters and histograms each write the
// calling thread's shard and sum the shards on read; these pin that the
// sums are exact.

TEST(ShardTest, CoverageCountersAndHistogramsAreExactUnderThreads) {
  CoverageRegistry& cov = CoverageRegistry::Instance();
  std::vector<uint32_t> hit_sites;
  std::vector<uint32_t> idle_sites;
  for (int i = 0; i < 16; ++i) {
    const size_t site =
        cov.Register("obs_test_shards", "site" + std::to_string(i));
    (i < 12 ? hit_sites : idle_sites).push_back(static_cast<uint32_t>(site));
  }
  const std::vector<uint64_t> before = cov.SnapshotHits();
  const size_t covered_before = cov.CoveredSiteCount();
  LatencyHistogram h;
  Counter c;
  constexpr int kThreads = 4;
  constexpr uint64_t kRounds = 20000;
  std::vector<size_t> shards(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t n = static_cast<uint64_t>(t) + 1;
      for (uint64_t i = 0; i < kRounds; ++i) {
        for (uint32_t site : hit_sites) cov.Hit(site, n);
        h.RecordNanos(1000 * n);
        c.Add(n);
      }
      shards[t] = ThreadSlot() % Counter::kShards;
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Threads started one after another take consecutive slots, so they
  // write different shards.
  EXPECT_EQ(std::set<size_t>(shards.begin(), shards.end()).size(),
            static_cast<size_t>(kThreads));

  const std::vector<uint64_t> after = cov.SnapshotHits();
  for (uint32_t site : hit_sites) {
    EXPECT_EQ(after[site] - before[site], kRounds * (1 + 2 + 3 + 4)) << site;
  }
  for (uint32_t site : idle_sites) {
    EXPECT_EQ(after[site], before[site]) << site;
  }
  EXPECT_EQ(cov.CoveredSiteCount(), covered_before + hit_sites.size());
  EXPECT_EQ(cov.NewSitesSince(before), hit_sites);
  EXPECT_EQ(cov.KeysCoveredSince(before), cov.KeysOf(hit_sites));

  EXPECT_EQ(h.count(), kThreads * kRounds);
  EXPECT_EQ(h.sum_ns(), kRounds * 1000 * (1 + 2 + 3 + 4));
  EXPECT_EQ(h.bucket(LatencyHistogram::BucketOf(1000)), kRounds);
  EXPECT_EQ(h.bucket(LatencyHistogram::BucketOf(2000)), kRounds);
  // 3000 and 4000 ns share the [2048, 4096) bucket.
  EXPECT_EQ(h.bucket(LatencyHistogram::BucketOf(3000)), 2 * kRounds);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kRounds);
  EXPECT_EQ(c.Value(), kRounds * (1 + 2 + 3 + 4));
}

TEST(ShardTest, CoverageSnapshotResetRestoreRoundTrips) {
  CoverageRegistry& cov = CoverageRegistry::Instance();
  cov.ResetHits();
  std::vector<size_t> sites;
  for (int i = 0; i < 6; ++i) {
    sites.push_back(
        cov.Register("obs_test_restore", "site" + std::to_string(i)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&cov, &sites, t] {
      for (int i = 0; i <= t; ++i) cov.Hit(sites[static_cast<size_t>(i)], 5);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const std::vector<uint64_t> snap = cov.SnapshotHits();
  const size_t covered = cov.CoveredSiteCount();
  EXPECT_EQ(covered, static_cast<size_t>(std::count_if(
                         snap.begin(), snap.end(),
                         [](uint64_t n) { return n > 0; })));
  EXPECT_EQ(snap[sites[0]], 15u);
  EXPECT_EQ(snap[sites[2]], 5u);
  EXPECT_EQ(snap[sites[3]], 0u);

  cov.ResetHits();
  EXPECT_EQ(cov.CoveredSiteCount(), 0u);
  EXPECT_EQ(cov.HitPoints(), 0u);
  const std::vector<uint64_t> zero = cov.SnapshotHits();
  EXPECT_TRUE(std::all_of(zero.begin(), zero.end(),
                          [](uint64_t n) { return n == 0; }));

  cov.RestoreHits(snap);
  EXPECT_EQ(cov.SnapshotHits(), snap);
  EXPECT_EQ(cov.CoveredSiteCount(), covered);
  EXPECT_EQ(cov.HitPoints(), covered);
  // Hits after a restore add to the restored counts, from any thread.
  std::thread([&cov, &sites] { cov.Hit(sites[3]); }).join();
  EXPECT_EQ(cov.SnapshotHits()[sites[3]], 1u);
  EXPECT_EQ(cov.SnapshotHits()[sites[0]], 15u);
  EXPECT_EQ(cov.CoveredSiteCount(), covered + 1);
}

TEST(ScopedTimerTest, RecordsPositiveDuration) {
  LatencyHistogram h;
  {
    ScopedTimer t(&h, ScopedTimer::Clock::kWall);
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sink = sink + i;
    }
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(JsonTest, EmitsSchemaAndSections) {
  MetricsSnapshot s;
  s.counters["campaign.iterations"] = 9;
  s.gauges["fleet.workers_live"] = 2;
  HistogramData h;
  h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  h.buckets[10] = 3;
  h.count = 3;
  h.sum_ns = 3600;
  s.histograms["oracle.aei.check"] = h;

  MetricsJsonInfo info;
  info.label = "postgis";
  info.seed = 42;
  info.fleet = 2;
  info.jobs = 2;
  info.elapsed_seconds = 1.5;
  info.derived["throughput.iters_per_sec"] = 123.5;

  std::string json = MetricsToJson(s, info);
  EXPECT_NE(json.find("\"schema\": \"spatter-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"campaign.iterations\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"fleet.workers_live\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"oracle.aei.check\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput.iters_per_sec\": 123.500000"),
            std::string::npos);
  EXPECT_NE(json.find("[10, 3]"), std::string::npos);
  // Deterministic rendering: same snapshot renders the same bytes.
  EXPECT_EQ(json, MetricsToJson(s, info));
}

TEST(JsonTest, EscapesNamesAndPrintsThemWhole) {
  // The supervisor renders peers' STATS snapshots and checkpoint baselines,
  // whose names are any token without a space: a quote, a backslash, a
  // control byte, a name longer than any fixed buffer.
  const std::string long_name(300, 'n');
  const std::string text = std::string(kMetricsTextMagic) +
                           "\nc a\"b 1\nc c\\d 2\nc " + long_name +
                           " 4\ng e\x01" "f -3\nh h\"1 0 0 -\nend 5\n";
  Result<MetricsSnapshot> snap = MetricsSnapshot::DecodeText(text);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  MetricsJsonInfo info;
  info.label = "post\"gis";
  info.derived["x\\y"] = 0.5;

  const std::string json = MetricsToJson(snap.value(), info);
  for (const std::string& member :
       {std::string("\"label\": \"post\\\"gis\","),
        std::string("\"a\\\"b\": 1"), std::string("\"c\\\\d\": 2"),
        "\"" + long_name + "\": 4", std::string("\"e\\u0001f\": -3"),
        std::string("\"h\\\"1\": {"), std::string("\"x\\\\y\": 0.500000")}) {
    EXPECT_NE(json.find(member), std::string::npos) << member;
  }
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

// --- Flight-recorder trace ring + spatter-trace-v1 codec -------------------

TraceSnapshot TwoEventSnapshot() {
  TraceSnapshot s;
  s.dropped = 7;
  TraceEvent a;
  a.t_us = 12;
  a.thread = 0;
  a.iteration = 3;
  a.value = 9;
  a.name = "iter.begin";
  TraceEvent b;
  b.t_us = 15;
  b.thread = 2;
  b.iteration = 3;
  b.value = 0;
  b.name = "oracle.verdict";
  b.detail = "aei \"quoted\" back\\slash ctl\x01";
  s.events = {a, b};
  return s;
}

TEST(TraceCodecTest, EncodingIsPinned) {
  // A name and a detail that carry every byte the encoder escapes: the
  // quote, the backslash and each control byte.
  TraceSnapshot s = TwoEventSnapshot();
  s.events[0].name = "q\"b\\";
  std::string every_control;
  for (int c = 0; c < 0x20; ++c) every_control.push_back(static_cast<char>(c));
  s.events[0].detail = every_control + "\"\\~";
  EXPECT_EQ(
      s.EncodeJsonl(),
      "{\"schema\":\"spatter-trace-v1\",\"events\":2,\"dropped\":7}\n"
      "{\"t_us\":12,\"thread\":0,\"iter\":3,\"name\":\"q\\\"b\\\\\","
      "\"value\":9,\"detail\":\""
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\u0008\\u0009\\u000a\\u000b\\u000c\\u000d\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      "\\\"\\\\~\"}\n"
      "{\"t_us\":15,\"thread\":2,\"iter\":3,\"name\":\"oracle.verdict\","
      "\"value\":0,\"detail\":\"aei \\\"quoted\\\" back\\\\slash "
      "ctl\\u0001\"}\n");
}

TEST(TraceCodecTest, EmptySnapshotIsTheHeaderAlone) {
  EXPECT_EQ(TraceSnapshot{}.EncodeJsonl(),
            "{\"schema\":\"spatter-trace-v1\",\"events\":0,\"dropped\":0}\n");
}

TEST(TraceRecorderTest, RingWraparoundKeepsLastKAndCountsDropped) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Reset();
  rec.Enable(1);
  const uint64_t total = TraceRecorder::kRingEvents + 50;
  for (uint64_t i = 0; i < total; ++i) {
    rec.Emit("wrap.ev", i);
  }
  const TraceSnapshot snap = rec.Snapshot();
  rec.Disable();
  rec.Reset();
  ASSERT_EQ(snap.events.size(), TraceRecorder::kRingEvents);
  EXPECT_EQ(snap.dropped, 50u);
  // The ring holds exactly the LAST kRingEvents events, in order.
  EXPECT_EQ(snap.events.front().value, 50u);
  EXPECT_EQ(snap.events.back().value, total - 1);
  for (size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_GE(snap.events[i].t_us, snap.events[i - 1].t_us);
  }
}

TEST(TraceRecorderTest, SamplingIsDeterministicOffTheIterationIndex) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Reset();
  rec.Enable(4);
  rec.BeginIteration(8);  // 8 % 4 == 0: sampled
  rec.Emit("sampled.ev", 1);
  rec.EndIteration();
  rec.BeginIteration(9);  // unsampled: nothing in between records
  rec.Emit("unsampled.ev", 2);
  rec.EndIteration();
  rec.Emit("outside.ev", 3);  // outside iterations always records
  const TraceSnapshot snap = rec.Snapshot();
  rec.Disable();
  rec.Reset();
  std::vector<std::string> names;
  for (const TraceEvent& ev : snap.events) names.push_back(ev.name);
  EXPECT_EQ(names, (std::vector<std::string>{"iter.begin", "sampled.ev",
                                             "iter.end", "outside.ev"}));
  ASSERT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.events[1].iteration, 8u);
  EXPECT_EQ(snap.events[3].iteration, 0u);
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Disable();
  rec.Reset();
  rec.Emit("nope", 1);
  rec.BeginIteration(0);
  rec.Emit("nope.inner", 2);
  rec.EndIteration();
  { ScopedTraceSpan span("nope.span"); }
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(TraceRecorderTest, ScopedSpanRecordsNameDetailAndElapsed) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Reset();
  rec.Enable(1);
  {
    ScopedTraceSpan span("span.ev", "note");
  }
  const TraceSnapshot snap = rec.Snapshot();
  rec.Disable();
  rec.Reset();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].name, "span.ev");
  EXPECT_EQ(snap.events[0].detail, "note");
}

TEST(TraceRecorderTest, ResetDropsEverything) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Reset();
  rec.Enable(1);
  for (uint64_t i = 0; i < TraceRecorder::kRingEvents + 10; ++i) {
    rec.Emit("reset.ev", i);
  }
  EXPECT_GT(rec.Snapshot().dropped, 0u);
  rec.Reset();
  EXPECT_TRUE(rec.Snapshot().empty());
  rec.Disable();
}

TEST(TraceRecorderTest, LongNamesTruncateToSlotCapacity) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Reset();
  rec.Enable(1);
  const std::string long_name(100, 'n');
  const std::string long_detail(100, 'd');
  rec.Emit(long_name.c_str(), 0, long_detail.c_str());
  const TraceSnapshot snap = rec.Snapshot();
  rec.Disable();
  rec.Reset();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].name,
            std::string(TraceRecorder::kNameBytes - 1, 'n'));
  EXPECT_EQ(snap.events[0].detail,
            std::string(TraceRecorder::kDetailBytes - 1, 'd'));
}

TEST(TraceRecorderTest, ConcurrentEmittersGetTheirOwnRings) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Reset();
  rec.Enable(1);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 64;  // below the ring size: no drops
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        rec.Emit("mt.ev", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const TraceSnapshot snap = rec.Snapshot();
  rec.Disable();
  rec.Reset();
  EXPECT_EQ(snap.events.size(), kThreads * kPerThread);
  EXPECT_EQ(snap.dropped, 0u);
}

TEST(TraceFileTest, WriteTraceFileWritesTheEncoding) {
  const TraceSnapshot s = TwoEventSnapshot();
  const std::string path =
      ::testing::TempDir() + "/spatter_trace_file.jsonl";
  ASSERT_TRUE(WriteTraceFile(path, s).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, s.EncodeJsonl());
}

}  // namespace
}  // namespace spatter::obs
