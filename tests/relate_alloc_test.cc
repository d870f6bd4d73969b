// A relate call allocates nothing once its per-thread buffers are warm.
//
// Every AEI query relates a fresh affine image of SDB1, so most kernel
// runs are first sightings the memo cannot answer; a heap allocation in
// them is paid on every pair of the SDB2 join. This binary replaces the
// global operator new to count allocations (it is a binary of its own so
// the replacement touches no other suite) and holds Relate to zero on the
// empty-operand exits, the envelope pre-filter, the kernel and the memo's
// hits, a hit that moves its record to the log's head included, and the
// kernel's operand cache, its hits and its misses into warm slots, with
// faults null and with enabled faults that do not fire.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "algo/affine.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz/generator.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "obs/metrics.h"
#include "relate/named_predicates.h"
#include "relate/relate.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* Allocate(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every form is replaced, so no allocation pairs one of these with a
// sanitizer's or the library's own operator.
void* operator new(std::size_t n) {
  return Allocate(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return Allocate(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t align) {
  return Allocate(n, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return Allocate(n, static_cast<std::size_t>(align));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace spatter::relate {
namespace {

using geom::Geometry;
using geom::GeomPtr;

// Generated rows of all four dialects, parsed. Collections nested three
// deep are left out: kGeosCrashRelateNestedGc would fire on them.
std::vector<GeomPtr> GeneratedGeometries() {
  std::vector<GeomPtr> out;
  std::set<std::string> seen;  // each key once: a repeat would be a hit
  for (int d = 0; d < engine::kNumDialects; ++d) {
    engine::Engine e(static_cast<engine::Dialect>(d), false);
    fuzz::GeneratorConfig config;
    config.num_geometries = 20;
    Rng rng(300 + static_cast<uint64_t>(d));
    fuzz::GeometryAwareGenerator gen(config, &rng, &e);
    for (const fuzz::TableSpec& table : gen.Generate(nullptr).tables) {
      for (const std::string& wkt : table.rows) {
        Result<GeomPtr> g = geom::ReadWkt(wkt);
        if (g.ok() && NestingDepth(*g.value()) < 3 &&
            seen.insert(geom::WriteWkbHex(*g.value())).second) {
          out.push_back(g.Take());
        }
      }
    }
  }
  for (const char* wkt : {"POINT EMPTY", "GEOMETRYCOLLECTION EMPTY",
                          "POINT(1000 1000)"}) {
    GeomPtr g = geom::ReadWkt(wkt).Take();
    if (seen.insert(geom::WriteWkbHex(*g)).second) out.push_back(std::move(g));
  }
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name)->Value();
}

TEST(RelateAllocations, NoneAfterWarmUp) {
  const std::vector<GeomPtr> base = GeneratedGeometries();
  ASSERT_GT(base.size(), 40u);
  // The timed calls relate translated copies of every pair: keys the memo
  // has never seen. In the first pass each call that passes the front
  // runs the kernel and none is a hit. The second pass relates a second
  // copy's pairs twice in a row: the second call is a hit on the record the
  // first logged.
  std::vector<GeomPtr> fresh[2];
  for (int copy = 0; copy < 2; ++copy) {
    const auto shift =
        algo::AffineTransform::Translation(1000 - 3000 * copy, -1000);
    for (const GeomPtr& g : base) fresh[copy].push_back(shift.Apply(*g));
  }

  faults::FaultState quiet;  // enabled, but nothing in Relate fires them
  quiet.Enable(faults::FaultId::kGeosCrashRelateNestedGc);
  quiet.Enable(faults::FaultId::kGeosMixedDimensionFirstElement);
  const faults::FaultState* settings[] = {nullptr, &quiet};

  // Warm-up: the kernel on the timed inputs (RelateUnmemoized keeps them
  // unseen by the memo), and every named predicate on the base pairs,
  // which grows the memo's own buffers to the same key sizes.
  for (const faults::FaultState* f : settings) {
    for (const auto& copy : fresh) {
      for (const GeomPtr& a : copy) {
        for (const GeomPtr& b : copy) {
          ASSERT_TRUE(RelateUnmemoized(*a, *b, f).ok());
        }
      }
    }
    for (const GeomPtr& a : base) {
      for (const GeomPtr& b : base) {
        ASSERT_TRUE(Intersects(*a, *b, f).ok());
        ASSERT_TRUE(Disjoint(*a, *b, f).ok());
        ASSERT_TRUE(Within(*a, *b, f).ok());
        ASSERT_TRUE(Covers(*a, *b, f).ok());
        ASSERT_TRUE(Touches(*a, *b, f).ok());
        ASSERT_TRUE(TopoEquals(*a, *b, f).ok());
      }
    }
  }

  // Warms every slot of the kernel's operand cache (relate.h: 64 slots, a
  // miss takes the oldest) for every timed operand: each is related to
  // itself under 64 enabled sets in a row, sets of faults Relate never
  // reads. Each call is one miss (B is A's key) with the same operand, so
  // the 64 misses fill every slot with it, and a slot keeps its buffers'
  // capacity. A timed first sighting is then a miss into a warm slot.
  std::vector<faults::FaultId> unread;
  for (uint32_t id = 0; unread.size() < 6; ++id) {
    const auto fault = static_cast<faults::FaultId>(id);
    if (fault != faults::FaultId::kGeosCrashRelateNestedGc &&
        fault != faults::FaultId::kGeosGcBoundaryLastOneWins &&
        fault != faults::FaultId::kGeosBoundaryEmptyElementDrop) {
      unread.push_back(fault);
    }
  }
  for (const auto& copy : fresh) {
    for (const GeomPtr& g : copy) {
      for (uint32_t set = 0; set < 64; ++set) {
        faults::FaultState state;
        for (size_t bit = 0; bit < unread.size(); ++bit) {
          if (set >> bit & 1) state.Enable(unread[bit]);
        }
        ASSERT_TRUE(Relate(*g, *g, &state).ok());
      }
    }
  }

  // Relates `n` pairs no call has related on `f`, untimed, each a kernel
  // run whose record takes about 2,000 words of the memo's log: a line of
  // 1,000 repeated vertices against a bar.
  int next_key = 0;
  const auto one_off_keys = [&](int n, const faults::FaultState* f) {
    for (int i = 0; i < n; ++i, ++next_key) {
      const double x = -5000.0 - next_key;
      std::vector<geom::Coord> pts(1000, geom::Coord{x, 0});
      pts.push_back({x, 10});
      const GeomPtr line = geom::MakeLineString(std::move(pts));
      const GeomPtr bar = geom::MakeLineString({{x - 1, 5}, {x + 1, 5}});
      ASSERT_TRUE(Relate(*line, *bar, f).ok());
    }
  };
  const GeomPtr square =
      geom::ReadWkt("POLYGON((7000 7000,7004 7000,7004 7004,7000 7004,"
                    "7000 7000))")
          .Take();
  const GeomPtr cross = geom::ReadWkt("LINESTRING(6999 7001.5,7005 7002.5)")
                            .Take();

  // Relates every pair of `copy` `times` times in a row on `f`, counting
  // allocations; returns the calls made.
  size_t allocations = 0;
  std::string first;  // the first pair that allocated
  const auto timed_pass = [&](const std::vector<GeomPtr>& copy, int times,
                              const faults::FaultState* f) {
    size_t calls = 0;
    allocations = 0;
    first.clear();
    for (const GeomPtr& a : copy) {
      for (const GeomPtr& b : copy) {
        for (int i = 0; i < times; ++i) {
          g_allocations.store(0);
          g_counting.store(true);
          const Result<IntersectionMatrix> im = Relate(*a, *b, f);
          g_counting.store(false);
          EXPECT_TRUE(im.ok()) << a->ToWkt() << " / " << b->ToWkt();
          const size_t n = g_allocations.load();
          if (n > 0 && first.empty()) {
            first = a->ToWkt() + " / " + b->ToWkt();
          }
          allocations += n;
          ++calls;
        }
      }
    }
    return calls;
  };

  for (const faults::FaultState* f : settings) {
    const std::string label = f ? "enabled faults" : "faults null";
    uint64_t full = CounterValue("relate.full");
    const uint64_t prefiltered = CounterValue("relate.envelope_prefilter");
    uint64_t hits = CounterValue("relate.memo.hit");
    const uint64_t operand_hits = CounterValue("relate.operand.hit");
    size_t calls = timed_pass(fresh[0], 1, f);
    EXPECT_EQ(allocations, 0u)
        << label << ", over " << calls << " calls; first: " << first;
    EXPECT_EQ(CounterValue("relate.memo.hit"), hits) << label;
    EXPECT_GT(CounterValue("relate.full") - full, calls / 10) << label;
    // Each operand's first sighting misses the operand cache; most later
    // ones hit.
    const uint64_t lookups = 2 * (CounterValue("relate.full") - full);
    EXPECT_GT(CounterValue("relate.operand.hit") - operand_hits, lookups / 2)
        << label;
    EXPECT_LT(CounterValue("relate.operand.hit") - operand_hits, lookups)
        << label;
    if (f == nullptr) {
      EXPECT_GT(CounterValue("relate.envelope_prefilter") - prefiltered,
                calls / 10);
    }

    // Each kernel pair of the second copy: one kernel run, then a hit.
    full = CounterValue("relate.full");
    hits = CounterValue("relate.memo.hit");
    calls = timed_pass(fresh[1], 2, f);
    EXPECT_EQ(allocations, 0u) << label << ", second pass over " << calls
                               << " calls; first: " << first;
    const uint64_t kernel_runs = CounterValue("relate.full") - full;
    EXPECT_GT(kernel_runs, calls / 20) << label;
    EXPECT_EQ(CounterValue("relate.memo.hit") - hits, kernel_runs) << label;

    // A pair hit after 40K words of one-off keys finds its record older
    // than half the memo's 64K-word log and moves it to the head. Hit
    // again after 40K words more, it is still logged only because it moved.
    ASSERT_TRUE(Relate(*square, *cross, f).ok());  // the kernel logs it
    for (int round = 0; round < 2; ++round) {
      one_off_keys(20, f);  // 40K words
      if (HasFatalFailure()) return;
      full = CounterValue("relate.full");
      hits = CounterValue("relate.memo.hit");
      g_allocations.store(0);
      g_counting.store(true);
      const Result<IntersectionMatrix> im = Relate(*square, *cross, f);
      g_counting.store(false);
      EXPECT_TRUE(im.ok());
      EXPECT_EQ(g_allocations.load(), 0u) << label << ", round " << round;
      EXPECT_EQ(CounterValue("relate.full"), full) << label << ", " << round;
      EXPECT_EQ(CounterValue("relate.memo.hit") - hits, 1u)
          << label << ", round " << round;
    }
    if (f != nullptr) {
      EXPECT_TRUE(f->Hits().empty()) << "a fault fired";
    }
  }
}

}  // namespace
}  // namespace spatter::relate
