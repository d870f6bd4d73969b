#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/fsio.h"
#include "common/strings.h"

namespace spatter::obs {

namespace {

/// Per-thread iteration state: the sampling verdict decided by
/// BeginIteration, inherited by every Emit until EndIteration.
struct IterState {
  bool in_iteration = false;
  bool sampled = false;
  uint64_t iteration = 0;
};

thread_local IterState tls_iter;

}  // namespace

// ---------------------------------------------------------------------------
// Ring storage

/// One event slot guarded by a seqlock sequence: odd while the owning
/// thread is writing, even when stable. Readers retry on a changing or
/// odd sequence and give up after a few attempts — a skipped event beats
/// a torn one.
struct TraceRecorder::Slot {
  std::atomic<uint32_t> seq{0};
  uint64_t t_us = 0;
  uint64_t iteration = 0;
  uint64_t value = 0;
  char name[kNameBytes] = {};
  char detail[kDetailBytes] = {};
};

struct alignas(64) TraceRecorder::Ring {
  uint32_t thread = 0;
  std::atomic<uint64_t> next{0};  ///< events ever written to this ring
  Slot slots[kRingEvents];
};

TraceRecorder& TraceRecorder::Instance() {
  static TraceRecorder* instance = new TraceRecorder();  // leaked singleton
  return *instance;
}

TraceRecorder::Ring* TraceRecorder::GetRing() const {
  thread_local Ring* tls_ring = nullptr;
  thread_local const TraceRecorder* tls_owner = nullptr;
  if (tls_ring != nullptr && tls_owner == this) return tls_ring;
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_unique<Ring>();
  ring->thread = static_cast<uint32_t>(rings_.size());
  tls_ring = ring.get();
  tls_owner = this;
  rings_.push_back(std::move(ring));
  return tls_ring;
}

uint64_t TraceRecorder::NowMicros() const {
  const uint64_t now_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  const uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return now_ns >= epoch ? (now_ns - epoch) / 1000 : 0;
}

void TraceRecorder::Enable(uint64_t sample_every) {
  sample_every_.store(sample_every == 0 ? 1 : sample_every,
                      std::memory_order_relaxed);
  uint64_t expected = 0;
  const uint64_t now_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  // Arm the epoch only on the first Enable since Reset, so re-enabling
  // around a flight-recorder synthesis keeps one time base.
  epoch_ns_.compare_exchange_strong(expected, now_ns,
                                    std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    ring->next.store(0, std::memory_order_relaxed);
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
    }
  }
  epoch_ns_.store(0, std::memory_order_relaxed);
  tls_iter = IterState{};
}

void TraceRecorder::BeginIteration(uint64_t iteration) {
  tls_iter.in_iteration = true;
  tls_iter.iteration = iteration;
  if (!enabled_.load(std::memory_order_relaxed)) {
    tls_iter.sampled = false;
    return;
  }
  const uint64_t n = sample_every_.load(std::memory_order_relaxed);
  tls_iter.sampled = n <= 1 || iteration % n == 0;
  Emit("iter.begin");
}

void TraceRecorder::EndIteration() {
  Emit("iter.end");
  tls_iter.in_iteration = false;
  tls_iter.sampled = false;
  tls_iter.iteration = 0;
}

void TraceRecorder::Emit(const char* name, uint64_t value,
                         const char* detail) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (tls_iter.in_iteration && !tls_iter.sampled) return;
  Ring* ring = GetRing();
  const uint64_t n = ring->next.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[n % kRingEvents];
  const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);  // odd: write begins
  slot.t_us = NowMicros();
  slot.iteration = tls_iter.in_iteration ? tls_iter.iteration : 0;
  slot.value = value;
  std::strncpy(slot.name, name == nullptr ? "" : name, kNameBytes - 1);
  slot.name[kNameBytes - 1] = '\0';
  std::strncpy(slot.detail, detail == nullptr ? "" : detail,
               kDetailBytes - 1);
  slot.detail[kDetailBytes - 1] = '\0';
  slot.seq.store(seq + 2, std::memory_order_release);  // even: stable
  ring->next.store(n + 1, std::memory_order_release);
}

TraceSnapshot TraceRecorder::Snapshot() const {
  TraceSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    const uint64_t written = ring->next.load(std::memory_order_acquire);
    const uint64_t first =
        written > kRingEvents ? written - kRingEvents : 0;
    out.dropped += first;
    for (uint64_t i = first; i < written; ++i) {
      const Slot& slot = ring->slots[i % kRingEvents];
      TraceEvent ev;
      bool stable = false;
      for (int attempt = 0; attempt < 4 && !stable; ++attempt) {
        const uint32_t before = slot.seq.load(std::memory_order_acquire);
        if (before % 2 != 0) continue;
        ev.t_us = slot.t_us;
        ev.iteration = slot.iteration;
        ev.value = slot.value;
        char name[kNameBytes];
        char detail[kDetailBytes];
        std::memcpy(name, slot.name, kNameBytes);
        std::memcpy(detail, slot.detail, kDetailBytes);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != before) continue;
        name[kNameBytes - 1] = '\0';
        detail[kDetailBytes - 1] = '\0';
        ev.name = name;
        ev.detail = detail;
        stable = true;
      }
      if (!stable) {
        out.dropped++;
        continue;
      }
      ev.thread = ring->thread;
      out.events.push_back(std::move(ev));
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t_us != b.t_us) return a.t_us < b.t_us;
                     return a.thread < b.thread;
                   });
  return out;
}

// ---------------------------------------------------------------------------
// spatter-trace-v1 JSONL codec

std::string TraceSnapshot::EncodeJsonl() const {
  std::string out;
  AppendF(&out, "{\"schema\":\"%s\",\"events\":%llu,\"dropped\":%llu}\n",
          kTraceJsonSchema, static_cast<unsigned long long>(events.size()),
          static_cast<unsigned long long>(dropped));
  for (const TraceEvent& ev : events) {
    AppendF(&out, "{\"t_us\":%llu,\"thread\":%u,\"iter\":%llu,\"name\":",
            static_cast<unsigned long long>(ev.t_us), ev.thread,
            static_cast<unsigned long long>(ev.iteration));
    AppendJsonString(&out, ev.name);
    AppendF(&out, ",\"value\":%llu,\"detail\":",
            static_cast<unsigned long long>(ev.value));
    AppendJsonString(&out, ev.detail);
    out.append("}\n");
  }
  return out;
}

// ---------------------------------------------------------------------------

ScopedTraceSpan::ScopedTraceSpan(const char* name, const char* detail)
    : name_(name), detail_(detail) {
  TraceRecorder& rec = TraceRecorder::Instance();
  if (!rec.enabled()) return;
  if (tls_iter.in_iteration && !tls_iter.sampled) return;
  start_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedTraceSpan::~ScopedTraceSpan() {
  if (start_ns_ == 0) return;
  const uint64_t now_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  TraceRecorder::Instance().Emit(name_, (now_ns - start_ns_) / 1000,
                                 detail_);
}

Status WriteTraceFile(const std::string& path,
                      const TraceSnapshot& snapshot) {
  return AtomicWriteFile(path, snapshot.EncodeJsonl());
}

}  // namespace spatter::obs
