#include "fleet/worker.h"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/coverage.h"
#include "fleet/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace spatter::fleet {

namespace {

using fuzz::Campaign;
using fuzz::CampaignConfig;
using fuzz::CampaignResult;

/// Serializes whole-line writes so frames from concurrent slice threads
/// never interleave. A failed write (supervisor gone) latches `failed`;
/// slice loops poll it and wind down instead of fuzzing into a dead socket.
class FrameWriter {
 public:
  FrameWriter(int fd, uint64_t die_after_frames)
      : fd_(fd), die_after_frames_(die_after_frames) {}

  void Write(const Frame& frame) {
    const std::string line = EncodeFrame(frame);
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return;
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        failed_ = true;
        return;
      }
      off += static_cast<size_t>(n);
    }
    // Test seam: a deterministic SIGKILL right after the Nth frame lands
    // whole on the wire (see WorkerOptions::die_after_frames).
    if (die_after_frames_ > 0 && ++frames_written_ == die_after_frames_) {
      ::kill(::getpid(), SIGKILL);
    }
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  int fd_;
  uint64_t die_after_frames_;
  uint64_t frames_written_ = 0;
  mutable std::mutex mu_;
  bool failed_ = false;
};

/// Entries streamed by the supervisor, drained by slice threads before
/// each iteration (Restore semantics: signature dedup, never re-echoed).
struct IncomingEntries {
  std::mutex mu;
  std::vector<corpus::TestCaseRecord> records;
};

/// Reads supervisor frames until EOF or `exit_flag`. poll() with a
/// timeout so the thread notices `exit_flag` and joins cleanly even when
/// the supervisor holds the connection open past our DONE.
void ReaderLoop(int in_fd, std::atomic<bool>* stop_flag,
                std::atomic<bool>* exit_flag, IncomingEntries* incoming,
                std::atomic<uint64_t>* tune_pct) {
  std::string buffer;
  char chunk[4096];
  while (!exit_flag->load(std::memory_order_relaxed)) {
    struct pollfd pfd = {in_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n == 0) {  // supervisor closed the connection: finish up
      stop_flag->store(true, std::memory_order_relaxed);
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      stop_flag->store(true, std::memory_order_relaxed);
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      auto frame = DecodeFrame(line);
      if (!frame.ok()) continue;  // corrupt line: skip, stay in sync
      if (frame.value().type == FrameType::kEntry) {
        auto decoded = corpus::TestCaseCodec::Decode(frame.value().payload);
        if (!decoded.ok()) continue;
        std::lock_guard<std::mutex> lock(incoming->mu);
        incoming->records.push_back(decoded.Take());
      } else if (frame.value().type == FrameType::kTune) {
        // Fleet-level corpus steering: latch the latest advisory mutate
        // budget; slice loops apply it before their next iteration.
        tune_pct->store(frame.value().mutate_pct, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace

int RunWorker(const WorkerOptions& options, int in_fd, int out_fd) {
  // The supervisor may die while we write; surface that as a latched
  // write failure, not a SIGPIPE kill (which would be indistinguishable
  // from a genuine worker crash and trigger a pointless respawn).
  ::signal(SIGPIPE, SIG_IGN);
  // Fresh-process coverage semantics even when forked from a warm parent
  // (local fleet children, in-process tests): COV deltas must describe
  // THIS worker. Same for metrics — STATS frames carry cumulative values
  // "since this worker started", and the supervisor relies on that
  // baseline.
  CoverageRegistry::Instance().ResetHits();
  obs::MetricsRegistry::Instance().Reset();
  // The flight recorder is always armed in workers, recording every
  // iteration: the ring is bounded (last K events per thread) and
  // strictly passive, and a worker that dies owes the supervisor a
  // narrative.
  obs::TraceRecorder::Instance().Reset();
  obs::TraceRecorder::Instance().Enable();

  std::vector<engine::Dialect> dialects = options.dialects;
  if (dialects.empty()) dialects.push_back(options.base.dialect);

  const std::vector<uint64_t>& slices = options.slices;

  FrameWriter writer(out_fd, options.die_after_frames);
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_exit{false};
  // TUNE latch: ~0 = never tuned. Written by the reader, applied by slice
  // loops between iterations.
  std::atomic<uint64_t> tune_pct{~uint64_t{0}};
  IncomingEntries incoming;
  std::thread reader(ReaderLoop, in_fd, &stop, &reader_exit, &incoming,
                     &tune_pct);

  Frame hello;
  hello.type = FrameType::kHello;
  hello.worker = options.index;
  hello.pid = static_cast<uint64_t>(::getpid());
  hello.slice_offset = slices.empty() ? 0 : slices.front();
  hello.slice_count = slices.size();
  hello.total_slices = options.total_slices;
  writer.Write(hello);

  // Corpus seeds arrive as ENTRY frames (drained before each iteration).
  CampaignConfig base = options.base;
  base.corpus.log_admissions = base.corpus.enabled;

  const double t0 = Campaign::NowSeconds();
  const double deadline = options.duration_seconds;

  // Shared COV heartbeat state: one snapshot for the whole process (the
  // registry is process-global), sent by whichever slice thread crosses
  // the interval first.
  std::mutex cov_mu;
  std::vector<uint64_t> cov_snapshot;  // empty = everything is new
  double last_cov = t0;
  std::atomic<uint64_t> total_iterations{0};
  std::atomic<uint64_t> total_queries{0};

  // Final counters, accumulated as slice tasks finish.
  std::mutex done_mu;
  CampaignResult totals;

  auto run_slice = [&](engine::Dialect dialect, size_t slice) {
    CampaignConfig cfg = base;
    cfg.dialect = dialect;
    Campaign campaign(cfg);
    const double task_t0 = Campaign::NowSeconds();
    const engine::EngineStats stats_t0 = campaign.engine().stats();

    uint64_t completed = 0;
    const auto it = options.completed.find(
        {static_cast<uint64_t>(dialect), static_cast<uint64_t>(slice)});
    if (it != options.completed.end()) completed = it->second;

    // Absolute completed-iteration count for SLICEPROGRESS: it includes
    // the resume offset, so the supervisor's checkpoint high-water mark
    // is a plain copy of the latest value, valid across requeues and
    // resumes alike.
    uint64_t completed_abs = completed;
    size_t iteration = slice + completed * options.total_slices;
    size_t incoming_cursor = 0;
    uint64_t tune_applied = ~uint64_t{0};
    while (!stop.load(std::memory_order_relaxed) && !writer.failed()) {
      // Advisory fleet steering: adopt the latest TUNE mutate budget.
      const uint64_t tuned = tune_pct.load(std::memory_order_relaxed);
      if (tuned != tune_applied) {
        campaign.SetMutatePct(static_cast<int>(tuned));
        tune_applied = tuned;
      }
      if (deadline > 0) {
        if (Campaign::NowSeconds() - t0 >= deadline) break;
      } else if (iteration >= cfg.iterations) {
        break;
      }
      // Cross-process corpus sync: fold in what the supervisor streamed
      // since our last look. `incoming.records` is append-only, so a
      // per-slice cursor reads each record once.
      if (campaign.corpus() != nullptr) {
        std::vector<corpus::TestCaseRecord> records;
        {
          std::lock_guard<std::mutex> lock(incoming.mu);
          records.assign(
              incoming.records.begin() +
                  static_cast<ptrdiff_t>(incoming_cursor),
              incoming.records.end());
          incoming_cursor = incoming.records.size();
        }
        for (auto& record : records) campaign.corpus()->Restore(record);
      }

      Frame inflight;
      inflight.type = FrameType::kInflight;
      inflight.dialect = static_cast<uint64_t>(dialect);
      inflight.slice = slice;
      inflight.iteration = iteration;
      writer.Write(inflight);

      CampaignResult delta;
      campaign.RunIterationAt(iteration, &delta, t0);
      total_iterations.fetch_add(1, std::memory_order_relaxed);
      total_queries.fetch_add(delta.queries_run, std::memory_order_relaxed);

      for (const fuzz::Discrepancy& d : delta.discrepancies) {
        auto bug = MakeBugFrame(d, cfg.seed);
        if (bug.ok()) writer.Write(bug.value());
      }
      if (campaign.corpus() != nullptr) {
        for (const auto& record : campaign.corpus()->TakeNewlyAdmitted()) {
          auto encoded = corpus::TestCaseCodec::Encode(record);
          if (!encoded.ok()) continue;
          Frame entry;
          entry.type = FrameType::kEntry;
          entry.payload = encoded.Take();
          writer.Write(entry);
        }
      }
      {
        std::lock_guard<std::mutex> lock(done_mu);
        totals.queries_run += delta.queries_run;
        totals.checks_run += delta.checks_run;
        totals.iterations_run += delta.iterations_run;
      }

      const double now = Campaign::NowSeconds();
      bool send_cov = false;
      Frame cov;
      {
        std::lock_guard<std::mutex> lock(cov_mu);
        if (now - last_cov >= options.cov_interval_seconds) {
          auto& registry = CoverageRegistry::Instance();
          cov.type = FrameType::kCov;
          cov.elapsed = now - t0;
          cov.iterations = total_iterations.load(std::memory_order_relaxed);
          cov.queries = total_queries.load(std::memory_order_relaxed);
          // Snapshot BEFORE diffing: a site another slice first-hits
          // between the two calls then lands in the delta AND the next
          // round (double-reported into a set union — harmless); the
          // other order would bake it into the snapshot unreported and
          // lose it from the curve forever.
          std::vector<uint64_t> next_snapshot = registry.SnapshotHits();
          cov.site_keys = registry.KeysCoveredSince(cov_snapshot);
          cov_snapshot = std::move(next_snapshot);
          last_cov = now;
          send_cov = true;
        }
      }
      if (send_cov) {
        writer.Write(cov);
        // STATS rides the COV cadence: one registry snapshot per
        // heartbeat, cumulative since worker start.
        Frame stats;
        stats.type = FrameType::kStats;
        stats.elapsed = cov.elapsed;
        stats.stats = obs::MetricsRegistry::Instance().Snapshot();
        writer.Write(stats);
      }

      // SLICEPROGRESS is the LAST frame of the iteration, after its BUG,
      // ENTRY, and COV frames: a supervisor checkpoint that includes
      // this mark has necessarily merged everything the iteration
      // produced (the stream preserves order), so skipping the iteration
      // on resume loses neither bugs nor coverage. The converse tear —
      // checkpoint sees the frames but not the mark — only re-runs the
      // iteration, and the re-reports dedup away.
      completed_abs++;
      Frame progress;
      progress.type = FrameType::kSliceProgress;
      progress.dialect = static_cast<uint64_t>(dialect);
      progress.slice = slice;
      progress.completed = completed_abs;
      writer.Write(progress);

      iteration += options.total_slices;
    }

    // The loop only exits BETWEEN iterations (budget done, deadline hit,
    // or supervisor gone), so the last INFLIGHT iteration completed:
    // without this frame the supervisor would persist it as a phantom
    // in-flight crash case if the process dies later in another slice.
    Frame slice_done;
    slice_done.type = FrameType::kSliceDone;
    slice_done.dialect = static_cast<uint64_t>(dialect);
    slice_done.slice = slice;
    writer.Write(slice_done);

    CampaignResult timing;
    campaign.FinalizeResult(&timing, task_t0, stats_t0);
    std::lock_guard<std::mutex> lock(done_mu);
    totals.busy_seconds += timing.busy_seconds;
    totals.engine_seconds += timing.engine_seconds;
  };

  {
    // Batch tasks queue onto one thread per owned slice; duration tasks
    // must all run concurrently (a task started after the deadline
    // contributes nothing), so oversubscribe exactly like ShardedCampaign.
    const size_t tasks = dialects.size() * slices.size();
    runtime::ThreadPool pool(deadline > 0
                                 ? std::max(slices.size(), tasks)
                                 : std::max<size_t>(1, slices.size()));
    for (const engine::Dialect dialect : dialects) {
      for (const size_t slice : slices) {
        pool.Submit([&run_slice, dialect, slice] { run_slice(dialect, slice); });
      }
    }
    pool.Wait();
  }

  // Final COV so the supervisor's curve sees the tail, then DONE.
  {
    std::lock_guard<std::mutex> lock(cov_mu);
    Frame cov;
    cov.type = FrameType::kCov;
    cov.elapsed = Campaign::NowSeconds() - t0;
    cov.iterations = total_iterations.load(std::memory_order_relaxed);
    cov.queries = total_queries.load(std::memory_order_relaxed);
    cov.site_keys = CoverageRegistry::Instance().KeysCoveredSince(cov_snapshot);
    cov_snapshot = CoverageRegistry::Instance().SnapshotHits();
    writer.Write(cov);
  }
  // Final STATS precedes DONE so the supervisor's merged fleet view is
  // complete before it retires this incarnation's live snapshot.
  Frame final_stats;
  final_stats.type = FrameType::kStats;
  final_stats.elapsed = Campaign::NowSeconds() - t0;
  final_stats.stats = obs::MetricsRegistry::Instance().Snapshot();
  writer.Write(final_stats);

  // The flight-recorder ring, after the last iteration and before DONE: a
  // worker that gets this far hands the supervisor its real final
  // narrative; one killed earlier leaves synthesis to the supervisor.
  Frame trace;
  trace.type = FrameType::kTrace;
  trace.elapsed = Campaign::NowSeconds() - t0;
  trace.trace = obs::TraceRecorder::Instance().Snapshot();
  writer.Write(trace);

  Frame done;
  done.type = FrameType::kDone;
  done.iterations = totals.iterations_run;
  done.queries = totals.queries_run;
  done.checks = totals.checks_run;
  done.busy_seconds = totals.busy_seconds;
  done.engine_seconds = totals.engine_seconds;
  writer.Write(done);

  reader_exit.store(true, std::memory_order_relaxed);
  reader.join();
  return writer.failed() ? 1 : 0;
}

}  // namespace spatter::fleet
