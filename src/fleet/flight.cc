#include "fleet/flight.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/fsio.h"

namespace spatter::fleet {

std::string FlightFileName(size_t worker, const std::string& dialect_name,
                           uint64_t iteration) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "flight-w%zu-%s-i%" PRIu64 ".trace.jsonl",
                worker, dialect_name.c_str(), iteration);
  return buf;
}

obs::TraceSnapshot SynthesizeFlightTrace(const fuzz::CampaignConfig& config,
                                         uint64_t iteration) {
  obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
  const bool was_enabled = tracer.enabled();
  const uint64_t was_sample = tracer.sample_every();
  tracer.Enable(1);
  tracer.BeginIteration(iteration);
  (void)fuzz::Campaign::GenerateDatabaseFor(config,
                                            static_cast<size_t>(iteration));
  tracer.EndIteration();
  obs::TraceSnapshot all = tracer.Snapshot();
  if (was_enabled) {
    tracer.Enable(was_sample);
  } else {
    tracer.Disable();
  }
  // Keep the target iteration's events only: a --trace-out supervisor's
  // own recorded history (checkpoint writes, earlier syntheses) stays out
  // of this worker's dump.
  obs::TraceSnapshot out;
  for (auto& ev : all.events) {
    if (ev.iteration == iteration) out.events.push_back(std::move(ev));
  }
  return out;
}

Status PersistFlightRecord(const fuzz::CampaignConfig& config,
                           engine::Dialect dialect, uint64_t iteration,
                           const std::string& dir, size_t worker,
                           std::string* path_out) {
  fuzz::CampaignConfig cfg = config;
  cfg.dialect = dialect;
  const obs::TraceSnapshot dump = SynthesizeFlightTrace(cfg, iteration);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path =
      std::filesystem::path(dir) /
      FlightFileName(worker, engine::DialectName(dialect), iteration);
  if (path_out != nullptr) *path_out = path.string();
  return obs::WriteTraceFile(path.string(), dump);
}

}  // namespace spatter::fleet
