// Crash flight recorder: persists the "what happened last" narrative of a
// dead worker next to its reproducer. Workers keep no ring; the narrative
// is synthesized instead: in pure-generate mode the in-flight iteration's
// input construction is a pure function of (seed, iteration), so the
// supervisor re-runs Campaign::GenerateDatabaseFor under tracing and dumps
// the re-recorded events. A SIGKILLed worker sends nothing, but its
// narrative is recoverable anyway.
//
// Used by the fleet supervisor (src/net/fleet_server.cc) for workers that
// die mid-assignment, next to their inflight-*.sptc reproducers.
#ifndef SPATTER_FLEET_FLIGHT_H_
#define SPATTER_FLEET_FLIGHT_H_

#include <cstdint>
#include <string>

#include "fuzz/campaign.h"
#include "obs/trace.h"

namespace spatter::fleet {

/// Dump file name: "flight-w<worker>-<dialect>-i<iteration>.trace.jsonl",
/// parallel to the supervisor's inflight reproducer naming.
std::string FlightFileName(size_t worker, const std::string& dialect_name,
                           uint64_t iteration);

/// Re-records the events of pure-generate iteration `iteration`'s input
/// construction by running GenerateDatabaseFor with tracing temporarily
/// enabled (sampling forced to 1, the caller's recorder state restored
/// after). Strictly passive for the campaign: the re-run uses its own
/// fresh Rng seeded from (config.seed, iteration). Only events of the
/// target iteration are kept, so a tracing supervisor's own events do
/// not leak into the dump.
obs::TraceSnapshot SynthesizeFlightTrace(const fuzz::CampaignConfig& config,
                                         uint64_t iteration);

/// Persists the synthesized flight dump of worker `worker`'s in-flight
/// iteration into `dir` (created if missing). Returns the written path via
/// `path_out` (optional).
Status PersistFlightRecord(const fuzz::CampaignConfig& config,
                           engine::Dialect dialect, uint64_t iteration,
                           const std::string& dir, size_t worker,
                           std::string* path_out = nullptr);

}  // namespace spatter::fleet

#endif  // SPATTER_FLEET_FLIGHT_H_
