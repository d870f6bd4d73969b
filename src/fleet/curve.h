// Time-sampled site-coverage curves (the paper's Figure 8): elapsed wall
// time vs distinct coverage sites, unique bugs, and iterations, recorded
// while a duration-budget campaign runs and written as JSON for plotting.
//
// The recorder is the one curve implementation shared by every producer:
// the in-process duration mode (`spatter --duration=S`, sampled from the
// ShardedCampaign sampler), the fleet supervisor (sampled from worker COV
// frames), and the bench_fig8_curves gate.
#ifndef SPATTER_FLEET_CURVE_H_
#define SPATTER_FLEET_CURVE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace spatter::fleet {

struct CurveSample {
  double elapsed_seconds = 0.0;
  uint64_t covered_sites = 0;
  uint64_t unique_bugs = 0;
  uint64_t iterations = 0;
};

/// Campaign-level metadata stamped into the JSON header so a curve file is
/// self-describing (which run produced it, at what scale).
struct CurveInfo {
  std::string label;     ///< e.g. dialect name or "fleet (all dialects)"
  uint64_t seed = 0;
  uint64_t fleet = 1;    ///< worker processes
  uint64_t jobs = 1;     ///< shards/threads per process
  double duration_seconds = 0.0;
};

/// Thread-safe sample accumulator. Add() throttles itself: a sample is
/// kept when at least `min_interval_seconds` passed since the last kept
/// sample OR any counter changed — so curves stay dense where the signal
/// moves and small where it plateaus.
class CurveRecorder {
 public:
  explicit CurveRecorder(double min_interval_seconds = 0.05)
      : min_interval_(min_interval_seconds) {}

  void Add(double elapsed_seconds, uint64_t covered_sites,
           uint64_t unique_bugs, uint64_t iterations);

  /// Replaces the recorded samples wholesale (checkpoint resume: the
  /// restored prefix is re-seated verbatim, and subsequent Add()s continue
  /// through the same throttling and monotonicity rules).
  void Preload(std::vector<CurveSample> samples);

  std::vector<CurveSample> samples() const;

  /// Writes the curve as JSON:
  ///   {"schema": "spatter-fig8-curve-v1", "label": ..., "seed": ...,
  ///    "fleet": ..., "jobs": ..., "duration_seconds": ...,
  ///    "samples": [{"t": ..., "sites": ..., "unique_bugs": ...,
  ///                 "iterations": ...}, ...]}
  Status WriteJson(const std::string& path, const CurveInfo& info) const;

  /// The JSON document itself (for tests and stdout dumps).
  std::string ToJson(const CurveInfo& info) const;

 private:
  mutable std::mutex mu_;
  double min_interval_;
  std::vector<CurveSample> samples_;
};

}  // namespace spatter::fleet

#endif  // SPATTER_FLEET_CURVE_H_
