// Prepared geometry: caches the target geometry's envelope so repeated
// predicate evaluation against many candidates can reject on envelopes
// before the exact relate (the optimization component in which the paper
// found the Listing 7 bug).
//
// Contract: every prepared predicate must return exactly what the plain
// predicate returns ("every prepared variant should return the same as the
// non-prepared variant" — GEOS developer, paper §5.2). Property tests
// enforce this; the kGeosPreparedStaleCache fault deliberately violates it.
#ifndef SPATTER_RELATE_PREPARED_H_
#define SPATTER_RELATE_PREPARED_H_

#include <memory>

#include "common/status.h"
#include "faults/fault.h"
#include "geom/geometry.h"
#include "relate/named_predicates.h"

namespace spatter::relate {

class PreparedGeometry {
 public:
  /// Keeps a reference to `target`; the caller owns it and must keep it
  /// alive for the lifetime of the prepared wrapper.
  explicit PreparedGeometry(const geom::Geometry& target);

  const geom::Geometry& target() const { return target_; }

  /// Fast envelope-based rejection; exact fallback through the named
  /// predicate under `faults` (null: no faults).
  Result<bool> Intersects(const geom::Geometry& candidate,
                          const faults::FaultState* faults = nullptr) const;
  Result<bool> Contains(const geom::Geometry& candidate,
                        const faults::FaultState* faults = nullptr) const;
  Result<bool> Covers(const geom::Geometry& candidate,
                      const faults::FaultState* faults = nullptr) const;

  /// Number of exact (non-shortcut) evaluations, for benches.
  size_t exact_evaluations() const { return exact_evals_; }

 private:
  /// True if the candidate's envelope survives the index pre-filter.
  bool EnvelopeCandidate(const geom::Geometry& candidate) const;
  /// Stale-cache fault emulation: remembers the previous candidate.
  bool StaleCacheHit(const geom::Geometry& candidate,
                     const faults::FaultState* faults) const;

  const geom::Geometry& target_;
  geom::Envelope target_env_;
  mutable size_t exact_evals_ = 0;
  mutable geom::GeomPtr last_candidate_;
  mutable bool last_result_valid_ = false;
};

}  // namespace spatter::relate

#endif  // SPATTER_RELATE_PREPARED_H_
