#include "relate/prepared.h"

#include "common/coverage.h"

namespace spatter::relate {

using geom::Geometry;

PreparedGeometry::PreparedGeometry(const Geometry& target)
    : target_(target), target_env_(target.GetEnvelope()) {}

bool PreparedGeometry::EnvelopeCandidate(const Geometry& candidate) const {
  const geom::Envelope env = candidate.GetEnvelope();
  if (env.IsNull() || target_env_.IsNull()) return false;
  return target_env_.Intersects(env);
}

bool PreparedGeometry::StaleCacheHit(const Geometry& candidate,
                                     const faults::FaultState* faults) const {
  if (!faults || !faults->IsEnabled(faults::FaultId::kGeosPreparedStaleCache)) {
    return false;
  }
  // Injected bug (paper Listing 7): the result cache is invalidated by the
  // previous evaluation, so a candidate structurally identical to the one
  // just evaluated reads a stale negative entry.
  const bool hit = last_result_valid_ && last_candidate_ != nullptr &&
                   last_candidate_->EqualsExact(candidate);
  last_candidate_ = candidate.Clone();
  last_result_valid_ = true;
  if (hit) faults->Fire(faults::FaultId::kGeosPreparedStaleCache);
  return hit;
}

Result<bool> PreparedGeometry::Intersects(
    const Geometry& candidate, const faults::FaultState* faults) const {
  SPATTER_COV("prepared", "intersects");
  if (!candidate.IsEmpty() && !target_.IsEmpty() &&
      !EnvelopeCandidate(candidate)) {
    return false;  // disjoint envelopes cannot intersect.
  }
  exact_evals_++;
  return relate::Intersects(target_, candidate, faults);
}

Result<bool> PreparedGeometry::Contains(
    const Geometry& candidate, const faults::FaultState* faults) const {
  SPATTER_COV("prepared", "contains");
  if (StaleCacheHit(candidate, faults)) return false;
  if (!candidate.IsEmpty() && !target_.IsEmpty() &&
      !target_env_.Contains(candidate.GetEnvelope())) {
    return false;  // containment requires envelope containment.
  }
  exact_evals_++;
  return relate::Contains(target_, candidate, faults);
}

Result<bool> PreparedGeometry::Covers(const Geometry& candidate,
                                      const faults::FaultState* faults) const {
  SPATTER_COV("prepared", "covers");
  if (StaleCacheHit(candidate, faults)) return false;
  if (!candidate.IsEmpty() && !target_.IsEmpty() &&
      !target_env_.Contains(candidate.GetEnvelope())) {
    return false;
  }
  exact_evals_++;
  return relate::Covers(target_, candidate, faults);
}

}  // namespace spatter::relate
