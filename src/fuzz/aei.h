// Affine Equivalent Input construction (paper §4.2–§4.3, Algorithm 2):
// random integer mapping matrices, canonicalization, and whole-database
// transformation.
#ifndef SPATTER_FUZZ_AEI_H_
#define SPATTER_FUZZ_AEI_H_

#include <optional>

#include "algo/affine.h"
#include "common/rng.h"
#include "common/status.h"
#include "fuzz/testcase.h"

namespace spatter::fuzz {

/// GenerateMappingMatrix (Algorithm 2, lines 7-11): a random non-singular
/// integer matrix A with entries in [-max_entry, max_entry] and an integer
/// translation vector b in [-max_translate, max_translate]. Integer-valued
/// by design to avoid the precision false alarms of §4.2.
algo::AffineTransform RandomIntegerAffine(Rng* rng, int max_entry = 4,
                                          int max_translate = 12);

/// Distance-compatible transform family: k * P + b where P is one of the
/// eight integer signed-permutation matrices (axis-aligned rotations and
/// reflections) and k >= 1 an integer scale. Distance-based predicates
/// (ST_DWithin, ST_DFullyWithin) and the bounding-box operator ~= are not
/// invariant under general affine maps (the paper's §7 makes the same
/// observation for KNN: "as long as no shearing is applied"); under these
/// transforms every distance scales by exactly k and bounding boxes map
/// coordinate-wise, so the expected result is preserved after scaling the
/// query's distance parameter by k.
algo::AffineTransform RandomIntegerSimilarity(Rng* rng, int max_scale = 3,
                                              int max_translate = 12);

/// Returns the uniform scale factor k when `t`'s linear part is a scaled
/// signed permutation; nullopt otherwise.
std::optional<double> SimilarityScale(const algo::AffineTransform& t);

/// Transforms a database spec into its affine equivalent: optionally
/// canonicalizes each geometry (paper §4.3), then applies `transform` to
/// every coordinate. WKT that fails to parse is copied through unchanged.
/// This is SDB2's printer: the reference the tests hold the AEI check's
/// typed SDB2 load (fuzz::AffinePair) to, and the step perfbench's layer
/// replay times. Reports and reproducers record SDB1 and the matrix, not
/// this text.
DatabaseSpec TransformDatabase(const DatabaseSpec& sdb,
                               const algo::AffineTransform& transform,
                               bool canonicalize);

}  // namespace spatter::fuzz

#endif  // SPATTER_FUZZ_AEI_H_
