// Deterministic pseudo-random number generator used by every stochastic
// component (generator, affine construction, query templates, campaigns).
// Determinism matters: campaigns, benches, and the ablation study must be
// reproducible from a seed.
#ifndef SPATTER_COMMON_RNG_H_
#define SPATTER_COMMON_RNG_H_

#include <cstdint>

namespace spatter {

/// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
/// fuzzing workloads; not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  /// Re-seeds the full state from a single 64-bit seed.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) s = SplitMix64(&x);
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  ///
  /// Lemire's nearly-divisionless bounded rejection (arXiv:1805.10941):
  /// multiply-shift maps Next() into [0, bound) without modulo bias, and
  /// the expensive `% bound` runs only on the rare rejection path.
  uint64_t Below(uint64_t bound) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t IntIn(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Fair coin.
  bool Bool() { return (Next() & 1) != 0; }

  /// Bernoulli(p) with p expressed in percent [0,100].
  bool Percent(int p) { return static_cast<int>(Below(100)) < p; }

  /// Uniform double in [0,1).
  double Double01() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Deterministically derives the seed of stream `index` from a master
  /// seed by finalizing one splitmix64 step at the indexed position.
  /// Adjacent indices land in unrelated regions of seed space, so shards
  /// (or per-iteration reseeds) draw independent-looking sequences while
  /// the whole universe stays a pure function of (master, index).
  static uint64_t SplitSeed(uint64_t master, uint64_t index) {
    uint64_t x = master + (index + 1) * 0x9e3779b97f4a7c15ULL;
    return SplitMix64(&x);
  }

 private:
  static uint64_t SplitMix64(uint64_t* x) {
    uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static uint64_t Rotl(uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace spatter

#endif  // SPATTER_COMMON_RNG_H_
