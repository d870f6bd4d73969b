// Generate-vs-mutate scheduling with AFL-style energy.
//
// Per iteration the campaign asks two questions: should this iteration
// mutate a corpus entry instead of generating a fresh database, and if so,
// which entry? Both answers are drawn from the campaign's per-iteration
// RNG stream (Rng::SplitSeed), so the schedule for shard k of S is a pure
// function of (seed, k, S) and that shard's own corpus history — corpus
// mode stays deterministic for a fixed --jobs.
//
// Entry selection samples proportionally to Corpus::Energies(): an entry's
// energy is the sum of 1/holders(site) over its coverage sites, so sole
// holders of rare behaviour are mutated most — the AFL "favored" heuristic
// in roulette form.
#ifndef SPATTER_CORPUS_SCHEDULER_H_
#define SPATTER_CORPUS_SCHEDULER_H_

#include "common/rng.h"
#include "corpus/corpus.h"

namespace spatter::corpus {

class Scheduler {
 public:
  explicit Scheduler(const CorpusOptions& options) : options_(options) {}

  /// True when this iteration should mutate: the corpus has entries, the
  /// mutate-vs-generate coin (mutate_pct) lands on mutate, the shard is
  /// past its warmup, and the corpus is still "hot" —
  /// `iterations_since_admit` below the staleness window. Warmup keeps
  /// the earliest iterations generating (fresh databases are cheapest to
  /// find faults with, and mutating iteration 1's lone entry just clones
  /// it); staleness pauses mutation once feedback stops admitting, so a
  /// saturated corpus cannot tax exploration indefinitely. Always
  /// consumes exactly one draw from `rng` so the downstream stream only
  /// depends on the decision, not on how it was reached.
  bool ShouldMutate(const Corpus& corpus, size_t shard_iterations_run,
                    size_t iterations_since_admit, Rng* rng) const {
    const bool coin = rng->Percent(options_.mutate_pct);
    return coin && !corpus.empty() && shard_iterations_run >= kWarmup &&
           iterations_since_admit < kStaleWindow;
  }

  /// Shard-local iterations of pure generation before mutation may start.
  static constexpr size_t kWarmup = 12;
  /// Shard-local iterations without a corpus admission after which
  /// mutation pauses until feedback resumes.
  static constexpr size_t kStaleWindow = 25;

  /// Index of the entry to mutate, sampled proportionally to energy
  /// (uniform when all energies are zero). Requires a non-empty corpus.
  size_t PickEntry(const Corpus& corpus, Rng* rng) const;

 private:
  CorpusOptions options_;
};

}  // namespace spatter::corpus

#endif  // SPATTER_CORPUS_SCHEDULER_H_
