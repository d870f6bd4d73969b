// Coverage-guided corpus store.
//
// The campaign's blackbox loop throws every generated database away; the
// corpus keeps the ones that paid for themselves. An entry is admitted
// only when its iteration hit a coverage site this corpus had never seen
// (new-coverage rule) AND its site-set signature is unseen
// (coverage-signature dedup — the merge path can present an entry whose
// sites are new here but whose signature duplicates an admitted one).
//
// Eviction keeps the store bounded without losing rare behaviour: when the
// cap is exceeded, the lowest-energy entry that is NOT the sole holder of
// some site is dropped (AFL's "favored" idea). Covered-site and signature
// memory survive eviction on purpose — re-admitting a behaviour the corpus
// has already explored would just churn.
//
// Thread safety: every public method locks; the campaign hot path touches
// the corpus once per iteration (one Admit, plus one Entry copy on mutate
// iterations), so a single mutex is far from contended. Shards still keep
// corpora private and merge at the end — not for speed, but because
// shard-local admission is what keeps corpus mode deterministic for a
// fixed shard count.
#ifndef SPATTER_CORPUS_CORPUS_H_
#define SPATTER_CORPUS_CORPUS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/codec.h"

namespace spatter::corpus {

struct CorpusOptions {
  bool enabled = false;
  /// Percent of iterations that mutate a corpus entry instead of
  /// generating a fresh database (once the corpus is non-empty).
  int mutate_pct = 50;
  /// Entry cap; favored entries (sole holders of a site) survive eviction.
  size_t max_entries = 256;
  /// Record genuine Admit()s (not Restores) in a drainable log. The fleet
  /// worker enables this to stream fresh entries to the supervisor;
  /// off by default so non-fleet runs never accumulate the log.
  bool log_admissions = false;
};

class Corpus {
 public:
  explicit Corpus(const CorpusOptions& options) : options_(options) {}

  /// Admits `record` iff it covers a site key unseen by this corpus and
  /// its site signature is new. Returns true when stored (possibly
  /// evicting another entry to stay within the cap).
  bool Admit(TestCaseRecord record);

  /// Re-admits a persisted record with signature dedup only — no
  /// new-coverage requirement. Each persisted entry already justified its
  /// coverage when it was first admitted; re-litigating admission in
  /// load order (filename hashes, not campaign order) would silently
  /// drop entries whose sites happen to be union-covered by earlier
  /// files, and the next SaveTo would delete them from disk.
  bool Restore(TestCaseRecord record);

  size_t size() const;
  bool empty() const { return size() == 0; }
  /// Copy of entry `i` (bounds-unchecked beyond assert-like clamping).
  TestCaseRecord Entry(size_t i) const;
  /// All entries, copied; for persistence and tests.
  std::vector<TestCaseRecord> Entries() const;

  /// AFL-style energy per entry: sum over the entry's sites of
  /// 1/holders(site), divided by (1 + times fuzzed). Entries holding rare
  /// sites weigh more; the fuzz-count decay keeps one lucky early entry's
  /// mutant lineage from monopolizing the schedule.
  std::vector<double> Energies() const;

  /// Records that entry `i` was chosen for mutation (decays its energy).
  void NoteFuzzed(size_t i);

  /// Drains the admission log (see CorpusOptions::log_admissions): every
  /// record a genuine Admit() stored since the last drain, in admission
  /// order. Restored/merged entries are excluded on purpose — the fleet
  /// worker must not echo entries the supervisor broadcast back to it.
  std::vector<TestCaseRecord> TakeNewlyAdmitted();

  /// Distinct site keys covered by everything ever admitted.
  size_t covered_sites() const;
  uint64_t admitted() const;
  uint64_t rejected() const;
  uint64_t evicted() const;

  /// Folds every entry of `other` in with signature dedup only (the
  /// cross-shard merge): exact behavioural duplicates collapse, but
  /// entries are never re-litigated against the new-coverage rule —
  /// restored entries must survive the merge or SaveTo would delete
  /// their files (see Restore).
  void MergeFrom(const Corpus& other);

  /// Writes every entry to `dir` (created if missing) as
  /// cc-<signature>.sptc, removing stale cc-*.sptc files so the directory
  /// mirrors the corpus.
  Status SaveTo(const std::string& dir) const;

  /// Decodes every cc-*.sptc file in `dir` (sorted by name, so load order
  /// is deterministic) and restores it (signature dedup only). Returns
  /// the number restored; OK with zero when the directory does not exist
  /// yet.
  Result<size_t> LoadFrom(const std::string& dir);

  const CorpusOptions& options() const { return options_; }

 private:
  struct Slot {
    TestCaseRecord record;
    uint64_t signature = 0;
    uint64_t fuzz_count = 0;
  };

  bool AdmitLocked(TestCaseRecord record, bool require_new_site);
  void EvictLocked();
  double EnergyLocked(const Slot& slot) const;

  mutable std::mutex mu_;
  CorpusOptions options_;
  std::vector<Slot> entries_;
  std::vector<TestCaseRecord> admission_log_;  ///< log_admissions only
  std::set<uint64_t> covered_;            ///< site keys ever admitted
  std::set<uint64_t> signatures_;         ///< signature dedup, survives evict
  std::map<uint64_t, size_t> holders_;    ///< site key -> live entry count
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace spatter::corpus

#endif  // SPATTER_CORPUS_CORPUS_H_
