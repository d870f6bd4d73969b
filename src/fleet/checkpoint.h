// Campaign checkpoint/resume (format v3): the supervisor's periodically
// persisted snapshot of everything a long campaign cannot afford to lose
// when the supervisor itself dies — per-slice completed-iteration
// high-water marks in the global SplitSeed slice space, the consumed
// duration budget, the credited counts (iterations, queries, checks,
// findings) and seconds (busy, engine), the merged unique-bug set with each fault's standing
// reproducer and detecting oracle, the fleet-wide covered-site key set,
// the Figure-8 curve samples, and a manifest of the corpus directory the
// campaign persists alongside.
//
// The resume contract this makes provable: a pure-generate campaign
// SIGKILLed at ANY point and resumed with `spatter --resume=DIR` reports
// the identical `bug-set:` / `bug-set-by-oracle:` lines and summary counts
// as the same campaign run uninterrupted, for ANY processes x jobs
// factorization of the checkpointed slice count. The pieces that buy it:
//   - high-water marks are COMPLETED iteration counts (SLICEPROGRESS
//     frames), and the counts and seconds are what those frames credited,
//     so the in-flight iteration at checkpoint time is re-run on resume
//     and credited once, never skipped;
//   - each restored unique bug and each re-run iteration's unique bugs
//     merge by the one rule of runtime::Aggregator::MergeUniqueBug
//     (fuzz::DetectedEarlier, a total order), so a re-reported bug
//     dedups against the restored winner at the same logical position;
//   - marks are keyed by GLOBAL slice, so resume may re-factor P x J
//     freely as long as P*J equals the checkpointed total.
//
// File format: one text file, `checkpoint.sptk`, written via atomic
// write-rename (common/fsio.h) so a reader sees the previous checkpoint
// or the new one, never a torn mix. Line 1 is the version magic (any
// other version is rejected — skew is an error, not a guess); the last
// line is `end <n>` where n counts the body lines, so a truncated file
// (manual copy, full disk) is rejected rather than resumed from. A `bug`
// line is `bug ` and the wire.h BUG frame of the unique bug (the frame
// names its fault), and site sets reuse the COV key-list encoding — the
// checkpoint re-uses the fleet codecs instead of inventing parallel ones.
// v2 added the findings count to the `counters` line and took the fault
// id out of `bug` lines into their frames (protocol 5). v3's `bug` lines
// are protocol-6 BUG frames (no elapsed time), and its `corpus` line
// dropped the entry count its signature list already gives.
#ifndef SPATTER_FLEET_CHECKPOINT_H_
#define SPATTER_FLEET_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fleet/curve.h"
#include "fuzz/campaign.h"
#include "obs/metrics.h"

namespace spatter::fleet {

inline constexpr char kCheckpointMagic[] = "spatter-checkpoint-v3";
inline constexpr char kCheckpointFileName[] = "checkpoint.sptk";

/// Everything a resumed supervisor reconstructs. The campaign identity
/// is authoritative on resume: `--resume=DIR` adopts it wholesale, so a
/// checkpoint can never be resumed against a different universe by
/// accident.
struct CheckpointState {
  // --- campaign identity ---
  /// The campaign config. The codec persists its seed, iteration budget
  /// (total, per dialect), queries per iteration, geometries, faults,
  /// derivative strategy, oracle suite, corpus on and mutate percent;
  /// every other field decodes as CampaignConfig's default, which is the
  /// value every product path uses. `base.dialect` decodes as the first
  /// of `dialects`.
  fuzz::CampaignConfig base;
  std::vector<engine::Dialect> dialects;  ///< never empty once encoded
  uint64_t total_slices = 1;          ///< P*J; resume must preserve it
  double duration_seconds = 0.0;      ///< configured budget; 0 = batch

  // --- progress ---
  double elapsed_seconds = 0.0;       ///< consumed wall budget
  uint64_t iterations_run = 0;        ///< iterations credited so far
  uint64_t queries_run = 0;
  uint64_t checks_run = 0;
  uint64_t findings = 0;              ///< findings credited so far
  /// Summed wall and engine seconds of the credited iterations.
  double busy_seconds = 0.0;
  double engine_seconds = 0.0;
  /// Completed-iteration high-water mark per (dialect value, global
  /// slice) — the same keying ShardedCampaignConfig::completed uses.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> completed;
  /// The merged unique-bug set: each fault's standing finding.
  std::vector<std::pair<faults::FaultId, fuzz::Discrepancy>> unique_bugs;
  /// Fleet-wide covered coverage-site keys (curve continuity: a resumed
  /// run's fresh worker processes re-hit sites from scratch, so the
  /// supervisor must remember what the dead run already covered).
  std::set<uint64_t> covered_sites;
  std::vector<CurveSample> curve;

  // --- corpus manifest ---
  std::string corpus_dir;             ///< empty unless base.corpus.enabled
  /// Site signatures of the entries persisted at checkpoint, one per
  /// entry; resume warns when the reloaded directory does not match
  /// (someone pruned it between runs).
  std::vector<uint64_t> corpus_signatures;

  // --- telemetry ---
  /// Fleet-merged metrics at checkpoint time. On resume this becomes the
  /// supervisor's baseline so counters and histograms continue from
  /// where the dead run left off instead of restarting at zero. The
  /// encoder omits an empty snapshot, and a document without a `metrics`
  /// line decodes to one.
  obs::MetricsSnapshot metrics;
};

/// `dir`/checkpoint.sptk.
std::string CheckpointPath(const std::string& dir);

/// The v3 text document for `state`.
std::string EncodeCheckpoint(const CheckpointState& state);

/// Inverse of EncodeCheckpoint. Rejects version skew, truncation (missing
/// or mismatched `end` trailer), unknown or malformed lines, and
/// out-of-range dialect/fault/oracle values — a corrupt checkpoint never
/// yields a partially filled state.
Result<CheckpointState> DecodeCheckpoint(const std::string& text);

/// Creates `dir` if needed and atomically writes the encoded state to
/// CheckpointPath(dir): readers see the previous checkpoint or this one.
Status WriteCheckpoint(const std::string& dir, const CheckpointState& state);

/// Reads and decodes CheckpointPath(dir); kNotFound when no checkpoint
/// exists yet.
Result<CheckpointState> LoadCheckpoint(const std::string& dir);

}  // namespace spatter::fleet

#endif  // SPATTER_FLEET_CHECKPOINT_H_
