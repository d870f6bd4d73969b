// TestCaseCodec: compact binary serialization of test cases so they
// survive across runs (corpus persistence) and can be replayed
// (`spatter --replay=<file>`).
//
// Geometry rows are stored as WKB (reusing src/geom/wkb.cc) rather than
// WKT text: WKB carries raw IEEE-754 doubles, so a decoded record
// re-encodes byte-identically — WKT round-trips too because FormatCoord
// emits shortest-round-trip doubles, but WKB makes the fidelity structural
// instead of a property of the printer. Coverage sites are stored as
// stable 64-bit keys (CoverageRegistry::KeysOf), never as raw indices:
// indices are registration order, which differs between processes.
#ifndef SPATTER_CORPUS_CODEC_H_
#define SPATTER_CORPUS_CODEC_H_

#include <cstdint>
#include <vector>

#include "algo/affine.h"
#include "common/status.h"
#include "engine/dialect.h"
#include "fuzz/testcase.h"

namespace spatter::corpus {

/// What a serialized record is for. Corpus entries feed the mutation
/// scheduler; reproducers record one discrepancy's full inputs for replay.
enum class RecordKind : uint8_t { kCorpusEntry = 0, kReproducer = 1 };

/// One persistable test case: the database (and, for reproducers, the
/// query + transform) plus provenance and the coverage it bought.
struct TestCaseRecord {
  RecordKind kind = RecordKind::kCorpusEntry;
  engine::Dialect dialect = engine::Dialect::kPostgis;
  /// Rng::SplitSeed(master, iteration) of the producing iteration — the
  /// recorded seed that makes a reproducer's iteration re-runnable.
  uint64_t seed = 0;
  uint64_t iteration = 0;
  fuzz::DatabaseSpec sdb;
  bool has_query = false;
  fuzz::QuerySpec query;
  algo::AffineTransform transform;  ///< identity unless a reproducer
  /// The oracle that detected a reproducer's discrepancy; `--replay`
  /// re-runs THIS check. Encode also writes v1's canonicalization byte,
  /// derived from it; a v1 record decodes that byte to kAei or
  /// kCanonicalOnly.
  fuzz::OracleKind oracle = fuzz::OracleKind::kAei;
  /// Differential reproducers: the secondary dialect of the pair.
  engine::Dialect diff_secondary = engine::Dialect::kMysql;
  /// Stable coverage-site keys this entry's iteration hit (corpus entries).
  std::vector<uint64_t> sites;
  /// FaultIds the reproducer is expected to fire, as raw catalog values.
  std::vector<uint32_t> fault_ids;
};

class TestCaseCodec {
 public:
  /// Serializes to the versioned binary format. Fails (kInvalidArgument)
  /// when a row's WKT does not parse — rows are generator/mutator output,
  /// so that indicates a bug upstream, not bad user input.
  static Result<std::vector<uint8_t>> Encode(const TestCaseRecord& record);

  /// Parses a buffer produced by Encode. Rejects truncated or malformed
  /// input with kInvalidArgument (never reads out of bounds), and a record
  /// whose replay would run SQL no campaign ran: a table name, in the
  /// database or the query, that is not a plain identifier
  /// (IsPlainIdentifier), an unknown predicate, a pattern other than nine
  /// DE-9IM characters under a pattern predicate (or any pattern
  /// otherwise), or a non-finite distance.
  static Result<TestCaseRecord> Decode(const std::vector<uint8_t>& data);

  /// Stable content signature of a record's coverage site set, used for
  /// corpus dedup and as the persisted filename stem.
  static uint64_t SiteSignature(const std::vector<uint64_t>& sites);
};

}  // namespace spatter::corpus

#endif  // SPATTER_CORPUS_CODEC_H_
