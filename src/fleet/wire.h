// Line-framed wire protocol between the fleet supervisor
// (net::FleetServer: `--fleet` forks its workers and serves them on
// loopback, `--serve` waits for remote `--connect` workers) and the
// worker processes, carried over one TCP connection per assignment.
//
// Every frame is one text line: the magic "SPTW1", a type token, then
// space-separated fields in a fixed per-type order. Binary payloads
// (corpus entries and bug reproducers) are TestCaseCodec records carried
// as lowercase hex — the codec already guarantees byte-identical
// round-trips, so the wire adds framing and nothing else. Text framing
// keeps the stream debuggable and makes corruption detection trivial: a
// frame either parses completely against its type's field list or is
// rejected; a torn write (worker killed mid line) fails the field-count
// check instead of desynchronizing the stream.
//
// Frames, by direction:
//   worker -> supervisor
//     NETHELLO <proto>   (first frame after connect; the supervisor BYEs
//              on protocol-version skew. <proto> is the first field of
//              every version's NETHELLO, so a hello of another version
//              decodes whatever else it carries)
//     INFLIGHT <dialect> <slice>   (before every iteration: the slice's
//              next iteration, slice + mark * slices at the supervisor's
//              mark for it, is in flight; the supervisor's crash-recovery
//              anchor)
//     SLICEPROGRESS <dialect> <slice> <completed> <queries> <checks>
//              <findings> <busy_s> <engine_s>   (the iteration's last
//              frame and its commit point: <completed> is the slice's
//              absolute completed-iteration count, resume offset included,
//              so the supervisor's mark plus one; the counts and seconds
//              are this iteration's own, and the supervisor credits the
//              iteration with them when the frame arrives, so an iteration
//              is credited once, its time included. Nothing of the slice
//              is in flight after it)
//     COV      <key,key,...|-> <hex(spatter-metrics-text-v1 snapshot)>
//              (the coverage-site keys first hit since the last COV, and
//              the worker process's cumulative MetricsSnapshot since its
//              assignment started; the payload must decode as a valid
//              snapshot document or the frame is rejected whole)
//     ENTRY    <hex(TestCaseCodec record)>
//     BUG      <fault> <query_index> <is_crash> <hex(detail)>
//              <hex(TestCaseCodec record)>
//              (one of the iteration's unique bugs: its first report of
//              faults::FaultId <fault>, which must be among the record's
//              fault ids. The supervisor merges it by
//              fuzz::DetectedEarlier on arrival, as the in-process runtime
//              merges an iteration's result; SLICEPROGRESS counts the
//              iteration's findings)
//     DONE     (no fields: the assignment is over. It credits nothing;
//              engine counters travel in COV's snapshot)
//   supervisor -> worker
//     ASSIGN   <worker> <hex(checkpoint doc)>   (one work assignment: the
//              payload is an EncodeCheckpoint document whose progress
//              entries enumerate every (dialect, slice, completed) of the
//              assignment and whose config line carries the campaign
//              config — everything a worker needs)
//     ENTRY    <hex(record)>   (corpus seeding and rebroadcast)
//     BYE                      (no work now or ever; close the connection)
//
// Within one iteration a worker writes INFLIGHT, then its BUG and ENTRY
// frames, then COV when the heartbeat is due, and SLICEPROGRESS last; a
// final COV and DONE close the assignment.
//
// Peers are untrusted: DecodeFrame rejects lines longer than
// kMaxFrameBytes, lines containing NUL bytes, and lines with more than
// kMaxFrameFields space-separated fields, and counts every rejection in
// the `wire.rejected` metric. Stream buffers (net::FrameChannel) enforce
// the same byte cap before a newline ever arrives, so a hostile peer
// cannot grow an unbounded line buffer.
#ifndef SPATTER_FLEET_WIRE_H_
#define SPATTER_FLEET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fuzz/campaign.h"
#include "obs/metrics.h"

namespace spatter::fleet {

enum class FrameType : uint8_t {
  kInflight,
  kSliceProgress,
  kCov,
  kEntry,
  kBug,
  kDone,
  kNetHello,
  kAssign,
  kBye,
};

/// Version token a worker sends in NETHELLO; the supervisor rejects (BYE)
/// any peer whose version differs. 2: DONE lost its engine counters and
/// STOP was retired. 3: HELLO and TRACE were retired. 4: SLICEPROGRESS
/// carries its iteration's queries, checks and findings and is the one
/// place work is credited, so COV and DONE lost their counters (a worker
/// killed between them skewed the totals); TUNE was retired. 5: a worker
/// sends its iteration's unique bugs, not every finding, and BUG names the
/// fault it stands for instead of the oracle; INFLIGHT lost its iteration
/// (the supervisor's mark gives it); SLICEPROGRESS ends a slice's
/// in-flight state, so SLICEDONE was retired; COV carries the metrics
/// snapshot, so STATS was retired. 6: SLICEPROGRESS carries its
/// iteration's busy and engine seconds, so DONE lost its fields (a worker
/// killed before DONE lost the time of every iteration it credited); COV
/// and BUG lost their elapsed time and NETHELLO its pid, which nothing
/// read.
inline constexpr uint64_t kNetProtocolVersion = 6;

/// Hardening caps for frames from untrusted remote peers. The byte cap
/// bounds ASSIGN/ENTRY/BUG hex payloads (a checkpoint document of a large
/// campaign stays well under it); the field cap bounds splitter memory
/// (the widest legitimate frame, SLICEPROGRESS, has 10 fields with the
/// magic and the type).
inline constexpr size_t kMaxFrameBytes = 8u << 20;
inline constexpr size_t kMaxFrameFields = 16;

const char* FrameTypeName(FrameType t);

/// One decoded frame. Fields are a union-of-purposes: each frame type
/// reads and writes only the members its layout above names, and
/// DecodeFrame validates exact field counts per type.
struct Frame {
  FrameType type = FrameType::kBye;

  // ASSIGN: the assigned worker index (plus `payload`, the
  // EncodeCheckpoint document bytes).
  uint64_t worker = 0;

  // INFLIGHT / SLICEPROGRESS
  uint64_t dialect = 0;
  uint64_t slice = 0;
  // SLICEPROGRESS only: the absolute completed count, then the
  // iteration's own counts and seconds.
  uint64_t completed = 0;
  uint64_t queries = 0;
  uint64_t checks = 0;
  uint64_t findings = 0;
  double busy_seconds = 0.0;
  double engine_seconds = 0.0;

  // COV
  std::vector<uint64_t> site_keys;  // stable keys newly covered
  obs::MetricsSnapshot metrics;     // DecodeFrame fully validates it

  // ENTRY / BUG payload: a TestCaseCodec record.
  std::vector<uint8_t> payload;

  // BUG
  uint64_t fault = 0;  ///< the faults::FaultId it stands for, range-validated
  uint64_t query_index = 0;
  bool is_crash = false;
  std::string detail;

  // NETHELLO
  uint64_t proto = 0;
};

/// Renders `frame` as one '\n'-terminated line.
std::string EncodeFrame(const Frame& frame);

/// Parses one line (with or without the trailing '\n'). Rejects bad
/// magic, unknown types, wrong field counts, malformed numbers, and
/// malformed hex with kInvalidArgument — a corrupt line never yields a
/// partially filled frame.
Result<Frame> DecodeFrame(const std::string& line);

/// Lowercase hex of `bytes` (the payload encoding).
std::string HexEncode(const std::vector<uint8_t>& bytes);
/// Inverse of HexEncode; rejects odd length and non-hex characters.
Result<std::vector<uint8_t>> HexDecode(const std::string& hex);

/// COV-frame key-list encoding ("-" when empty, else comma-separated
/// 16-digit lowercase hex), shared with the checkpoint codec so persisted
/// site sets and streamed ones can never drift apart.
std::string FormatSiteKeys(const std::vector<uint64_t>& keys);
/// Inverse of FormatSiteKeys; false on any malformed token.
bool ParseSiteKeys(const std::string& s, std::vector<uint64_t>* out);

/// Field-level pieces of the wire text grammar, shared with the
/// checkpoint codec for the same no-drift reason (integer fields use the
/// strict common ParseU64; both codecs split a line into fields with the
/// common Split at single spaces, so malformed framing fails field-count
/// checks instead of silently collapsing). ParseFieldF64 accepts exactly
/// what the encoders print for finite values (`%.6f` here, `%.17g` in
/// checkpoints): an optional '-', digits, an optional fraction and an
/// optional exponent, whose value is finite; "nan", "inf", hex and '+' are
/// refused. ParseFieldBool01 accepts exactly "0"/"1".
bool ParseFieldF64(const std::string& s, double* out);
bool ParseFieldBool01(const std::string& s, bool* out);

/// Builds the BUG frame of unique bug `id`, standing finding `d`: the
/// fault, frame-level position and detail plus the encoded
/// fuzz::ReproducerOf record (database, query, oracle, transform, fault
/// ids). Fails only if the record does not encode.
Result<Frame> MakeBugFrame(faults::FaultId id, const fuzz::Discrepancy& d,
                           uint64_t master_seed);

/// Rebuilds the finding a BUG frame carries: fuzz::FindingOf its record,
/// plus the frame's position and detail. Rejects a record that does not
/// decode or whose fault ids lack the frame's fault: a finding can only
/// stand for a fault it fired.
Result<fuzz::Discrepancy> BugFrameToDiscrepancy(const Frame& frame);

}  // namespace spatter::fleet

#endif  // SPATTER_FLEET_WIRE_H_
