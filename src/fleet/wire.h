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
//     NETHELLO <proto> <pid>   (first frame after connect; the supervisor
//              BYEs on protocol-version skew)
//     INFLIGHT <dialect> <slice> <iteration>   (before every iteration:
//              the supervisor's crash-recovery anchor)
//     SLICEDONE <dialect> <slice>   (the slice's loop exited: its last
//              announced iteration completed; nothing is in flight)
//     SLICEPROGRESS <dialect> <slice> <completed>   (absolute completed-
//              iteration count for the slice, including any resume
//              offset — the supervisor's checkpoint high-water mark)
//     COV      <elapsed> <iterations> <queries> <key,key,...|->
//     ENTRY    <hex(TestCaseCodec record)>
//     BUG      <query_index> <is_crash> <oracle> <elapsed>
//              <hex(detail)> <hex(TestCaseCodec record)>
//              (<oracle> is the detecting OracleKind value, kept at frame
//              level for stream debuggability; the payload record carries
//              it authoritatively alongside the differential secondary)
//     DONE     <iterations> <queries> <checks> <busy_s> <engine_s>
//              (engine counters travel in STATS, not here)
//     STATS    <elapsed> <hex(spatter-metrics-text-v1 snapshot)>
//              (cumulative MetricsSnapshot of the worker process since its
//              assignment started; the payload must decode as a valid
//              snapshot document or the frame is rejected whole)
//   supervisor -> worker
//     ASSIGN   <worker> <hex(checkpoint doc)>   (one work assignment: the
//              payload is an EncodeCheckpoint document whose progress
//              entries enumerate every (dialect, slice, completed) of the
//              assignment and whose config line carries seed, oracle
//              suite, corpus settings — everything a worker needs)
//     ENTRY    <hex(record)>   (corpus seeding and rebroadcast)
//     TUNE     <mutate_pct>    (fleet-level corpus scheduling: steer the
//              worker's mutate budget; corpus mode only, advisory)
//     BYE                      (no work now or ever; close the connection)
//
// Within one iteration a worker writes INFLIGHT, then its BUG and ENTRY
// frames, then COV and STATS when the heartbeat is due, and SLICEPROGRESS
// last; SLICEDONE closes each slice, and a final COV, STATS and DONE close
// the assignment.
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
  kSliceDone,
  kSliceProgress,
  kCov,
  kEntry,
  kBug,
  kDone,
  kStats,
  kNetHello,
  kAssign,
  kBye,
  kTune,
};

/// Version token a worker sends in NETHELLO; the supervisor rejects (BYE)
/// any peer whose version differs. 2: DONE lost its engine counters and
/// STOP was retired. 3: HELLO and TRACE were retired.
inline constexpr uint64_t kNetProtocolVersion = 3;

/// Hardening caps for frames from untrusted remote peers. The byte cap
/// bounds ASSIGN/ENTRY hex payloads (a checkpoint document of a large
/// campaign stays well under it); the field cap bounds splitter memory
/// (the widest legitimate frame, BUG, has 8 fields).
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

  // INFLIGHT / SLICEDONE / SLICEPROGRESS
  uint64_t dialect = 0;
  uint64_t slice = 0;
  uint64_t iteration = 0;  // INFLIGHT only
  uint64_t completed = 0;  // SLICEPROGRESS only: absolute completed count

  // COV / DONE counters
  double elapsed = 0.0;  // also BUG
  uint64_t iterations = 0;
  uint64_t queries = 0;
  uint64_t checks = 0;
  std::vector<uint64_t> site_keys;  // COV: stable keys newly covered

  // ENTRY / BUG payload: a TestCaseCodec record.
  std::vector<uint8_t> payload;

  // BUG
  uint64_t query_index = 0;
  bool is_crash = false;
  uint64_t oracle = 0;  ///< detecting fuzz::OracleKind, range-validated
  std::string detail;

  // STATS: decoded metrics snapshot (DecodeFrame fully validates it).
  obs::MetricsSnapshot stats;

  // NETHELLO
  uint64_t proto = 0;
  uint64_t pid = 0;
  // TUNE
  uint64_t mutate_pct = 0;

  // DONE timing
  double busy_seconds = 0.0;
  double engine_seconds = 0.0;
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

/// Builds a BUG frame from a finding: frame-level position and detail
/// plus the encoded fuzz::ReproducerOf record (database, query,
/// transform, fault ids). Fails only if the record does not encode.
Result<Frame> MakeBugFrame(const fuzz::Discrepancy& d, uint64_t master_seed);

/// Rebuilds the finding a BUG frame carries: fuzz::FindingOf its record,
/// plus the frame's position and detail.
Result<fuzz::Discrepancy> BugFrameToDiscrepancy(const Frame& frame);

}  // namespace spatter::fleet

#endif  // SPATTER_FLEET_WIRE_H_
