// Portable TCP plumbing for the fleet tier (src/net/): a listener,
// a connector with a retry budget, and FrameChannel — the adapter between
// the line-framed fleet/wire protocol and a byte stream that delivers
// those lines in arbitrary splits (one byte at a time, mid-frame, many
// frames coalesced into one read).
//
// Everything here is poll()-based and non-blocking so a single-threaded
// server can multiplex a listener plus many peers, and hardened for
// untrusted remote bytes: FrameChannel enforces fleet::kMaxFrameBytes on
// the reassembly buffer BEFORE a newline ever arrives, so a hostile peer
// streaming an endless unterminated line cannot grow memory — the channel
// drops bytes until the next newline (resync) and counts the episode in
// the `wire.rejected` metric, exactly like DecodeFrame counts malformed
// complete lines.
#ifndef SPATTER_NET_SOCKET_H_
#define SPATTER_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fleet/wire.h"

namespace spatter::net {

/// Binds and listens on 0.0.0.0:`port` — 127.0.0.1 with `loopback_only`
/// (0 = kernel-picked ephemeral port), SO_REUSEADDR, non-blocking,
/// close-on-exec. Returns the fd.
Result<int> Listen(uint16_t port, bool loopback_only = false);

/// The local port `listen_fd` is bound to (resolves port 0).
Result<uint16_t> LocalPort(int listen_fd);

/// Accepts one pending connection (non-blocking, close-on-exec,
/// TCP_NODELAY). Returns -1 when none is pending — callers poll the
/// listener fd and call this on POLLIN.
int AcceptOne(int listen_fd);

/// Connects to host:port, retrying with backoff for up to
/// `retry_seconds` (a fleet client typically starts before — or outlives
/// a restart of — its server). Blocking connect, then the fd is switched
/// to non-blocking, close-on-exec, TCP_NODELAY.
Result<int> ConnectWithRetry(const std::string& host, uint16_t port,
                             double retry_seconds);

/// Flips O_NONBLOCK. The fleet client handshakes on a non-blocking fd,
/// then hands it to fleet::RunWorker — whose writer assumes blocking
/// semantics (an EAGAIN would read as a dead peer).
void SetBlocking(int fd, bool blocking);

/// Reads exactly one valid frame line from `fd`, one byte at a time — no
/// over-read, so every byte after the frame's newline stays in the kernel
/// buffer for whoever owns the fd next. The fleet client uses this for
/// the handshake: the frames streamed right after ASSIGN (corpus seeds,
/// TUNE) must reach RunWorker's reader, not die in a handshake buffer.
/// Malformed lines are skipped (counted in wire.rejected via DecodeFrame;
/// oversized ones dropped at fleet::kMaxFrameBytes). Blocks until a frame
/// arrives or the peer closes (kNotFound on EOF).
Result<fleet::Frame> ReadOneFrame(int fd);

/// Line reassembly + frame codec over one non-blocking socket fd. The
/// channel does not own the fd lifetime policy (callers close), but
/// Close() is provided for symmetry and idempotence.
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}

  int fd() const { return fd_; }
  bool eof() const { return eof_; }
  bool write_failed() const { return write_failed_; }
  /// Complete lines that failed to decode, buffer-overflow resync
  /// episodes, and a torn final line at EOF (each also counted in the
  /// `wire.rejected` metric).
  uint64_t rejected() const { return rejected_; }

  /// Encodes and writes `frame`, blocking briefly (poll for POLLOUT) if
  /// the socket buffer is full. A peer that vanished latches
  /// write_failed(); further writes are no-ops.
  bool WriteFrame(const fleet::Frame& frame);

  /// Waits up to `timeout_ms` for readability (0 = just drain what is
  /// already pending), reads what the kernel has, and appends every
  /// complete, valid frame to `frames`. Returns false once the peer
  /// closed or errored AND the buffer holds no more complete lines —
  /// frames appended on the same call are still valid.
  bool ReadFrames(int timeout_ms, std::vector<fleet::Frame>* frames);

  void Close();

 private:
  int fd_;
  std::string buffer_;
  bool overflow_ = false;  ///< dropping until the next newline (resync)
  bool eof_ = false;
  bool write_failed_ = false;
  uint64_t rejected_ = 0;
};

}  // namespace spatter::net

#endif  // SPATTER_NET_SOCKET_H_
