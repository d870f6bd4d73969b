// Portable TCP plumbing for the fleet tier (src/net/): a listener,
// a connector with a retry budget, and FrameChannel — the adapter between
// the line-framed fleet/wire protocol and a byte stream that delivers
// those lines in arbitrary splits (one byte at a time, mid-frame, many
// frames coalesced into one read). FrameChannel is the only transport on
// both ends: the supervisor multiplexes one per peer, and a worker runs
// its whole connection — handshake, ASSIGN, the reader thread, every
// write — through one.
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
/// to non-blocking, close-on-exec, TCP_NODELAY. A refused connection
/// (ECONNREFUSED: nothing listens on the port) is reported as NotFound,
/// every other failure as Internal; with `refusal_ends`, the first refusal
/// ends the retries.
Result<int> ConnectWithRetry(const std::string& host, uint16_t port,
                             double retry_seconds, bool refusal_ends = false);

/// Line reassembly + frame codec over one non-blocking socket fd. The
/// channel does not own the fd lifetime policy (callers close), but
/// Close() is provided for symmetry and idempotence. One thread may read
/// while another writes (the two sides share no state); concurrent
/// writers need a lock of their own.
class FrameChannel {
 public:
  /// `write_timeout_ms` bounds how long a write waits for a full socket
  /// buffer to drain before it latches write_failed(); -1 waits as long
  /// as the peer stays connected. The supervisor keeps the default, so a
  /// wedged worker cannot stall it; a worker waits, so a slow supervisor
  /// cannot make it drop its assignment.
  explicit FrameChannel(int fd, int write_timeout_ms = 5000)
      : fd_(fd), write_timeout_ms_(write_timeout_ms) {}

  int fd() const { return fd_; }
  bool eof() const { return eof_; }
  bool write_failed() const { return write_failed_; }
  /// Complete lines that failed to decode, buffer-overflow resync
  /// episodes, and a torn final line at EOF (each also counted in the
  /// `wire.rejected` metric).
  uint64_t rejected() const { return rejected_; }

  /// Encodes and writes `frame`, waiting (poll for POLLOUT, up to the
  /// write timeout) while the socket buffer is full. A peer that vanished
  /// latches write_failed(); further writes are no-ops.
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
  int write_timeout_ms_;
  std::string buffer_;
  /// Where the unterminated line at the end of buffer_ starts: the frame
  /// cap applies to it even while complete lines wait ahead of it.
  size_t tail_start_ = 0;
  bool overflow_ = false;  ///< dropping until the next newline (resync)
  bool eof_ = false;
  bool write_failed_ = false;
  uint64_t rejected_ = 0;
};

}  // namespace spatter::net

#endif  // SPATTER_NET_SOCKET_H_
