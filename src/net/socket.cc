#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fuzz/campaign.h"
#include "obs/metrics.h"

namespace spatter::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Non-blocking + close-on-exec + (sockets) TCP_NODELAY. NODELAY because
/// the protocol is many small request/response lines (NETHELLO/ASSIGN,
/// SLICEPROGRESS marks); Nagle would add 40ms bubbles to every exchange.
void ConfigureFd(int fd, bool nodelay) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  if (nodelay) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

}  // namespace

Result<int> Listen(uint16_t port, bool loopback_only) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket()");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Errno("bind()");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Errno("listen()");
  }
  ConfigureFd(fd, /*nodelay=*/false);
  return fd;
}

Result<uint16_t> LocalPort(int listen_fd) {
  struct sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname()");
  }
  return ntohs(addr.sin_port);
}

int AcceptOne(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return -1;
  ConfigureFd(fd, /*nodelay=*/true);
  return fd;
}

Result<int> ConnectWithRetry(const std::string& host, uint16_t port,
                             double retry_seconds, bool refusal_ends) {
  const double deadline = fuzz::Campaign::NowSeconds() + retry_seconds;
  std::string last_error = "no attempt made";
  bool refused = false;  // the last attempt's failure
  do {
    refused = false;
    struct addrinfo hints = {};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    const std::string service = std::to_string(port);
    const int gai = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
    if (gai != 0 || res == nullptr) {
      last_error = std::string("getaddrinfo: ") + ::gai_strerror(gai);
    } else {
      const int fd = ::socket(res->ai_family, res->ai_socktype, 0);
      if (fd < 0) {
        last_error = std::string("socket(): ") + std::strerror(errno);
      } else if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
        ::freeaddrinfo(res);
        ConfigureFd(fd, /*nodelay=*/true);
        return fd;
      } else {
        refused = errno == ECONNREFUSED;
        last_error = std::string("connect(): ") + std::strerror(errno);
        ::close(fd);
      }
      ::freeaddrinfo(res);
    }
    if (refused && refusal_ends) break;
    // Brief backoff; the common case is a client racing a server that is
    // a few milliseconds from listen().
    ::poll(nullptr, 0, 50);
  } while (fuzz::Campaign::NowSeconds() < deadline);
  const std::string message = "connect to " + host + ":" +
                              std::to_string(port) + " failed: " + last_error;
  if (refused) return Status::NotFound(message);
  return Status::Internal(message);
}

bool FrameChannel::WriteFrame(const fleet::Frame& frame) {
  if (fd_ < 0 || write_failed_) return false;
  const std::string line = fleet::EncodeFrame(frame);
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd = {fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, write_timeout_ms_);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) {
        write_failed_ = true;  // wedged peer: stop feeding it
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    write_failed_ = true;
    return false;
  }
  return true;
}

bool FrameChannel::ReadFrames(int timeout_ms, std::vector<fleet::Frame>* frames) {
  if (fd_ < 0) return false;
  if (!eof_) {
    if (timeout_ms > 0) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0 && errno != EINTR) eof_ = true;
    }
    char chunk[8192];
    while (!eof_) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        size_t start = 0;
        if (overflow_) {
          // Resyncing after an oversized line: discard up to (and
          // including) the next newline without buffering.
          const char* nl = static_cast<const char*>(
              ::memchr(chunk, '\n', static_cast<size_t>(n)));
          if (nl == nullptr) continue;
          start = static_cast<size_t>(nl - chunk) + 1;
          overflow_ = false;
        }
        const size_t appended = static_cast<size_t>(n) - start;
        const size_t old_size = buffer_.size();
        buffer_.append(chunk + start, appended);
        for (size_t i = appended; i-- > 0;) {
          if (chunk[start + i] == '\n') {
            tail_start_ = old_size + i + 1;
            break;
          }
        }
        if (buffer_.size() - tail_start_ > fleet::kMaxFrameBytes) {
          // An unterminated line already past the frame cap can never
          // decode: drop it now instead of buffering a hostile peer's
          // endless stream, and keep the complete lines ahead of it.
          SPATTER_METRIC_INC("wire.rejected");
          rejected_++;
          buffer_.resize(tail_start_);
          overflow_ = true;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      eof_ = true;  // 0 = orderly shutdown; other errors equally terminal
    }
  }
  size_t nl;
  while ((nl = buffer_.find('\n')) != std::string::npos) {
    const std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    auto frame = fleet::DecodeFrame(line);
    if (!frame.ok()) {
      rejected_++;  // DecodeFrame already counted wire.rejected
      continue;
    }
    frames->push_back(frame.Take());
  }
  tail_start_ = 0;  // every complete line is consumed
  if (eof_ && !buffer_.empty()) {
    // A final line without '\n' is a torn write from a dying peer.
    SPATTER_METRIC_INC("wire.rejected");
    rejected_++;
    buffer_.clear();
  }
  return !eof_;
}

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  eof_ = true;
}

}  // namespace spatter::net
