// Live introspection for the fleet supervisor (`--fleet` or `--serve`): a
// minimal read-only HTTP/1.0 responder multiplexed into its poll loop
// (--status-port=P). Routes are provided by the owner as a callback —
// the endpoint knows HTTP, not fleet state:
//
//   GET /metrics  -> the spatter-metrics-v1 JSON document
//   GET /fleet    -> worker membership / liveness / per-worker rates
//   GET /bugs     -> the deduped bug set with detecting oracles
//
// One request per connection (Connection: close), bounded request
// buffer, non-blocking reads and writes drained across PollOnce() calls
// — a stalled or hostile scraper can neither block the fleet loop nor
// grow memory. This is an operator surface, not a web server: no
// keep-alive, no TLS, no request bodies.
#ifndef SPATTER_NET_STATUS_ENDPOINT_H_
#define SPATTER_NET_STATUS_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace spatter::net {

/// Parses "GET /path HTTP/1.x" out of a request head into `path`. Returns
/// false on anything that is not a well-formed GET request line.
bool ParseRequestPath(const std::string& head, std::string* path);

class StatusEndpoint {
 public:
  /// Maps a request path ("/metrics") to a JSON body; empty string = 404.
  using RouteFn = std::function<std::string(const std::string& path)>;

  StatusEndpoint() = default;
  ~StatusEndpoint();
  StatusEndpoint(const StatusEndpoint&) = delete;
  StatusEndpoint& operator=(const StatusEndpoint&) = delete;

  /// Binds and listens on `port` (0 = kernel-picked; port() after).
  Status Start(uint16_t port);
  bool started() const { return listen_fd_ >= 0; }
  uint16_t port() const { return port_; }

  /// Accepts pending connections, reads complete requests, answers via
  /// `route`, and flushes response bytes — all non-blocking; call once
  /// per server loop tick. Never blocks the caller.
  void PollOnce(const RouteFn& route);

  void Close();

  size_t requests_served() const { return requests_served_; }

 private:
  struct Client {
    int fd = -1;
    std::string in;        ///< request bytes until the blank line
    std::string out;       ///< response bytes not yet written
    size_t out_pos = 0;
    bool responding = false;
  };

  void HandleReadable(Client* client, const RouteFn& route);
  static std::string BuildResponse(int code, const std::string& reason,
                                   const std::string& body);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<Client> clients_;
  size_t requests_served_ = 0;
};

}  // namespace spatter::net

#endif  // SPATTER_NET_STATUS_ENDPOINT_H_
