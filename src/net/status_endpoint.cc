#include "net/status_endpoint.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "net/socket.h"

namespace spatter::net {

namespace {

/// A scraper that sends more header than this is not curl; drop it.
constexpr size_t kMaxRequestBytes = 4096;

}  // namespace

bool ParseRequestPath(const std::string& head, std::string* path) {
  if (head.compare(0, 4, "GET ") != 0) return false;
  const size_t path_end = head.find(' ', 4);
  if (path_end == std::string::npos || path_end == 4) return false;
  *path = head.substr(4, path_end - 4);
  return head.compare(path_end, 6, " HTTP/") == 0;
}

StatusEndpoint::~StatusEndpoint() { Close(); }

Status StatusEndpoint::Start(uint16_t port) {
  auto fd = Listen(port);
  if (!fd.ok()) return fd.status();
  auto local = LocalPort(fd.value());
  if (!local.ok()) {
    ::close(fd.value());
    return local.status();
  }
  listen_fd_ = fd.Take();
  port_ = local.Take();
  return Status::OK();
}

std::string StatusEndpoint::BuildResponse(int code, const std::string& reason,
                                          const std::string& body) {
  char head[160];
  const int n = std::snprintf(head, sizeof(head),
                              "HTTP/1.0 %d %s\r\n"
                              "Content-Type: application/json\r\n"
                              "Content-Length: %zu\r\n"
                              "Connection: close\r\n"
                              "\r\n",
                              code, reason.c_str(), body.size());
  return std::string(head, static_cast<size_t>(n)) + body;
}

void StatusEndpoint::HandleReadable(Client* client, const RouteFn& route) {
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(client->fd, buf, sizeof(buf));
    if (n > 0) {
      client->in.append(buf, static_cast<size_t>(n));
      if (client->in.size() > kMaxRequestBytes) break;  // drop below
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Head not complete yet (and not EOF): wait for more bytes.
      if (client->in.find("\r\n\r\n") == std::string::npos &&
          client->in.find("\n\n") == std::string::npos) {
        return;
      }
    }
    break;  // EOF, error, or a complete head: respond or drop.
  }

  const bool complete =
      client->in.find("\r\n\r\n") != std::string::npos ||
      client->in.find("\n\n") != std::string::npos;
  if (!complete || client->in.size() > kMaxRequestBytes) {
    ::close(client->fd);
    client->fd = -1;
    return;
  }

  std::string path;
  if (!ParseRequestPath(client->in, &path)) {
    client->out = BuildResponse(405, "Method Not Allowed",
                                "{\"error\":\"GET only\"}\n");
  } else {
    const std::string body = route ? route(path) : std::string();
    client->out = body.empty()
                      ? BuildResponse(404, "Not Found",
                                      "{\"error\":\"unknown path\"}\n")
                      : BuildResponse(200, "OK", body);
  }
  client->responding = true;
  requests_served_++;
}

void StatusEndpoint::PollOnce(const RouteFn& route) {
  if (listen_fd_ < 0) return;

  for (;;) {
    const int fd = AcceptOne(listen_fd_);
    if (fd < 0) break;
    Client client;
    client.fd = fd;
    clients_.push_back(std::move(client));
  }

  for (Client& client : clients_) {
    if (client.fd < 0) continue;
    if (!client.responding) {
      struct pollfd pfd = {client.fd, POLLIN, 0};
      if (::poll(&pfd, 1, 0) > 0 &&
          (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        HandleReadable(&client, route);
      }
    }
    if (client.fd >= 0 && client.responding) {
      while (client.out_pos < client.out.size()) {
        const ssize_t n =
            ::write(client.fd, client.out.data() + client.out_pos,
                    client.out.size() - client.out_pos);
        if (n > 0) {
          client.out_pos += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        client.out_pos = client.out.size();  // dead peer: give up
        break;
      }
      if (client.out_pos >= client.out.size()) {
        ::close(client.fd);
        client.fd = -1;
      }
    }
  }

  clients_.erase(std::remove_if(clients_.begin(), clients_.end(),
                                [](const Client& c) { return c.fd < 0; }),
                 clients_.end());
}

void StatusEndpoint::Close() {
  for (Client& client : clients_) {
    if (client.fd >= 0) ::close(client.fd);
  }
  clients_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace spatter::net
