#include "src/net/status.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "src/common/logging.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/metrics.hpp"

namespace haccs::net {

namespace {

/// Accept-loop poll slice: long enough to idle cheaply, short enough that
/// stop() returns promptly.
constexpr int kPollSliceMs = 200;
/// A scraper that cannot send one request line or drain one response within
/// this budget is dropped; it can simply scrape again.
constexpr int kClientIoMs = 2000;

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    const int rc = ::poll(&p, 1, kClientIoMs);
    if (rc <= 0 && errno != EINTR) return;
    if (rc <= 0) continue;
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  return std::string("HTTP/1.0 ") + status +
         "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

}  // namespace

StatusServer::StatusServer(std::uint16_t port, StatusEndpoints endpoints)
    : endpoints_(std::move(endpoints)) {
  fd_ = listen_loopback("status", port, 8, &port_);
  thread_ = std::thread([this] { run(); });
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void StatusServer::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, kPollSliceMs);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    int client;
    do {
      client = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    } while (client < 0 && errno == EINTR);
    if (client < 0) continue;
    serve_one(client);
    ::close(client);
  }
}

void StatusServer::serve_one(int client_fd) {
  // Read until the end of the request head (or 4 KiB — scrape requests are
  // one line plus a few headers; anything bigger is not a scraper).
  std::string request;
  while (request.size() < 4096 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    pollfd p{};
    p.fd = client_fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, kClientIoMs);
    if (rc <= 0 && errno != EINTR) return;
    if (rc <= 0) continue;
    char chunk[1024];
    const ssize_t n = ::recv(client_fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return;
    }
    request.append(chunk, static_cast<std::size_t>(n));
  }
  // "GET /path HTTP/1.0" — everything after the method up to the next space.
  std::string target = "/";
  const std::size_t sp = request.find(' ');
  if (sp != std::string::npos) {
    const std::size_t end = request.find(' ', sp + 1);
    target = request.substr(sp + 1, end == std::string::npos
                                        ? std::string::npos
                                        : end - sp - 1);
  }
  static obs::Counter& scrapes =
      obs::Registry::global().counter("status_requests_total");
  scrapes.inc();
  std::string response;
  try {
    if (target == "/healthz") {
      response = http_response("200 OK", "text/plain", "ok\n");
    } else if (target == "/metrics" && endpoints_.metrics_text) {
      response = http_response("200 OK", "text/plain; version=0.0.4",
                               endpoints_.metrics_text());
    } else if (target == "/status" && endpoints_.status_json) {
      response = http_response("200 OK", "application/json",
                               endpoints_.status_json());
    } else {
      response = http_response("404 Not Found", "text/plain", "not found\n");
    }
  } catch (const std::exception& e) {
    response = http_response("500 Internal Server Error", "text/plain",
                             std::string(e.what()) + "\n");
  }
  write_all(client_fd, response);
}

}  // namespace haccs::net
