#include "src/net/fanin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "src/common/logging.hpp"
#include "src/net/tcp.hpp"
#include "src/net/transport.hpp"

namespace haccs::net {

// ---------------------------------------------------------------------------
// PollGroup

#ifdef __linux__

PollGroup::PollGroup() {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
}

PollGroup::~PollGroup() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

namespace {
std::uint32_t epoll_mask(short events) {
  std::uint32_t m = 0;
  if (events & POLLIN) m |= EPOLLIN;
  if (events & POLLOUT) m |= EPOLLOUT;
  return m;
}
}  // namespace

void PollGroup::add(int fd, bool read, bool write) {
  const short mask =
      static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
  interest_[fd] = mask;
  epoll_event ev{};
  ev.events = epoll_mask(mask);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void PollGroup::update(int fd, bool read, bool write) {
  const short mask =
      static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
  interest_[fd] = mask;
  epoll_event ev{};
  ev.events = epoll_mask(mask);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void PollGroup::remove(int fd) {
  interest_.erase(fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::size_t PollGroup::wait(std::vector<Ready>& out, int timeout_ms) {
  out.clear();
  epoll_event events[128];
  int rc;
  do {
    rc = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return 0;
  out.reserve(static_cast<std::size_t>(rc));
  for (int i = 0; i < rc; ++i) {
    Ready r;
    r.fd = events[i].data.fd;
    r.readable = (events[i].events & EPOLLIN) != 0;
    r.writable = (events[i].events & EPOLLOUT) != 0;
    r.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(r);
  }
  return out.size();
}

#else  // poll() fallback

PollGroup::PollGroup() = default;
PollGroup::~PollGroup() = default;

void PollGroup::add(int fd, bool read, bool write) {
  interest_[fd] =
      static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
}

void PollGroup::update(int fd, bool read, bool write) { add(fd, read, write); }

void PollGroup::remove(int fd) { interest_.erase(fd); }

std::size_t PollGroup::wait(std::vector<Ready>& out, int timeout_ms) {
  out.clear();
  std::vector<pollfd> fds;
  fds.reserve(interest_.size());
  for (const auto& [fd, mask] : interest_) {
    fds.push_back(pollfd{fd, mask, 0});
  }
  int rc;
  do {
    rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return 0;
  for (const pollfd& p : fds) {
    if (p.revents == 0) continue;
    Ready r;
    r.fd = p.fd;
    r.readable = (p.revents & POLLIN) != 0;
    r.writable = (p.revents & POLLOUT) != 0;
    r.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out.push_back(r);
  }
  return out.size();
}

#endif

// ---------------------------------------------------------------------------
// FanInServer

FanInServer::FanInServer(const FanInOptions& options) : options_(options) {
  listen_fd_ = listen_loopback("fanin", options.port, 128, &port_);
  set_nonblocking(listen_fd_);
  group_.add(listen_fd_, true, false);
}

FanInServer::~FanInServer() {
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool FanInServer::pop_ready(FanInEvent* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  if (out->kind == FanInEvent::Kind::Frame) {
    auto it = conns_.find(out->conn);
    if (it != conns_.end() && it->second.undelivered > 0) {
      --it->second.undelivered;
      // Delivering a frame may reopen a backpressured connection.
      if (it->second.read_suppressed &&
          it->second.undelivered < options_.max_inbound_frames) {
        it->second.read_suppressed = false;
        sync_interest(it->second);
      }
    }
  }
  return true;
}

bool FanInServer::poll(FanInEvent* out, int timeout_ms) {
  if (pop_ready(out)) return true;
  const std::size_t n = group_.wait(scratch_, timeout_ms);
  for (std::size_t i = 0; i < n; ++i) {
    const PollGroup::Ready r = scratch_[i];
    if (r.fd == listen_fd_) {
      accept_pending();
      continue;
    }
    const auto fd_it = by_fd_.find(r.fd);
    if (fd_it == by_fd_.end()) continue;
    const std::uint64_t id = fd_it->second;
    Conn& conn = conns_[id];
    if (r.writable) {
      if (!flush_conn(conn)) {
        drop_conn(id, /*emit_closed=*/true, /*shed=*/false);
        continue;
      }
      sync_interest(conn);
    }
    if (r.readable) read_conn(id, conn);
    // Error-only readiness (peer reset with nothing readable): the read
    // path above surfaces orderly EOFs; a pure error drops the conn here.
    if (r.error && !r.readable && conns_.count(id) != 0) {
      drop_conn(id, /*emit_closed=*/true, /*shed=*/false);
    }
  }
  return pop_ready(out);
}

void FanInServer::accept_pending() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    if (conns_.size() >= options_.max_connections) {
      ::close(fd);
      HACCS_WARN << "fanin: connection limit (" << options_.max_connections
                 << ") reached, refusing peer";
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    const std::uint64_t id = next_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    by_fd_[fd] = id;
    group_.add(fd, true, false);
    FanInEvent ev;
    ev.kind = FanInEvent::Kind::Accepted;
    ev.conn = id;
    ready_.push_back(std::move(ev));
  }
}

void FanInServer::read_conn(std::uint64_t id, Conn& conn) {
  NetMetrics& m = NetMetrics::get();
  while (!conn.read_suppressed) {
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      drop_conn(id, /*emit_closed=*/true, /*shed=*/false);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop_conn(id, /*emit_closed=*/true, /*shed=*/false);
      return;
    }
    m.bytes_received.inc(static_cast<std::uint64_t>(n));
    conn.parser.feed({chunk, static_cast<std::size_t>(n)});
    // Decode everything the parser buffered — the bytes are already in
    // memory, so the inbound cap gates further reads, not decoding.
    for (;;) {
      FanInEvent ev;
      ev.conn = id;
      const FrameStatus status = conn.parser.next(&ev.frame);
      if (status == FrameStatus::Ok) {
        m.frames_received.inc();
        ev.kind = FanInEvent::Kind::Frame;
        ++conn.undelivered;
        ready_.push_back(std::move(ev));
        continue;
      }
      if (status == FrameStatus::BadChecksum) {
        m.frames_corrupt.inc();
        ev.kind = FanInEvent::Kind::Corrupt;
        ready_.push_back(std::move(ev));
        continue;
      }
      if (status == FrameStatus::NeedMore) break;
      // Desynchronized stream: unrecoverable.
      HACCS_WARN << "fanin: fatal frame error from " << conn.peer << ": "
                 << to_string(status);
      drop_conn(id, /*emit_closed=*/true, /*shed=*/false);
      return;
    }
    if (conn.undelivered >= options_.max_inbound_frames) {
      conn.read_suppressed = true;
      sync_interest(conn);
    }
  }
}

bool FanInServer::flush_conn(Conn& conn) {
  NetMetrics& m = NetMetrics::get();
  while (!conn.outbound.empty()) {
    const std::vector<std::uint8_t>& front = conn.outbound.front();
    const ssize_t n =
        ::send(conn.fd, front.data() + conn.out_offset,
               front.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    m.bytes_sent.inc(static_cast<std::uint64_t>(n));
    conn.out_offset += static_cast<std::size_t>(n);
    if (conn.out_offset == front.size()) {
      m.frames_sent.inc();
      m.frame_bytes.observe(static_cast<double>(front.size()));
      conn.outbound.pop_front();
      conn.out_offset = 0;
    }
  }
  return true;
}

void FanInServer::sync_interest(Conn& conn) {
  group_.update(conn.fd, !conn.read_suppressed, !conn.outbound.empty());
}

bool FanInServer::send(std::uint64_t id, const Frame& frame) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;
  if (conn.outbound.size() >= options_.max_outbound_frames) {
    // Slow-peer shedding: the peer is not draining its socket; holding more
    // frames for it would grow without bound. Closing surfaces as a crash
    // to the aggregation layer, which re-covers the work like any other
    // dead peer.
    HACCS_WARN << "fanin: shedding slow peer " << conn.peer << " ("
               << conn.outbound.size() << " frames queued)";
    drop_conn(id, /*emit_closed=*/true, /*shed=*/true);
    return false;
  }
  conn.outbound.push_back(encode_frame(frame));
  if (!flush_conn(conn)) {
    drop_conn(id, /*emit_closed=*/true, /*shed=*/false);
    return false;
  }
  sync_interest(conn);
  return true;
}

void FanInServer::close_conn(std::uint64_t id) {
  drop_conn(id, /*emit_closed=*/false, /*shed=*/false);
}

void FanInServer::drop_conn(std::uint64_t id, bool emit_closed, bool shed) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  group_.remove(conn.fd);
  by_fd_.erase(conn.fd);
  ::close(conn.fd);
  if (emit_closed) {
    FanInEvent ev;
    ev.kind = FanInEvent::Kind::Closed;
    ev.conn = id;
    ev.shed = shed;
    ready_.push_back(std::move(ev));
  }
  conns_.erase(it);
}

std::size_t FanInServer::outbound_queued(std::uint64_t id) const {
  const auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second.outbound.size();
}

std::size_t FanInServer::inbound_queued(std::uint64_t id) const {
  const auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second.undelivered;
}

std::string FanInServer::peer_name(std::uint64_t id) const {
  const auto it = conns_.find(id);
  return it == conns_.end() ? "?" : it->second.peer;
}

}  // namespace haccs::net
