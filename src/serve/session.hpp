// The peer side of a serving session and the process plumbing the serving
// binaries share (DESIGN.md §5g): the worker's session handshake, the one
// reconnect backoff, port files, and the ops status endpoint (§5i).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/data/partition.hpp"
#include "src/fl/net_driver.hpp"
#include "src/net/status.hpp"
#include "src/net/transport.hpp"
#include "src/obs/obs.hpp"

namespace haccs::serve {

/// The clients worker `worker_id` of `num_workers` hosts: every id with
/// id % num_workers == worker_id.
std::vector<std::size_t> hosted_clients(std::size_t num_clients,
                                        std::uint32_t worker_id,
                                        std::uint32_t num_workers);

/// Opens (or resumes) a worker session: Hello with the hosted-client count,
/// then one P(y) Summary per hosted client — the same frames on the first
/// connect and on every reconnect. False when a send fails.
bool send_session_handshake(net::Transport& transport,
                            const data::FederatedDataset& fed,
                            std::uint32_t worker_id,
                            std::uint32_t num_workers);

struct ReconnectPolicy {
  /// Consecutive failed connects before giving up (one is always made).
  int attempts = 10;
  /// Backoff after the first failure, doubled per further failure, capped
  /// at 32x, with jitter in [0.5, 1.5)x.
  int backoff_ms = 200;
};

/// Calls `connect` until it yields a transport, sleeping the capped
/// exponential backoff between failures. Returns nullptr once
/// `policy.attempts` consecutive calls have failed. `jitter` is the caller's
/// seeded stream, so launches replay while peers desynchronize.
std::unique_ptr<net::Transport> redial(
    const std::function<std::unique_ptr<net::Transport>()>& connect,
    const ReconnectPolicy& policy, Rng& jitter);

/// One TCP connect attempt to host:port. When `port_file` is set the port
/// is read from it first: an upstream restarted with --resume may have
/// re-bound to a fresh ephemeral port.
std::unique_ptr<net::Transport> dial(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& port_file);

/// Publishes a port atomically (sibling temp file, then rename): a reader
/// polling `path` sees nothing or the complete number, never a partial one.
void write_port_file(const std::string& path, std::uint16_t port);

/// Polls `path` until it holds a port number; throws after `timeout_ms`.
std::uint16_t wait_for_port_file(const std::string& path, int timeout_ms);

/// Starts /metrics (the global registry), /status and /healthz on
/// 127.0.0.1:`port`, publishes the bound port to `port_file` when set and
/// logs it. /status is the tier's own fields (given the uptime in seconds)
/// followed by "serving", the board's rows; `board` must outlive the
/// returned server. Returns nullptr when port < 0.
std::unique_ptr<net::StatusServer> start_status_endpoint(
    int port, const std::string& port_file,
    const fl::ServingStatusBoard& board,
    std::function<void(obs::JsonObject&, double)> tier_fields);

}  // namespace haccs::serve
