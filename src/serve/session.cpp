#include "src/serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/net/messages.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/metrics.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs::serve {

std::vector<std::size_t> hosted_clients(std::size_t num_clients,
                                        std::uint32_t worker_id,
                                        std::uint32_t num_workers) {
  std::vector<std::size_t> hosted;
  for (std::size_t id = worker_id; id < num_clients; id += num_workers) {
    hosted.push_back(id);
  }
  return hosted;
}

bool send_session_handshake(net::Transport& transport,
                            const data::FederatedDataset& fed,
                            std::uint32_t worker_id,
                            std::uint32_t num_workers) {
  const auto hosted =
      hosted_clients(fed.clients.size(), worker_id, num_workers);
  if (transport.send(net::encode_hello(net::HelloMsg{
          worker_id, static_cast<std::uint32_t>(hosted.size())})) !=
      net::TransportStatus::Ok) {
    return false;
  }
  for (const std::size_t id : hosted) {
    const auto summary = stats::summarize_response(fed.clients[id].train);
    if (transport.send(net::encode_summary(stats::encode_summary_msg(
            static_cast<std::uint32_t>(id), summary))) !=
        net::TransportStatus::Ok) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<net::Transport> redial(
    const std::function<std::unique_ptr<net::Transport>()>& connect,
    const ReconnectPolicy& policy, Rng& jitter) {
  for (int failures = 1;; ++failures) {
    if (auto transport = connect()) return transport;
    if (failures >= policy.attempts) return nullptr;
    const int shift = std::min(failures - 1, 5);
    const double backoff = static_cast<double>(policy.backoff_ms) *
                           static_cast<double>(1 << shift) *
                           (0.5 + jitter.uniform());
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(backoff)));
  }
}

std::unique_ptr<net::Transport> dial(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& port_file) {
  if (!port_file.empty()) port = wait_for_port_file(port_file, 30000);
  // One try: redial() owns the retry schedule.
  net::TcpConnectOptions options;
  options.attempts = 1;
  return net::connect_tcp(host, port, options);
}

void write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + tmp);
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish port file " + path);
  }
}

std::uint16_t wait_for_port_file(const std::string& path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::ifstream in(path);
    int port = 0;
    if (in && (in >> port) && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("timed out waiting for port file " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

std::unique_ptr<net::StatusServer> start_status_endpoint(
    int port, const std::string& port_file,
    const fl::ServingStatusBoard& board,
    std::function<void(obs::JsonObject&, double)> tier_fields) {
  if (port < 0) return nullptr;
  const auto started = std::chrono::steady_clock::now();
  net::StatusEndpoints endpoints;
  endpoints.metrics_text = [] {
    return obs::Registry::global().to_prometheus();
  };
  endpoints.status_json = [&board, started,
                           tier_fields = std::move(tier_fields)] {
    const double uptime_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - started)
                                .count();
    obs::JsonObject o;
    tier_fields(o, uptime_s);
    o.field_raw("serving", board.to_json());
    return o.str();
  };
  auto server = std::make_unique<net::StatusServer>(
      static_cast<std::uint16_t>(port), std::move(endpoints));
  if (!port_file.empty()) write_port_file(port_file, server->port());
  std::fprintf(stderr,
               "status endpoint on 127.0.0.1:%u (/metrics /status /healthz)\n",
               server->port());
  return server;
}

}  // namespace haccs::serve
