#include "src/serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/net/wire.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs::serve {

/// Accept slice of one reacquire() call (once per round per dead worker).
constexpr int kReacceptTimeoutMs = 200;

bool SummaryInbox::receive(net::Transport& transport, std::uint32_t count,
                           int timeout_ms, const std::string& peer) {
  for (std::uint32_t s = 0; s < count; ++s) {
    net::Frame frame;
    if (transport.recv(&frame, timeout_ms) != net::TransportStatus::Ok ||
        frame.type != net::MessageType::Summary) {
      std::fprintf(stderr, "%s: summary %u of %u never arrived\n",
                   peer.c_str(), s + 1, count);
      return false;
    }
    const net::SummaryMsg msg = net::decode_summary(frame);
    if (msg.client_id >= summaries_.size()) {
      std::fprintf(stderr, "summary for unknown client %u\n", msg.client_id);
      return false;
    }
    core::ClientSummary summary;
    summary.kind = stats::SummaryKind::Response;
    summary.response = stats::decode_response_summary(msg);
    summaries_[msg.client_id] = std::move(summary);
    have_[msg.client_id] = true;
  }
  return true;
}

bool SummaryInbox::complete() const {
  return std::find(have_.begin(), have_.end(), false) == have_.end();
}

Fleet::Fleet(net::TcpListener& listener, FleetConfig config)
    : listener_(listener),
      config_(config),
      inbox_(config.num_clients),
      slots_(config.num_peers),
      pending_(config.num_peers),
      generation_(config.num_peers, 0) {}

bool Fleet::accept_all(int accept_timeout_ms) {
  // An aggregator announces only after its own downstream handshake, so in
  // tree mode the deadline covers the workers' connect time too.
  const bool worker = config_.kind == PeerKind::Worker;
  for (std::size_t connected = 0; connected < slots_.size(); ++connected) {
    auto transport = listener_.accept(accept_timeout_ms);
    if (!transport) {
      std::fprintf(stderr, "timed out waiting for %s %zu of %zu\n",
                   worker ? "worker" : "aggregator", connected + 1,
                   slots_.size());
      return false;
    }
    const int id = handshake(std::move(transport));
    if (id < 0) return false;
    if (slots_[id]) {
      std::fprintf(stderr,
                   worker ? "duplicate Hello for worker %d — check each "
                            "worker's --worker-id\n"
                          : "duplicate TopologyHello for aggregator %d — "
                            "check each aggregator's --agg-id\n",
                   id);
      return false;
    }
    slots_[id] = std::move(pending_[id]);
  }
  return true;
}

net::Transport* Fleet::reacquire(std::size_t w) {
  // A mid-tier process owns live downstream state a fresh process cannot
  // resume, so a dead aggregator stays dead (the TreeDispatcher contains
  // the loss).
  if (config_.kind != PeerKind::Worker) return nullptr;
  while (auto transport = listener_.accept(kReacceptTimeoutMs)) {
    handshake(std::move(transport));
  }
  if (w < pending_.size() && pending_[w]) {
    slots_[w] = std::move(pending_[w]);
    return slots_[w].get();
  }
  return nullptr;
}

std::vector<net::Transport*> Fleet::peers() const {
  std::vector<net::Transport*> out;
  out.reserve(slots_.size());
  for (const auto& t : slots_) out.push_back(t.get());
  return out;
}

int Fleet::handshake(std::unique_ptr<net::Transport> transport) {
  const bool worker = config_.kind == PeerKind::Worker;
  const std::string peer = transport->peer();
  std::uint32_t id = 0;
  std::uint32_t num_clients = 0;
  net::TopologyHelloMsg subtree;  ///< an aggregator's announcement
  try {
    net::Frame frame;
    if (transport->recv(&frame, config_.io_timeout_ms) !=
            net::TransportStatus::Ok ||
        frame.type != (worker ? net::MessageType::Hello
                              : net::MessageType::TopologyHello)) {
      std::fprintf(stderr, "handshake with %s failed (no %s frame)\n",
                   peer.c_str(), worker ? "Hello" : "TopologyHello");
      return -1;
    }
    if (worker) {
      const net::HelloMsg hello = net::decode_hello(frame);
      if (hello.worker_id >= slots_.size()) {
        std::fprintf(stderr, "bad worker id %u (expected 0..%zu)\n",
                     hello.worker_id, slots_.size() - 1);
        return -1;
      }
      id = hello.worker_id;
      num_clients = hello.num_clients;
    } else {
      subtree = net::decode_topology_hello(frame);
      const std::size_t per = config_.num_workers / slots_.size();
      if (subtree.num_aggs != slots_.size() ||
          subtree.agg_id >= slots_.size() ||
          subtree.worker_begin != subtree.agg_id * per ||
          subtree.worker_end != (subtree.agg_id + 1) * per) {
        std::fprintf(stderr,
                     "aggregator topology mismatch (agg %u/%u, workers "
                     "[%u, %u)) — check --aggs/--workers on every tier\n",
                     subtree.agg_id, subtree.num_aggs, subtree.worker_begin,
                     subtree.worker_end);
        return -1;
      }
      id = subtree.agg_id;
      num_clients = subtree.num_clients;
    }
    if (!inbox_.receive(*transport, num_clients, config_.io_timeout_ms,
                        std::string(worker ? "worker " : "agg ") +
                            std::to_string(id))) {
      return -1;
    }
  } catch (const net::WireError& e) {
    // A well-framed frame whose payload does not decode fails this
    // handshake only.
    std::fprintf(stderr, "handshake with %s failed: %s\n", peer.c_str(),
                 e.what());
    return -1;
  }
  if (worker) {
    std::fprintf(stderr, "worker %u connected (%s), hosting %u client(s)\n",
                 id, peer.c_str(), num_clients);
  } else {
    std::fprintf(stderr,
                 "aggregator %u connected (%s), fronting workers [%u, %u) "
                 "with %u client(s)\n",
                 id, peer.c_str(), subtree.worker_begin, subtree.worker_end,
                 num_clients);
  }
  // The seed forks per peer, and per worker session so that a reconnect
  // does not replay the identical fault script.
  net::ChaosOptions forked = config_.chaos;
  forked.seed = config_.chaos.seed ^ (0xa11ce11aULL * (id + 1));
  if (worker) forked.seed ^= 0x5e5510ULL * ++generation_[id];
  pending_[id] = net::wrap_chaos(std::move(transport), forked);
  return static_cast<int>(id);
}

void Fleet::wind_down(
    const net::EvalReportMsg& report,
    const std::function<void(net::TraceShardMsg&&)>& on_shard) {
  for (const auto& t : slots_) {
    if (!t) continue;
    t->send(net::encode_eval_report(report), config_.io_timeout_ms);
    t->send(net::encode_shutdown(), config_.io_timeout_ms);
  }
  if (!report.trace.valid()) return;
  const std::size_t shards_per_peer =
      config_.kind == PeerKind::Aggregator ? config_.num_workers / slots_.size()
                                           : 1;
  for (const auto& t : slots_) {
    if (!t) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
    std::size_t collected = 0;
    while (collected < shards_per_peer &&
           std::chrono::steady_clock::now() < deadline) {
      net::Frame frame;
      const auto status = t->recv(&frame, 250);
      if (status == net::TransportStatus::Closed) break;
      if (status != net::TransportStatus::Ok) continue;
      if (frame.type == net::MessageType::TraceShard) {
        try {
          on_shard(net::decode_trace_shard(frame));
        } catch (const net::WireError& e) {
          std::fprintf(stderr, "discarding bad trace shard: %s\n", e.what());
        }
        ++collected;
        continue;
      }
      if (frame.type != net::MessageType::Heartbeat) break;
    }
  }
}

}  // namespace haccs::serve
