// The serving root's fleet (DESIGN.md §5g, §5j): the sessions of the peers
// a root dispatches to — workers in flat mode, mid-tier aggregators in tree
// mode — from the first accept to the wind-down after the last round.
//
// A session opens with one first frame (Hello from a worker, TopologyHello
// from an aggregator) and then one Summary frame per client the peer hosts
// or fronts: the paper's one-time summary uplink (§IV-A). Workers repeat it
// on every reconnect, so a restarted root rebuilds its view from the fleet
// alone. Each accepted session is wrapped in seeded outbound chaos.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/net/chaos.hpp"
#include "src/net/messages.hpp"
#include "src/net/tcp.hpp"

namespace haccs::serve {

/// The §IV-A summary uplink: one P(y) summary per client, indexed by id.
class SummaryInbox {
 public:
  explicit SummaryInbox(std::size_t num_clients)
      : summaries_(num_clients), have_(num_clients, false) {}

  /// Receives `count` Summary frames; logs and returns false when one never
  /// arrives or names an unknown client. `peer` names the sender in logs.
  /// Throws net::WireError when a payload does not decode.
  bool receive(net::Transport& transport, std::uint32_t count,
               int timeout_ms, const std::string& peer);

  const std::vector<core::ClientSummary>& summaries() const {
    return summaries_;
  }
  bool complete() const;

 private:
  std::vector<core::ClientSummary> summaries_;
  std::vector<bool> have_;
};

enum class PeerKind { Worker, Aggregator };

struct FleetConfig {
  PeerKind kind = PeerKind::Worker;
  std::size_t num_peers = 1;    ///< workers, or aggregators in tree mode
  std::size_t num_workers = 1;  ///< federation-wide; num_peers divides it
  std::size_t num_clients = 0;  ///< summary inbox size
  int io_timeout_ms = 120000;   ///< per-frame handshake and wind-down budget
  net::ChaosOptions chaos;      ///< forked per peer and per worker session
};

/// The peer kinds differ only in the first frame and its check (a worker id
/// in range, or a subtree matching --aggs/--workers), in the chaos seed
/// derivation, and in reacquire(), which only workers have.
class Fleet {
 public:
  /// `listener` must outlive the fleet.
  Fleet(net::TcpListener& listener, FleetConfig config);

  /// Blocks until every peer has completed its handshake; logs and returns
  /// false on an accept timeout or a failed handshake. A second session for
  /// an accepted id (two peers sharing an id) fails too: the run must not
  /// start with fewer distinct peers than configured.
  bool accept_all(int accept_timeout_ms);

  /// TransportDispatcher reacquire hook: handshakes pending reconnects, then
  /// hands back worker `w`'s slot if a fresh session arrived. A reconnect
  /// goes live only here, for the worker the dispatcher has declared dead:
  /// installing it eagerly would destroy a transport the dispatcher still
  /// holds a raw pointer to. A failed handshake drops that connection only.
  net::Transport* reacquire(std::size_t w);

  /// The live transports, one per peer (null before accept_all).
  std::vector<net::Transport*> peers() const;
  const SummaryInbox& inbox() const { return inbox_; }

  /// Sends every peer `report`, then Shutdown. A report with a valid trace
  /// context asks for the final span shards, which are drained into
  /// `on_shard`: one per worker, the whole subtree per aggregator.
  void wind_down(const net::EvalReportMsg& report,
                 const std::function<void(net::TraceShardMsg&&)>& on_shard);

 private:
  /// The first-frame + summary handshake of a fresh connection: on success
  /// stages it, chaos-wrapped, in its peer's pending slot (replacing an
  /// older pending one) and returns the peer id; else logs and returns -1.
  int handshake(std::unique_ptr<net::Transport> transport);

  net::TcpListener& listener_;
  FleetConfig config_;
  SummaryInbox inbox_;
  std::vector<std::unique_ptr<net::Transport>> slots_;
  std::vector<std::unique_ptr<net::Transport>> pending_;
  std::vector<std::size_t> generation_;  ///< worker sessions accepted
};

}  // namespace haccs::serve
