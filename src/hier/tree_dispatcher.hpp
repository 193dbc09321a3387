// TreeDispatcher: the root of the hierarchical aggregation tree
// (DESIGN.md §5j).
//
// The engine's RoundDispatcher seam, implemented over A mid-tier aggregator
// transports instead of W worker transports. Fan-out sends each aggregator
// a SelectNotice scoping its subtree's slice of the round (in slot order —
// that order IS the fold order downstream) and relays every TrainJob to the
// aggregator owning its client. Collection receives SubtreeChunk frames and
// folds them into ONE f64 accumulator with group-ordered gating: a chunk
// from aggregator g covering elements [a, b) folds only once every live
// aggregator g' < g has folded past b (or finished) — so the per-element
// add sequence is exactly "group 0's sum, then group 1's, ..." and the
// merged result is bit-identical to a flat dispatcher running with
// agg_groups = A. Peak buffering is O(chunk × aggregators): chunks ahead of
// the gate wait in a per-aggregator stash that drains as predecessors
// advance (the `allreduce_ring_chunked` idiom).
//
// Failure containment: an aggregator that dies BEFORE contributing any
// chunk is salvaged — its slots fail as Crash, everyone else's round
// commits (bitwise what a flat run with those workers dead produces). An
// aggregator that dies AFTER some of its chunks folded tears the whole
// round: the shared accumulator cannot be unfolded, so every slot fails and
// the model is untouched (total weight 0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/fl/net_driver.hpp"
#include "src/net/messages.hpp"
#include "src/net/transport.hpp"

namespace haccs::hier {

/// The shared serving-root settings (fl::ServingRootConfig) apply per
/// aggregator: status-board rows, liveness edges and the heartbeat deadline
/// all count aggregators, not workers.
struct TreeDispatcherConfig : fl::ServingRootConfig {
  /// A tree round waits on whole subtrees: a longer default budget.
  TreeDispatcherConfig() { recv_timeout_ms = 120000; }
  /// Federation-wide worker count; aggregator of a client =
  /// (client_id % num_workers) / (num_workers / num_aggs). Must be a
  /// multiple of the aggregator count.
  std::size_t num_workers = 0;
  /// Ignored by the root: updates are validated at the mid tier, against
  /// MidTierConfig::max_update_norm.
  double max_update_norm = 0.0;
};

class TreeDispatcher final : public fl::RoundDispatcher {
 public:
  TreeDispatcher(std::vector<net::Transport*> aggs,
                 TreeDispatcherConfig config);

  void execute(std::span<const fl::TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<fl::TrainOutcome>& outcomes) override;

  /// One merged PartialAggregate: the group-ordered fold of every
  /// aggregator's partial sum (§5j bit-identity doc in dispatch.hpp).
  const std::vector<fl::PartialAggregate>* partials() const override {
    return &partials_;
  }

  bool agg_alive(std::size_t a) const { return !liveness_.dead(a); }

 private:
  /// Per-aggregator collection state for one execute() call.
  struct AggRound {
    std::vector<std::size_t> job_indices;  ///< into the jobs span, slot order
    bool participating = false;  ///< alive at fan-out with jobs to run
    std::map<std::uint64_t, std::vector<double>> stash;  ///< offset -> chunk
    std::uint64_t folded_upto = 0;   ///< element frontier folded into acc
    std::uint64_t folded_chunks = 0;
    bool trailer = false;
    net::SubtreeUpdateMsg update;
  };

  std::size_t group_of(std::size_t client_id) const;
  /// Folds every gated chunk it can, round-robin until no progress.
  void try_fold(std::vector<AggRound>& rounds, std::vector<double>& acc);
  /// A chunk ending at `end` from aggregator `a` may fold only when every
  /// participating predecessor has folded past `end` or finished.
  bool gate_open(const std::vector<AggRound>& rounds, std::size_t a,
                 std::uint64_t end) const;
  bool agg_finished(const AggRound& round, std::size_t model_size) const;

  std::vector<net::Transport*> aggs_;
  TreeDispatcherConfig config_;
  fl::PeerLiveness liveness_;
  std::vector<fl::PartialAggregate> partials_;
};

}  // namespace haccs::hier
