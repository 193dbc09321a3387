#include "src/hier/tree_dispatcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::hier {

namespace {

/// Chunks stashed per aggregator before the root stops reading from it —
/// TCP backpressure then holds the data at the sender, which is what bounds
/// root memory to O(chunk × aggregators).
constexpr std::size_t kMaxStashChunks = 8;

struct TreeMetrics {
  obs::Counter& chunks =
      obs::Registry::global().counter("hier_root_chunks_folded_total");
  obs::Counter& torn =
      obs::Registry::global().counter("hier_rounds_torn_total");
  obs::Counter& salvaged =
      obs::Registry::global().counter("hier_aggs_salvaged_total");

  static TreeMetrics& get() {
    static TreeMetrics metrics;
    return metrics;
  }
};

}  // namespace

TreeDispatcher::TreeDispatcher(std::vector<net::Transport*> aggs,
                               TreeDispatcherConfig config)
    : aggs_(std::move(aggs)),
      config_(std::move(config)),
      liveness_(config_, aggs_.size()) {
  if (aggs_.empty()) {
    throw std::invalid_argument("TreeDispatcher: no aggregators");
  }
  if (config_.num_workers == 0 ||
      config_.num_workers % aggs_.size() != 0) {
    throw std::invalid_argument(
        "TreeDispatcher: aggregator count must evenly divide num_workers");
  }
  partials_.assign(1, fl::PartialAggregate{});
}

std::size_t TreeDispatcher::group_of(std::size_t client_id) const {
  return (client_id % config_.num_workers) /
         (config_.num_workers / aggs_.size());
}

bool TreeDispatcher::agg_finished(const AggRound& round,
                                  std::size_t model_size) const {
  if (!round.trailer) return false;
  if (round.update.n_chunks == 0) return true;
  return round.folded_chunks == round.update.n_chunks &&
         round.folded_upto == model_size;
}

bool TreeDispatcher::gate_open(const std::vector<AggRound>& rounds,
                               std::size_t a, std::uint64_t end) const {
  for (std::size_t p = 0; p < a; ++p) {
    const AggRound& prev = rounds[p];
    if (!prev.participating) continue;  // contributes nothing — skip
    if (prev.trailer && prev.update.n_chunks == 0) continue;
    if (prev.folded_upto < end) return false;
  }
  return true;
}

void TreeDispatcher::try_fold(std::vector<AggRound>& rounds,
                              std::vector<double>& acc) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t a = 0; a < rounds.size(); ++a) {
      AggRound& round = rounds[a];
      if (!round.participating) continue;
      const auto it = round.stash.find(round.folded_upto);
      if (it == round.stash.end()) continue;  // next chunk not here yet
      const std::uint64_t end = round.folded_upto + it->second.size();
      if (end > acc.size()) {
        HACCS_WARN << "tree: agg " << a << " chunk overruns the model ("
                   << end << " > " << acc.size() << ") — dropped";
        round.stash.erase(it);
        continue;
      }
      if (!gate_open(rounds, a, end)) continue;
      const std::vector<double>& data = it->second;
      for (std::size_t k = 0; k < data.size(); ++k) {
        acc[round.folded_upto + k] += data[k];
      }
      round.folded_upto = end;
      ++round.folded_chunks;
      round.stash.erase(it);
      TreeMetrics::get().chunks.inc();
      progress = true;
    }
  }
}

void TreeDispatcher::execute(std::span<const fl::TrainJobSpec> jobs,
                             const std::vector<float>& global_params,
                             std::vector<fl::TrainOutcome>& outcomes) {
  const std::size_t num_aggs = aggs_.size();
  const std::uint64_t epoch = jobs.empty() ? 0 : jobs.front().epoch;
  partials_.assign(1, fl::PartialAggregate{});
  std::vector<AggRound> rounds(num_aggs);

  liveness_.begin_round(jobs);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    rounds[group_of(jobs[j].client_id)].job_indices.push_back(j);
  }

  auto fail_agg_jobs = [&](std::size_t a, fl::FailureKind kind) {
    for (const std::size_t j : rounds[a].job_indices) {
      fl::TrainOutcome& out = outcomes[jobs[j].slot];
      if (out.delivered || out.pre_aggregated) continue;
      out.delivered = false;
      out.failure = kind;
    }
  };

  const obs::TraceContext trace_ctx =
      obs::trace_enabled() ? obs::round_context() : obs::TraceContext{};

  // Fan-out: SelectNotice scopes the subtree round (and fixes the fold
  // order), then the TrainJobs follow in slot order down the same link.
  for (std::size_t a = 0; a < num_aggs; ++a) {
    AggRound& round = rounds[a];
    if (round.job_indices.empty()) continue;
    if (liveness_.dead(a)) {
      fail_agg_jobs(a, fl::FailureKind::Crash);
      continue;
    }
    net::SelectNoticeMsg notice;
    notice.epoch = epoch;
    for (const std::size_t j : round.job_indices) {
      notice.clients.push_back(static_cast<std::uint32_t>(jobs[j].client_id));
    }
    const auto status = aggs_[a]->send(net::encode_select_notice(notice),
                                       config_.send_timeout_ms);
    if (status != net::TransportStatus::Ok) {
      fail_agg_jobs(a, liveness_.send_failure(a, status));
      continue;
    }
    bool alive = true;
    for (const std::size_t j : round.job_indices) {
      const fl::TrainJobSpec& job = jobs[j];
      const auto js = aggs_[a]->send(
          net::encode_train_job(fl::make_train_job_msg(
              job, config_.work, global_params, trace_ctx)),
          config_.send_timeout_ms);
      if (js != net::TransportStatus::Ok) {
        fail_agg_jobs(a, liveness_.send_failure(a, js));
        alive = false;
        break;
      }
    }
    round.participating = alive;
  }

  // Collection: fold gated chunks as they arrive.
  std::vector<double> acc(global_params.size(), 0.0);
  liveness_.start_collection();
  bool torn = false;

  auto all_done = [&] {
    for (std::size_t a = 0; a < num_aggs; ++a) {
      if (rounds[a].participating &&
          !agg_finished(rounds[a], global_params.size())) {
        return false;
      }
    }
    return true;
  };
  auto drop_agg = [&](std::size_t a, fl::FailureKind kind) {
    AggRound& round = rounds[a];
    if (round.folded_upto > 0 || round.folded_chunks > 0) {
      // Its partial sum is already mixed into the shared accumulator and
      // cannot be unfolded — the whole round tears.
      torn = true;
      return;
    }
    // Salvage: nothing folded, so this subtree simply contributed nothing —
    // bitwise the flat run with those workers dead.
    round.participating = false;
    round.trailer = false;
    round.stash.clear();
    fail_agg_jobs(a, kind);
    TreeMetrics::get().salvaged.inc();
  };

  while (!torn && !all_done()) {
    if (liveness_.budget_spent()) {
      for (std::size_t a = 0; a < num_aggs; ++a) {
        if (rounds[a].participating &&
            !agg_finished(rounds[a], global_params.size())) {
          drop_agg(a, fl::FailureKind::Timeout);
        }
      }
      break;
    }
    for (std::size_t a = 0; a < num_aggs && !torn; ++a) {
      AggRound& round = rounds[a];
      if (!round.participating ||
          agg_finished(round, global_params.size())) {
        continue;
      }
      if (round.stash.size() >= kMaxStashChunks) {
        // Ahead of the fold gate: stop reading so TCP holds the bytes at
        // the sender instead of growing root memory.
        try_fold(rounds, acc);
        continue;
      }
      net::Frame frame;
      switch (liveness_.poll(a, *aggs_[a], &frame)) {
        case fl::PeerLiveness::Event::Frame:
          try {
            if (frame.type == net::MessageType::SubtreeChunk) {
              auto msg = net::decode_subtree_chunk(frame);
              if (msg.epoch != epoch) break;  // stale round — drop
              round.stash.emplace(msg.offset, std::move(msg.data));
            } else if (frame.type == net::MessageType::SubtreeUpdate) {
              auto msg = net::decode_subtree_update(frame);
              if (msg.epoch != epoch) break;
              round.update = std::move(msg);
              round.trailer = true;  // n_chunks == 0 may open gates
            } else {
              break;  // Heartbeat: liveness already refreshed
            }
            try_fold(rounds, acc);
          } catch (const net::WireError& e) {
            HACCS_WARN << "tree: bad subtree frame from agg " << a << ": "
                       << e.what();
          }
          break;
        case fl::PeerLiveness::Event::Corrupt:
          // Proof of life, but the frame (possibly a chunk) is gone — the
          // aggregator can no longer finish; the budget tears the round.
          HACCS_WARN << "tree: corrupt frame from agg " << a;
          break;
        case fl::PeerLiveness::Event::Lost:
          drop_agg(a, fl::FailureKind::Crash);
          break;
        default:
          break;
      }
    }
  }

  if (torn) {
    // Fail every slot: total weight goes to zero and the engine leaves the
    // model untouched — a torn round is a no-op, never a half-aggregate.
    TreeMetrics::get().torn.inc();
    HACCS_WARN << "tree: round " << epoch
               << " torn (aggregator lost after contributing); "
               << jobs.size() << " job(s) failed";
    for (const fl::TrainJobSpec& job : jobs) {
      fl::TrainOutcome& out = outcomes[job.slot];
      out.delivered = false;
      out.pre_aggregated = false;
      out.failure = fl::FailureKind::Crash;
      out.updated.clear();
    }
    partials_.assign(1, fl::PartialAggregate{});
    liveness_.end_round();
    return;
  }

  // Settle: per-client stats -> outcomes, trailer weights -> the merged
  // partial. Clients a trailer never mentions keep their default Crash.
  std::unordered_map<std::uint32_t, std::size_t> job_of_client;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    job_of_client[static_cast<std::uint32_t>(jobs[j].client_id)] = j;
  }
  fl::PartialAggregate& merged = partials_[0];
  for (std::size_t a = 0; a < num_aggs; ++a) {
    AggRound& round = rounds[a];
    if (!round.participating || !round.trailer) continue;
    for (const net::SubtreeClientStat& stat : round.update.stats) {
      const auto it = job_of_client.find(stat.client_id);
      if (it == job_of_client.end()) continue;  // not this round's client
      fl::TrainOutcome& out = outcomes[jobs[it->second].slot];
      if (stat.delivered) {
        out.delivered = true;
        out.pre_aggregated = true;
        out.weight = static_cast<double>(stat.sample_count);
        out.result.average_loss = stat.average_loss;
        out.result.final_loss = stat.final_loss;
        out.result.batches = static_cast<std::size_t>(stat.batches);
        ++merged.updates;
        liveness_.note_delivered(a);
      } else {
        out.delivered = false;
        out.failure = stat.failure <=
                              static_cast<std::uint8_t>(
                                  fl::FailureKind::CorruptUpdate)
                          ? static_cast<fl::FailureKind>(stat.failure)
                          : fl::FailureKind::Crash;
      }
    }
    merged.weight += round.update.weight;
  }
  if (merged.updates > 0) merged.sum = std::move(acc);
  liveness_.end_round();
}

}  // namespace haccs::hier
