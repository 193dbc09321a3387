#include "src/hier/mid_tier.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/logging.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::hier {

namespace {

/// Poll slice for the alternating upstream/downstream pump: short enough
/// that neither side starves the other, long enough not to spin.
constexpr int kSliceMs = 5;

/// Per-tier wire/fold telemetry (§5j): `hier_upstream_bytes_*` count exactly
/// the framed bytes this aggregator exchanged with the root, so a clean
/// 3-tier run's per-tier byte accounting sums to the root's transport
/// counters (asserted by the serving smoke).
struct HierMetrics {
  obs::Counter& rounds = obs::Registry::global().counter("hier_rounds_total");
  obs::Counter& folded =
      obs::Registry::global().counter("hier_updates_folded_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("hier_updates_rejected_total");
  obs::Counter& jobs_relayed =
      obs::Registry::global().counter("hier_jobs_relayed_total");
  obs::Counter& worker_failures =
      obs::Registry::global().counter("hier_worker_failures_total");
  obs::Counter& upstream_sent =
      obs::Registry::global().counter("hier_upstream_bytes_sent_total");
  obs::Counter& upstream_received =
      obs::Registry::global().counter("hier_upstream_bytes_received_total");

  static HierMetrics& get() {
    static HierMetrics metrics;
    return metrics;
  }
};

std::size_t frame_wire_bytes(const net::Frame& frame) {
  return net::kFrameHeaderBytes + frame.payload.size();
}

}  // namespace

MidTierAggregator::MidTierAggregator(const MidTierConfig& config)
    : config_(config), fanin_(config.fanin) {
  if (config_.num_aggs == 0 || config_.num_workers == 0 ||
      config_.num_workers % config_.num_aggs != 0) {
    throw std::invalid_argument(
        "MidTierAggregator: num_aggs must evenly divide num_workers");
  }
  if (config_.agg_id >= config_.num_aggs) {
    throw std::invalid_argument("MidTierAggregator: agg_id out of range");
  }
  if (config_.chunk_params == 0) {
    throw std::invalid_argument("MidTierAggregator: chunk_params must be > 0");
  }
  const std::uint32_t per = config_.num_workers / config_.num_aggs;
  worker_begin_ = config_.agg_id * per;
  worker_end_ = worker_begin_ + per;
  conn_of_worker_.assign(per, 0);
  pending_.resize(per);
}

void MidTierAggregator::note_heard(std::size_t local) {
  if (fl::ServingStatusBoard* board = config_.status_board) {
    if (local < board->num_workers()) {
      board->worker(local).last_heard_ms.store(net::steady_ms(),
                                               std::memory_order_relaxed);
    }
  }
}

void MidTierAggregator::sync_board(std::size_t local) {
  fl::ServingStatusBoard* board = config_.status_board;
  if (!board || local >= board->num_workers()) return;
  auto& row = board->worker(local);
  row.outstanding.store(pending_[local].size(), std::memory_order_relaxed);
  row.alive.store(conn_of_worker_[local] != 0, std::memory_order_relaxed);
  row.queued.store(fanin_.outbound_queued(conn_of_worker_[local]),
                   std::memory_order_relaxed);
}

bool MidTierAggregator::send_upstream(net::Transport& upstream,
                                      const net::Frame& frame) {
  const auto status = upstream.send(frame);
  if (status != net::TransportStatus::Ok) {
    HACCS_WARN << "agg " << config_.agg_id
               << ": upstream send failed: " << net::to_string(status);
    return false;
  }
  const std::size_t bytes = frame_wire_bytes(frame);
  stats_.upstream_bytes_sent += bytes;
  HierMetrics::get().upstream_sent.inc(bytes);
  return true;
}

void MidTierAggregator::broadcast_downstream(const net::Frame& frame) {
  for (std::uint64_t conn : conn_of_worker_) {
    if (conn != 0) fanin_.send(conn, frame);
  }
}

bool MidTierAggregator::handshake(net::Transport& upstream) {
  const std::int64_t deadline =
      config_.handshake_timeout_ms > 0
          ? net::steady_ms() + config_.handshake_timeout_ms
          : -1;
  auto complete = [&] {
    for (std::uint64_t conn : conn_of_worker_) {
      if (conn == 0) return false;
    }
    for (const auto& [conn, owed] : summaries_pending_) {
      if (owed > 0) return false;
    }
    return true;
  };
  while (!complete()) {
    if (deadline >= 0 && net::steady_ms() > deadline) {
      HACCS_WARN << "agg " << config_.agg_id
                 << ": handshake timeout; workers connected: "
                 << fanin_.connection_count() << "/" << conn_of_worker_.size();
      return false;
    }
    net::FanInEvent ev;
    if (fanin_.poll(&ev, 50)) handle_downstream(upstream, ev);
  }

  net::TopologyHelloMsg hello;
  hello.agg_id = config_.agg_id;
  hello.num_aggs = config_.num_aggs;
  hello.worker_begin = worker_begin_;
  hello.worker_end = worker_end_;
  hello.num_clients = total_clients_;
  if (!send_upstream(upstream, net::encode_topology_hello(hello))) return false;
  for (const net::Frame& frame : summary_frames_) {
    if (!send_upstream(upstream, frame)) return false;
  }
  summary_frames_.clear();
  summary_frames_.shrink_to_fit();
  handshook_ = true;
  HACCS_INFO << "agg " << config_.agg_id << ": subtree up (workers ["
             << worker_begin_ << ", " << worker_end_ << "), " << total_clients_
             << " clients)";
  return true;
}

bool MidTierAggregator::run(net::Transport& upstream) {
  if (!handshake(upstream)) return false;
  std::int64_t next_heartbeat =
      config_.heartbeat_interval_ms > 0
          ? net::steady_ms() + config_.heartbeat_interval_ms
          : -1;
  for (;;) {
    bool busy = false;
    // Upstream: drain whatever the root has queued.
    for (;;) {
      net::Frame frame;
      const auto status = upstream.recv(&frame, 0);
      if (status == net::TransportStatus::Ok) {
        busy = true;
        const std::size_t bytes = frame_wire_bytes(frame);
        stats_.upstream_bytes_received += bytes;
        HierMetrics::get().upstream_received.inc(bytes);
        if (frame.type == net::MessageType::Shutdown) {
          broadcast_downstream(net::encode_shutdown());
          // Grace window: relay the workers' final TraceShards upstream
          // before the root stops draining us.
          const std::int64_t drain_deadline = net::steady_ms() + 1000;
          while (fanin_.connection_count() > 0 &&
                 net::steady_ms() < drain_deadline) {
            net::FanInEvent ev;
            if (fanin_.poll(&ev, 20)) handle_downstream(upstream, ev);
          }
          return true;
        }
        if (!handle_upstream(upstream, frame)) return false;
        continue;
      }
      if (status == net::TransportStatus::Corrupt) {
        // Lost control traffic; the round deadline absorbs the damage.
        busy = true;
        continue;
      }
      if (status == net::TransportStatus::Closed) {
        HACCS_WARN << "agg " << config_.agg_id
                   << ": upstream closed; shutting subtree down";
        broadcast_downstream(net::encode_shutdown());
        return false;
      }
      break;  // Timeout: nothing pending
    }
    // Downstream: drain ready worker events.
    for (;;) {
      net::FanInEvent ev;
      if (!fanin_.poll(&ev, 0)) break;
      busy = true;
      handle_downstream(upstream, ev);
    }
    // Round bookkeeping: settle when every expected client is accounted
    // for, or when the deadline fails the stragglers.
    if (round_.open) {
      if (round_.deadline_ms >= 0 && net::steady_ms() > round_.deadline_ms) {
        HACCS_WARN << "agg " << config_.agg_id << ": round " << round_.epoch
                   << " deadline; failing "
                   << round_.expected.size() - round_.settled_count
                   << " straggler(s)";
        fail_unsettled(fl::FailureKind::Timeout);
      }
      if (round_.settled_count == round_.expected.size() && !round_.implicit) {
        if (!settle_round(upstream)) return false;
      }
    }
    if (next_heartbeat >= 0 && net::steady_ms() >= next_heartbeat) {
      net::HeartbeatMsg beat;
      beat.sender_id = config_.agg_id;
      beat.epoch = round_.epoch;
      if (!send_upstream(upstream, net::encode_heartbeat(beat))) return false;
      next_heartbeat = net::steady_ms() + config_.heartbeat_interval_ms;
    }
    if (!busy) {
      // Idle: block briefly on the fan-in side (which also flushes pending
      // outbound frames); the upstream link is re-polled next iteration.
      net::FanInEvent ev;
      if (fanin_.poll(&ev, kSliceMs)) handle_downstream(upstream, ev);
    }
  }
}

bool MidTierAggregator::handle_upstream(net::Transport& /*upstream*/,
                                        const net::Frame& frame) {
  switch (frame.type) {
    case net::MessageType::SelectNotice:
      try {
        open_round(net::decode_select_notice(frame));
      } catch (const net::WireError& e) {
        HACCS_WARN << "agg " << config_.agg_id
                   << ": bad SelectNotice: " << e.what();
      }
      break;
    case net::MessageType::TrainJob:
      relay_train_job(frame);
      break;
    case net::MessageType::EvalReport:
      // Round-committed marker: relay so workers ship their trace shards.
      broadcast_downstream(frame);
      break;
    default:
      break;  // Heartbeat etc.: informational
  }
  return true;
}

void MidTierAggregator::open_round(const net::SelectNoticeMsg& msg) {
  if (round_.open) {
    HACCS_WARN << "agg " << config_.agg_id << ": round " << round_.epoch
               << " abandoned (" << round_.settled_count << "/"
               << round_.expected.size() << " settled) for round " << msg.epoch;
  }
  round_ = Round{};
  round_.open = true;
  round_.epoch = msg.epoch;
  for (std::uint32_t id : msg.clients) {
    const std::uint32_t w = id % config_.num_workers;
    if (w < worker_begin_ || w >= worker_end_) continue;  // not our subtree
    register_client(id);
  }
  if (config_.round_timeout_ms > 0) {
    round_.deadline_ms = net::steady_ms() + config_.round_timeout_ms;
  }
  for (auto& queue : pending_) queue.clear();
  if (fl::ServingStatusBoard* board = config_.status_board) {
    board->round.store(round_.epoch, std::memory_order_relaxed);
    board->dispatched.store(round_.expected.size(), std::memory_order_relaxed);
    board->delivered.store(0, std::memory_order_relaxed);
    board->collecting.store(true, std::memory_order_relaxed);
    for (std::size_t l = 0; l < conn_of_worker_.size(); ++l) sync_board(l);
  }
}

std::size_t MidTierAggregator::register_client(std::uint32_t client_id) {
  const auto it = round_.index_of.find(client_id);
  if (it != round_.index_of.end()) return it->second;
  const std::size_t index = round_.expected.size();
  round_.expected.push_back(client_id);
  net::SubtreeClientStat stat;
  stat.client_id = client_id;
  stat.delivered = 0;
  stat.failure = static_cast<std::uint8_t>(fl::FailureKind::Crash);
  round_.stats.push_back(stat);
  round_.settled.push_back(0);
  round_.index_of.emplace(client_id, index);
  return index;
}

void MidTierAggregator::relay_train_job(const net::Frame& frame) {
  net::TrainJobMsg msg;
  try {
    msg = net::decode_train_job(frame);
  } catch (const net::WireError& e) {
    HACCS_WARN << "agg " << config_.agg_id << ": bad TrainJob: " << e.what();
    return;
  }
  if (!round_.open) {
    // The SelectNotice was lost (hostile link): open an implicit round
    // scoped by the job's epoch. Its client set grows in arrival order —
    // which IS slot order, since the root relays jobs in slot order over
    // one in-order link — and it settles only on the deadline, because the
    // expected set is never known to be complete.
    round_ = Round{};
    round_.open = true;
    round_.implicit = true;
    round_.epoch = msg.epoch;
    if (config_.round_timeout_ms > 0) {
      round_.deadline_ms = net::steady_ms() + config_.round_timeout_ms;
    }
    for (auto& queue : pending_) queue.clear();
  }
  if (msg.epoch != round_.epoch) return;  // stale round — drop
  if (!round_.have_global) {
    round_.global = std::move(msg.params);
    round_.have_global = true;
  }
  const std::uint32_t w = msg.client_id % config_.num_workers;
  if (w < worker_begin_ || w >= worker_end_) {
    HACCS_WARN << "agg " << config_.agg_id << ": TrainJob for client "
               << msg.client_id << " outside subtree — dropped";
    return;
  }
  const std::size_t index = register_client(msg.client_id);
  const std::size_t local = w - worker_begin_;
  const std::uint64_t conn = conn_of_worker_[local];
  if (conn == 0) {
    // The worker is gone; fail the client now rather than on the deadline.
    if (!round_.settled[index]) {
      round_.stats[index].failure =
          static_cast<std::uint8_t>(fl::FailureKind::Crash);
      settle_slot(index);
      advance_fold();
    }
    return;
  }
  pending_[local].push_back(msg.client_id);
  HierMetrics::get().jobs_relayed.inc();
  // A false return means the peer was just shed; the Closed event the next
  // poll delivers fails this client along with the rest of the queue.
  fanin_.send(conn, frame);
  sync_board(local);
}

void MidTierAggregator::handle_downstream(net::Transport& upstream,
                                          const net::FanInEvent& ev) {
  using Kind = net::FanInEvent::Kind;
  switch (ev.kind) {
    case Kind::Accepted:
      break;  // identity arrives with the Hello frame
    case Kind::Frame: {
      const auto known = worker_of_conn_.find(ev.conn);
      if (known != worker_of_conn_.end()) note_heard(known->second);
      switch (ev.frame.type) {
        case net::MessageType::Hello: {
          net::HelloMsg hello;
          try {
            hello = net::decode_hello(ev.frame);
          } catch (const net::WireError& e) {
            HACCS_WARN << "agg " << config_.agg_id
                       << ": bad Hello: " << e.what();
            fanin_.close_conn(ev.conn);
            return;
          }
          if (hello.worker_id < worker_begin_ ||
              hello.worker_id >= worker_end_) {
            HACCS_WARN << "agg " << config_.agg_id << ": worker "
                       << hello.worker_id << " outside subtree — refused";
            fanin_.close_conn(ev.conn);
            return;
          }
          const std::size_t local = hello.worker_id - worker_begin_;
          if (const std::uint64_t old = conn_of_worker_[local];
              old != 0 && old != ev.conn) {
            // Reconnect: the fresh session replaces the stale one.
            worker_of_conn_.erase(old);
            summaries_pending_.erase(old);
            fanin_.close_conn(old);
          }
          conn_of_worker_[local] = ev.conn;
          worker_of_conn_[ev.conn] = local;
          summaries_pending_[ev.conn] = hello.num_clients;
          if (fl::ServingStatusBoard* board = config_.status_board) {
            if (local < board->num_workers()) {
              board->worker(local).sessions.fetch_add(1,
                                                      std::memory_order_relaxed);
            }
          }
          note_heard(local);
          sync_board(local);
          break;
        }
        case net::MessageType::Summary: {
          auto owed = summaries_pending_.find(ev.conn);
          if (owed == summaries_pending_.end() || owed->second == 0) {
            break;  // unexpected — drop
          }
          --owed->second;
          if (!handshook_) {
            summary_frames_.push_back(ev.frame);
            ++total_clients_;
          }
          // Post-handshake (reconnect) summaries were already relayed.
          break;
        }
        case net::MessageType::ClientUpdate:
          try {
            handle_update(net::decode_client_update(ev.frame));
          } catch (const net::WireError& e) {
            HACCS_WARN << "agg " << config_.agg_id
                       << ": undecodable ClientUpdate: " << e.what();
            if (known != worker_of_conn_.end()) {
              fail_front(known->second, fl::FailureKind::CorruptUpdate);
            }
          }
          break;
        case net::MessageType::TraceShard:
          // Worker spans ride through unchanged; the root re-bases their
          // clocks exactly as it does for directly-attached workers.
          send_upstream(upstream, ev.frame);
          break;
        default:
          break;  // Heartbeat: liveness noted above
      }
      break;
    }
    case Kind::Corrupt: {
      const auto known = worker_of_conn_.find(ev.conn);
      if (known != worker_of_conn_.end()) {
        note_heard(known->second);
        fail_front(known->second, fl::FailureKind::CorruptUpdate);
      }
      break;
    }
    case Kind::Closed: {
      const auto known = worker_of_conn_.find(ev.conn);
      if (known == worker_of_conn_.end()) return;
      const std::size_t local = known->second;
      HACCS_WARN << "agg " << config_.agg_id << ": worker "
                 << worker_begin_ + local
                 << (ev.shed ? " shed (slow peer); " : " closed; ")
                 << pending_[local].size() << " job(s) abandoned";
      worker_of_conn_.erase(known);
      summaries_pending_.erase(ev.conn);
      conn_of_worker_[local] = 0;
      ++stats_.worker_failures;
      HierMetrics::get().worker_failures.inc();
      fail_worker_pending(local, fl::FailureKind::Crash);
      sync_board(local);
      break;
    }
  }
}

void MidTierAggregator::handle_update(net::ClientUpdateMsg&& msg) {
  if (!round_.open || msg.epoch != round_.epoch) return;  // stale — drop
  const auto it = round_.index_of.find(msg.client_id);
  if (it == round_.index_of.end()) return;
  const std::size_t index = it->second;
  if (round_.settled[index]) return;  // duplicate — drop
  // The update arrived: it is no longer the corrupt-attribution candidate.
  const std::size_t local =
      (msg.client_id % config_.num_workers) - worker_begin_;
  auto& queue = pending_[local];
  const auto pos = std::find(queue.begin(), queue.end(), msg.client_id);
  if (pos != queue.end()) queue.erase(pos);
  round_.stash.emplace(msg.client_id, std::move(msg));
  advance_fold();
  sync_board(local);
}

void MidTierAggregator::advance_fold() {
  while (round_.next_fold < round_.expected.size()) {
    const std::size_t index = round_.next_fold;
    if (round_.settled[index]) {
      ++round_.next_fold;
      continue;
    }
    const auto it = round_.stash.find(round_.expected[index]);
    if (it == round_.stash.end()) break;  // frontier still outstanding
    fold_update(index, it->second);
    round_.stash.erase(it);
    ++round_.next_fold;
  }
}

void MidTierAggregator::fold_update(std::size_t index,
                                    net::ClientUpdateMsg& msg) {
  net::SubtreeClientStat& stat = round_.stats[index];
  stat.average_loss = msg.average_loss;
  stat.final_loss = msg.final_loss;
  stat.batches = msg.batches;
  stat.sample_count = msg.sample_count;
  // The mid tier folds Dense only (ROADMAP "non-Dense partial folds"): the
  // upstream bit-identity proof is Dense-scoped, so a TopK/Int8 update is
  // rejected per-client — counted in waste accounting — rather than folded
  // through an unproven reconstruction.
  bool ok = round_.have_global &&
            msg.update.kind == net::UpdateKind::Dense &&
            msg.update.size == round_.global.size();
  if (ok) {
    // Reconstruction identical to the flat dispatcher's handle_frame: Dense
    // carries the updated parameters directly.
    std::vector<float> updated = std::move(msg.update.dense);
    ok = fl::fold_into_partial(round_.partial, updated, round_.global,
                               static_cast<double>(msg.sample_count),
                               config_.max_update_norm)
             .has_value();
  }
  if (ok) {
    stat.delivered = 1;
    ++stats_.folded;
    HierMetrics::get().folded.inc();
    if (fl::ServingStatusBoard* board = config_.status_board) {
      board->delivered.fetch_add(1, std::memory_order_relaxed);
      const std::size_t local =
          (stat.client_id % config_.num_workers) - worker_begin_;
      if (local < board->num_workers()) {
        board->worker(local).updates.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } else {
    // Same accounting as the engine's own validation rejection.
    stat.delivered = 0;
    stat.failure = static_cast<std::uint8_t>(fl::FailureKind::CorruptUpdate);
    ++stats_.rejected;
    HierMetrics::get().rejected.inc();
  }
  settle_slot(index);
}

void MidTierAggregator::settle_slot(std::size_t index) {
  round_.settled[index] = 1;
  ++round_.settled_count;
}

void MidTierAggregator::fail_front(std::size_t local, fl::FailureKind kind) {
  auto& queue = pending_[local];
  while (!queue.empty()) {
    const std::uint32_t client = queue.front();
    queue.pop_front();
    const auto it = round_.index_of.find(client);
    if (it == round_.index_of.end() || round_.settled[it->second]) continue;
    round_.stats[it->second].failure = static_cast<std::uint8_t>(kind);
    settle_slot(it->second);
    advance_fold();
    sync_board(local);
    return;
  }
}

void MidTierAggregator::fail_worker_pending(std::size_t local,
                                            fl::FailureKind kind) {
  while (!pending_[local].empty()) fail_front(local, kind);
}

void MidTierAggregator::fail_unsettled(fl::FailureKind kind) {
  // Stashed updates arrived in time — fail only the truly missing clients,
  // then let the fold frontier pass the failures and fold the stash.
  for (std::size_t i = 0; i < round_.expected.size(); ++i) {
    if (round_.settled[i]) continue;
    if (round_.stash.count(round_.expected[i]) > 0) continue;
    round_.stats[i].failure = static_cast<std::uint8_t>(kind);
    settle_slot(i);
  }
  advance_fold();
  for (std::size_t i = 0; i < round_.expected.size(); ++i) {
    if (round_.settled[i]) continue;
    round_.stats[i].failure = static_cast<std::uint8_t>(kind);
    settle_slot(i);
  }
  for (auto& queue : pending_) queue.clear();
  round_.stash.clear();
  round_.implicit = false;  // the expected set is final now — settle
}

bool MidTierAggregator::settle_round(net::Transport& upstream) {
  obs::Span span("subtree_settle", "hier");
  std::uint64_t n_chunks = 0;
  if (round_.partial.updates > 0) {
    const std::vector<double>& sum = round_.partial.sum;
    for (std::size_t offset = 0; offset < sum.size();
         offset += config_.chunk_params) {
      const std::size_t len =
          std::min(config_.chunk_params, sum.size() - offset);
      net::SubtreeChunkMsg chunk;
      chunk.epoch = round_.epoch;
      chunk.agg_id = config_.agg_id;
      chunk.offset = offset;
      chunk.data.assign(
          sum.begin() + static_cast<std::ptrdiff_t>(offset),
          sum.begin() + static_cast<std::ptrdiff_t>(offset + len));
      if (!send_upstream(upstream, net::encode_subtree_chunk(chunk))) {
        return false;
      }
      ++n_chunks;
    }
  }
  net::SubtreeUpdateMsg trailer;
  trailer.epoch = round_.epoch;
  trailer.agg_id = config_.agg_id;
  trailer.weight = round_.partial.weight;
  trailer.n_chunks = n_chunks;
  trailer.stats = std::move(round_.stats);
  if (!send_upstream(upstream, net::encode_subtree_update(trailer))) {
    return false;
  }
  ++stats_.rounds;
  HierMetrics::get().rounds.inc();
  round_ = Round{};
  if (fl::ServingStatusBoard* board = config_.status_board) {
    board->collecting.store(false, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace haccs::hier
