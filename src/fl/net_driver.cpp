#include "src/fl/net_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/wire.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::fl {

namespace {

struct ServingMetrics {
  obs::Counter& heartbeats_missed =
      obs::Registry::global().counter("heartbeats_missed_total");
  obs::Counter& quorum_degraded =
      obs::Registry::global().counter("rounds_quorum_degraded_total");
  obs::Counter& reconnects =
      obs::Registry::global().counter("net_reconnects_total");

  static ServingMetrics& get() {
    static ServingMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::string ServingStatusBoard::to_json() const {
  const std::int64_t now = net::steady_ms();
  std::string out = "{\"round\":" + std::to_string(round.load());
  out += ",\"collecting\":";
  out += collecting.load() ? "true" : "false";
  out += ",\"dispatched\":" + std::to_string(dispatched.load());
  out += ",\"delivered\":" + std::to_string(delivered.load());
  out += ",\"quorum_target\":" + std::to_string(quorum_target.load());
  out += ",\"quorum_met\":";
  out += quorum_met.load() ? "true" : "false";
  out += ",\"workers\":[";
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = workers_[w];
    if (w > 0) out += ',';
    const std::int64_t heard = worker.last_heard_ms.load();
    out += "{\"id\":" + std::to_string(w);
    out += ",\"alive\":";
    out += worker.alive.load() ? "true" : "false";
    out += ",\"outstanding\":" + std::to_string(worker.outstanding.load());
    out += ",\"updates\":" + std::to_string(worker.updates.load());
    out += ",\"sessions\":" + std::to_string(worker.sessions.load());
    out += ",\"queued\":" + std::to_string(worker.queued.load());
    out += ",\"last_heard_age_ms\":" +
           std::to_string(heard < 0 ? -1 : now - heard);
    out += '}';
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// PeerLiveness

PeerLiveness::PeerLiveness(ServingRootConfig config, std::size_t peers)
    : config_(std::move(config)), dead_(peers, false), last_heard_(peers, 0) {}

ServingStatusBoard::Worker* PeerLiveness::board_row(std::size_t p) const {
  ServingStatusBoard* board = config_.status_board;
  return board && p < board->num_workers() ? &board->worker(p) : nullptr;
}

void PeerLiveness::set_dead(std::size_t p, bool dead) {
  if (dead_[p] == dead) return;
  dead_[p] = dead;
  mirror_alive(p);
  if (config_.on_liveness) config_.on_liveness(p, !dead);
}

void PeerLiveness::mirror_alive(std::size_t p) const {
  if (auto* row = board_row(p)) {
    row->alive.store(!dead_[p], std::memory_order_relaxed);
  }
}

void PeerLiveness::begin_round(std::span<const TrainJobSpec> jobs) {
  start_collection();
  ServingStatusBoard* board = config_.status_board;
  if (!board) return;
  board->round.store(jobs.empty() ? 0 : jobs.front().epoch,
                     std::memory_order_relaxed);
  board->dispatched.store(jobs.size(), std::memory_order_relaxed);
  board->delivered.store(0, std::memory_order_relaxed);
  board->collecting.store(true, std::memory_order_relaxed);
  for (std::size_t p = 0; p < dead_.size(); ++p) mirror_alive(p);
}

void PeerLiveness::start_collection() {
  start_ = net::steady_ms();
  std::fill(last_heard_.begin(), last_heard_.end(), start_);
}

void PeerLiveness::end_round() {
  if (ServingStatusBoard* board = config_.status_board) {
    board->collecting.store(false, std::memory_order_relaxed);
  }
}

bool PeerLiveness::budget_spent() const {
  if (config_.recv_timeout_ms < 0 ||
      net::steady_ms() - start_ <= config_.recv_timeout_ms) {
    return false;
  }
  HACCS_WARN << "round collection budget (" << config_.recv_timeout_ms
             << " ms) exhausted";
  return true;
}

FailureKind PeerLiveness::send_failure(std::size_t p,
                                       net::TransportStatus status) {
  if (status == net::TransportStatus::Closed) set_dead(p, true);
  return status == net::TransportStatus::Timeout ? FailureKind::Timeout
                                                 : FailureKind::Crash;
}

void PeerLiveness::note_delivered(std::size_t p) {
  if (ServingStatusBoard* board = config_.status_board) {
    board->delivered.fetch_add(1, std::memory_order_relaxed);
  }
  if (auto* row = board_row(p)) {
    row->updates.fetch_add(1, std::memory_order_relaxed);
  }
}

void PeerLiveness::heard(std::size_t p) {
  last_heard_[p] = net::steady_ms();
  if (auto* row = board_row(p)) {
    row->last_heard_ms.store(last_heard_[p], std::memory_order_relaxed);
  }
}

PeerLiveness::Event PeerLiveness::poll(std::size_t p, net::Transport& link,
                                       net::Frame* frame, int slice_ms) {
  switch (link.recv(frame, slice_ms)) {
    case net::TransportStatus::Ok:
      heard(p);
      if (frame->type != net::MessageType::TraceShard) return Event::Frame;
      // A peer's span buffer riding home ahead of its next update (§5i).
      if (config_.on_trace_shard) {
        try {
          config_.on_trace_shard(net::decode_trace_shard(*frame));
        } catch (const net::WireError& e) {
          HACCS_WARN << "undecodable TraceShard from " << link.peer() << ": "
                     << e.what();
        }
      }
      return Event::Shard;
    case net::TransportStatus::Corrupt:
      heard(p);
      return Event::Corrupt;
    case net::TransportStatus::Closed:
      HACCS_WARN << "transport to peer " << p << " (" << link.peer()
                 << ") closed";
      break;
    case net::TransportStatus::Timeout:
      if (config_.heartbeat_timeout_ms <= 0 ||
          net::steady_ms() - last_heard_[p] <= config_.heartbeat_timeout_ms) {
        return Event::Quiet;
      }
      ServingMetrics::get().heartbeats_missed.inc();
      HACCS_WARN << "peer " << p << " (" << link.peer() << ") silent for > "
                 << config_.heartbeat_timeout_ms << " ms; declaring dead";
      break;
  }
  set_dead(p, true);
  return Event::Lost;
}

// ---------------------------------------------------------------------------
// TransportDispatcher

TransportDispatcher::TransportDispatcher(std::vector<net::Transport*> workers,
                                         TransportDispatcherConfig config)
    : workers_(std::move(workers)),
      config_(std::move(config)),
      liveness_(config_, workers_.size()) {
  if (workers_.empty()) {
    throw std::invalid_argument("TransportDispatcher: no workers");
  }
  if (config_.quorum_fraction <= 0.0 || config_.quorum_fraction > 1.0) {
    throw std::invalid_argument(
        "TransportDispatcher: quorum_fraction must be in (0, 1]");
  }
  if (config_.agg_groups > 0 &&
      (config_.agg_groups > workers_.size() ||
       workers_.size() % config_.agg_groups != 0)) {
    throw std::invalid_argument(
        "TransportDispatcher: agg_groups must evenly divide the worker count");
  }
  outstanding_.resize(workers_.size());
}

std::size_t TransportDispatcher::group_of(std::size_t client_id) const {
  return (client_id % workers_.size()) /
         (workers_.size() / config_.agg_groups);
}

std::size_t TransportDispatcher::quorum_target(std::size_t dispatched) const {
  return config_.quorum_fraction < 1.0
             ? static_cast<std::size_t>(std::ceil(
                   config_.quorum_fraction * static_cast<double>(dispatched)))
             : dispatched;
}

void TransportDispatcher::fold_groups(std::span<const TrainJobSpec> jobs,
                                      const std::vector<float>& global_params,
                                      std::vector<TrainOutcome>& outcomes) {
  partials_.assign(config_.agg_groups, PartialAggregate{});
  // Jobs are already in slot order, so each group's fold visits its slots
  // in the same order a mid-tier aggregator would (its SelectNotice lists
  // the subtree's clients in slot order) — the bit-identity invariant.
  for (const TrainJobSpec& job : jobs) {
    TrainOutcome& out = outcomes[job.slot];
    if (!out.delivered || out.updated.empty()) continue;
    PartialAggregate& part = partials_[group_of(job.client_id)];
    if (fold_into_partial(part, out.updated, global_params, out.weight,
                          config_.max_update_norm)) {
      out.pre_aggregated = true;
    } else {
      // Identical accounting to the engine's own validation rejection.
      out.delivered = false;
      out.failure = FailureKind::CorruptUpdate;
    }
    out.updated.clear();
    out.updated.shrink_to_fit();
  }
}

void TransportDispatcher::sync_board(std::size_t w) {
  if (auto* row = liveness_.board_row(w)) {
    row->outstanding.store(outstanding_[w].size(), std::memory_order_relaxed);
  }
}

void TransportDispatcher::fail_front(std::size_t w, FailureKind kind,
                                     std::span<const TrainJobSpec> jobs,
                                     std::vector<TrainOutcome>& outcomes) {
  auto& queue = outstanding_[w];
  if (queue.empty()) return;
  // The queue holds job indices; outcomes are indexed by dispatch slot.
  TrainOutcome& out = outcomes[jobs[queue.front()].slot];
  out.delivered = false;
  out.failure = kind;
  queue.pop_front();
  sync_board(w);
}

void TransportDispatcher::fail_all(std::size_t w, FailureKind kind,
                                   std::span<const TrainJobSpec> jobs,
                                   std::vector<TrainOutcome>& outcomes) {
  while (!outstanding_[w].empty()) fail_front(w, kind, jobs, outcomes);
}

bool TransportDispatcher::poll_worker(std::size_t w, int slice_ms,
                                      std::span<const TrainJobSpec> jobs,
                                      const std::vector<float>& global_params,
                                      std::vector<TrainOutcome>& outcomes) {
  net::Frame frame;
  switch (liveness_.poll(w, *workers_[w], &frame, slice_ms)) {
    case PeerLiveness::Event::Frame:
      handle_frame(w, frame, jobs, global_params, outcomes);
      return true;
    case PeerLiveness::Event::Corrupt:
      fail_front(w, FailureKind::CorruptUpdate, jobs, outcomes);
      return true;
    case PeerLiveness::Event::Shard:
      return true;
    case PeerLiveness::Event::Lost:
      fail_all(w, FailureKind::Crash, jobs, outcomes);
      return false;
    case PeerLiveness::Event::Quiet:
      break;
  }
  return false;
}

void TransportDispatcher::handle_frame(std::size_t w, const net::Frame& frame,
                                       std::span<const TrainJobSpec> jobs,
                                       const std::vector<float>& global_params,
                                       std::vector<TrainOutcome>& outcomes) {
  // Heartbeats and other control traffic are not update settlements.
  if (frame.type != net::MessageType::ClientUpdate) return;
  net::ClientUpdateMsg msg;
  try {
    msg = net::decode_client_update(frame);
  } catch (const net::WireError& e) {
    // CRC passed but the payload is still unparseable (e.g. a
    // version-skewed peer): charge it like wire damage.
    HACCS_WARN << "undecodable ClientUpdate from " << workers_[w]->peer()
               << ": " << e.what();
    fail_front(w, FailureKind::CorruptUpdate, jobs, outcomes);
    return;
  }
  // Workers answer strictly FIFO, so this is normally the queue front; the
  // search keeps a reordering (or duplicated) peer from mis-settling jobs.
  auto& queue = outstanding_[w];
  const auto it = std::find_if(
      queue.begin(), queue.end(), [&](std::size_t slot) {
        return jobs[slot].client_id == msg.client_id &&
               jobs[slot].epoch == msg.epoch;
      });
  if (it == queue.end()) return;  // stale or duplicate — drop
  const std::size_t job_index = *it;
  queue.erase(it);
  sync_board(w);

  TrainOutcome& out = outcomes[jobs[job_index].slot];
  if (msg.update.size != global_params.size()) {
    out.delivered = false;
    out.failure = FailureKind::CorruptUpdate;
    return;
  }
  // Payload semantics (messages.hpp): Dense carries the updated parameters
  // themselves; compressed kinds carry the delta, reconstructed with the
  // same arithmetic the in-process path uses — bit-identical either way.
  std::vector<float> updated;
  if (msg.update.kind == net::UpdateKind::Dense) {
    updated = std::move(msg.update.dense);
  } else {
    const auto dense = msg.update.to_dense();
    updated.resize(dense.size());
    for (std::size_t p = 0; p < dense.size(); ++p) {
      updated[p] = global_params[p] + dense[p];
    }
  }
  out.delivered = true;
  out.updated = std::move(updated);
  out.weight = static_cast<double>(msg.sample_count);
  out.result.average_loss = msg.average_loss;
  out.result.final_loss = msg.final_loss;
  out.result.batches = static_cast<std::size_t>(msg.batches);
  liveness_.note_delivered(w);
}

void TransportDispatcher::execute(std::span<const TrainJobSpec> jobs,
                                  const std::vector<float>& global_params,
                                  std::vector<TrainOutcome>& outcomes) {
  for (auto& queue : outstanding_) queue.clear();

  liveness_.begin_round(jobs);
  if (ServingStatusBoard* board = config_.status_board) {
    board->quorum_met.store(false, std::memory_order_relaxed);
    board->quorum_target.store(quorum_target(jobs.size()),
                               std::memory_order_relaxed);
    for (std::size_t w = 0; w < workers_.size(); ++w) sync_board(w);
  }

  // Snapshot the engine's round context once per fan-out: every TrainJob of
  // the round carries the same parent span. Untraced runs send the invalid
  // context, which the codec encodes as zero extra bytes.
  const obs::TraceContext trace_ctx =
      obs::trace_enabled() ? obs::round_context() : obs::TraceContext{};

  // Give workers that died in an earlier round a fresh transport before
  // fanning out, so a reconnected process rejoins the rotation instead of
  // eating a round of Crash failures.
  if (config_.reacquire) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!liveness_.dead(w)) continue;
      if (net::Transport* fresh = config_.reacquire(w)) {
        workers_[w] = fresh;
        liveness_.set_dead(w, false);
        ServingMetrics::get().reconnects.inc();
        if (auto* row = liveness_.board_row(w)) {
          row->sessions.fetch_add(1, std::memory_order_relaxed);
        }
        HACCS_INFO << "dispatcher: worker " << w << " reacquired ("
                   << fresh->peer() << ")";
      }
    }
  }

  // Fan out. After each send, drain whatever already came back so neither
  // side ever sits blocked on a full buffer (a worker may be trying to send
  // its update while we are still sending jobs).
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const TrainJobSpec& job = jobs[j];
    const std::size_t w = job.client_id % workers_.size();
    const net::Frame frame = net::encode_train_job(
        make_train_job_msg(job, config_.work, global_params, trace_ctx));
    auto status = workers_[w]->send(frame, config_.send_timeout_ms);
    if (status == net::TransportStatus::Closed && config_.reacquire &&
        !liveness_.dead(w)) {
      // The transport died between rounds (or mid-fan-out): try one
      // immediate replacement before charging the job.
      if (net::Transport* fresh = config_.reacquire(w)) {
        workers_[w] = fresh;
        ServingMetrics::get().reconnects.inc();
        HACCS_INFO << "dispatcher: worker " << w << " reacquired mid-round ("
                   << fresh->peer() << ")";
        status = workers_[w]->send(frame, config_.send_timeout_ms);
      }
    }
    if (status == net::TransportStatus::Ok) {
      outstanding_[w].push_back(j);
    } else {
      TrainOutcome& out = outcomes[job.slot];
      out.delivered = false;
      out.failure = liveness_.send_failure(w, status);
    }
    sync_board(w);
    while (!outstanding_[w].empty() &&
           poll_worker(w, 0, jobs, global_params, outcomes)) {
    }
  }

  collect(jobs, global_params, outcomes);

  if (config_.agg_groups > 0) fold_groups(jobs, global_params, outcomes);
  liveness_.end_round();
}

void TransportDispatcher::collect(std::span<const TrainJobSpec> jobs,
                                  const std::vector<float>& global_params,
                                  std::vector<TrainOutcome>& outcomes) {
  liveness_.start_collection();
  auto outstanding_total = [&] {
    std::size_t n = 0;
    for (const auto& queue : outstanding_) n += queue.size();
    return n;
  };
  auto delivered_count = [&] {
    std::size_t n = 0;
    for (const TrainJobSpec& job : jobs) {
      if (outcomes[job.slot].delivered) ++n;
    }
    return n;
  };
  const std::size_t target = quorum_target(jobs.size());
  std::int64_t quorum_deadline = -1;  // set once the quorum first lands

  while (outstanding_total() > 0) {
    // Whole-round collection budget: fail the remainder rather than hang.
    if (liveness_.budget_spent()) {
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        fail_all(w, FailureKind::Timeout, jobs, outcomes);
      }
      break;
    }
    // Quorum commit: enough updates have landed — give stragglers one grace
    // window, then cut the round loose.
    if (config_.quorum_fraction < 1.0 && delivered_count() >= target) {
      const std::int64_t now = net::steady_ms();
      if (quorum_deadline < 0) {
        quorum_deadline = now + config_.quorum_grace_ms;
        if (ServingStatusBoard* board = config_.status_board) {
          board->quorum_met.store(true, std::memory_order_relaxed);
        }
      }
      if (now >= quorum_deadline) {
        ServingMetrics::get().quorum_degraded.inc();
        obs::FlightRecorder::global().note_quorum_degraded();
        HACCS_INFO << "serving: quorum (" << target << "/" << jobs.size()
                   << ") reached; abandoning " << outstanding_total()
                   << " straggler job(s)";
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          fail_all(w, FailureKind::Timeout, jobs, outcomes);
        }
        break;
      }
    }
    // One short poll slice per worker that still owes updates.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!outstanding_[w].empty()) {
        poll_worker(w, PeerLiveness::kSliceMs, jobs, global_params, outcomes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WorkerLoop

WorkerLoop::WorkerLoop(const data::FederatedDataset& dataset,
                       std::function<nn::Sequential()> model_factory,
                       WorkerLoopConfig config)
    : dataset_(dataset),
      model_factory_(std::move(model_factory)),
      config_(config),
      residuals_(dataset.clients.size()) {}

void WorkerLoop::handle_train_job(net::Transport& transport,
                                  const net::TrainJobMsg& msg) {
  if (msg.client_id >= dataset_.clients.size()) {
    HACCS_WARN << "TrainJob for unknown client " << msg.client_id
               << " (have " << dataset_.clients.size() << ")";
    return;  // no reply; the server's deadline covers it
  }
  const auto [job, work] = from_train_job_msg(msg);

  // Worker-side child span (§5i): gated on the RECEIVED context, so only a
  // tracing server makes workers read clocks or buffer events — a worker's
  // own trace flags never enter the decision, and untraced runs stay
  // byte-identical.
  const bool traced = msg.trace.valid();
  const std::uint64_t train_begin_ns = traced ? obs::now_ns() : 0;

  nn::Sequential model = model_factory_();
  CompressedUpdate compressed;
  TrainOutcome outcome =
      run_local_job(job, dataset_.clients[msg.client_id].train, model,
                    msg.params, work, residuals_[msg.client_id], &compressed);

  if (traced) {
    obs::TraceEvent span;
    span.name = "local_train";
    span.category = "fl";
    span.tid = obs::thread_id();
    span.ts_ns = train_begin_ns;
    span.dur_ns = obs::now_ns() - train_begin_ns;
    span.span_id = obs::next_span_id();
    span.parent_id = msg.trace.parent_span;
    span.round = msg.trace.round;
    trace_.record(span);
    trace_id_ = msg.trace.trace_id;
    trace_epoch_ = static_cast<std::int64_t>(msg.epoch);
    last_trace_id_.store(msg.trace.trace_id, std::memory_order_relaxed);
    last_parent_span_.store(msg.trace.parent_span, std::memory_order_relaxed);
    last_round_.store(msg.trace.round, std::memory_order_relaxed);
  }

  net::ClientUpdateMsg reply;
  reply.trace = msg.trace;
  reply.epoch = msg.epoch;
  reply.client_id = msg.client_id;
  reply.average_loss = outcome.result.average_loss;
  reply.final_loss = outcome.result.final_loss;
  reply.batches = outcome.result.batches;
  reply.sample_count = dataset_.clients[msg.client_id].train.size();
  const std::size_t n = outcome.updated.size();
  if (work.compression.kind == CompressionKind::None) {
    // Dense uplink ships the updated parameters themselves (messages.hpp).
    compressed.dense = std::move(outcome.updated);
  }
  reply.update = make_update_payload(compressed, n, work.compression);
  const auto status = transport.send(net::encode_client_update(reply));
  if (status != net::TransportStatus::Ok) {
    HACCS_WARN << "worker " << config_.worker_id << " failed to send update: "
               << net::to_string(status);
  }
}

void WorkerLoop::ship_trace_shard(net::Transport& transport) {
  if (trace_.size() == 0) return;
  net::TraceShardMsg shard;
  shard.worker_id = config_.worker_id;
  shard.trace_id = trace_id_;
  shard.send_ns = obs::now_ns();
  for (const obs::TraceEvent& event : trace_.snapshot()) {
    shard.events.push_back(obs::to_portable(event));
  }
  trace_.clear();
  const auto status = transport.send(net::encode_trace_shard(shard));
  if (status != net::TransportStatus::Ok) {
    HACCS_WARN << "worker " << config_.worker_id
               << " failed to ship trace shard: " << net::to_string(status);
  }
}

WorkerRunEnd WorkerLoop::serve(net::Transport& transport) {
  // Serving-mode heartbeat: a side thread announces liveness on a fixed
  // cadence so the server can tell "training a long job" from "gone".
  // Transport::send is frame-granularity thread-safe (transport.hpp), so
  // heartbeats may interleave with update replies but never tear them.
  std::thread heartbeat;
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  if (config_.heartbeat_interval_ms > 0) {
    heartbeat = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mutex);
      for (;;) {
        hb_cv.wait_for(lock,
                       std::chrono::milliseconds(config_.heartbeat_interval_ms),
                       [&] { return hb_stop; });
        if (hb_stop) return;
        net::HeartbeatMsg beat;
        beat.sender_id = config_.worker_id;
        beat.epoch = last_epoch_.load(std::memory_order_relaxed);
        beat.trace.trace_id = last_trace_id_.load(std::memory_order_relaxed);
        beat.trace.parent_span =
            last_parent_span_.load(std::memory_order_relaxed);
        beat.trace.round = last_round_.load(std::memory_order_relaxed);
        if (transport.send(net::encode_heartbeat(beat)) ==
            net::TransportStatus::Closed) {
          return;  // the main loop will observe the close too
        }
      }
    });
  }
  // RAII join: whatever path leaves serve() — Shutdown, close, idle
  // timeout, or an exception escaping the loop body — the heartbeat thread
  // is signalled and joined (a destroyed joinable std::thread terminates).
  struct HeartbeatJoiner {
    std::thread& thread;
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& stop;
    ~HeartbeatJoiner() {
      if (!thread.joinable()) return;
      {
        std::lock_guard<std::mutex> lock(mutex);
        stop = true;
      }
      cv.notify_all();
      thread.join();
    }
  } joiner{heartbeat, hb_mutex, hb_cv, hb_stop};

  WorkerRunEnd end = WorkerRunEnd::Closed;
  for (;;) {
    net::Frame frame;
    const auto status = transport.recv(&frame, config_.recv_timeout_ms);
    if (status == net::TransportStatus::Closed) {
      end = WorkerRunEnd::Closed;
      break;
    }
    if (status == net::TransportStatus::Timeout) {
      if (config_.exit_on_timeout) {
        end = WorkerRunEnd::IdleTimeout;
        break;
      }
      continue;
    }
    if (status == net::TransportStatus::Corrupt) {
      // A corrupt TrainJob cannot name its client, so there is nothing to
      // answer; the server's recv deadline converts this into a Timeout
      // failure on its side.
      continue;
    }
    switch (frame.type) {
      case net::MessageType::TrainJob:
        try {
          const auto msg = net::decode_train_job(frame);
          // A job for a NEW round means the previous round committed
          // server-side: ship the buffered spans home first (§5i).
          if (msg.trace.valid() && trace_epoch_ >= 0 &&
              static_cast<std::int64_t>(msg.epoch) != trace_epoch_) {
            ship_trace_shard(transport);
          }
          last_epoch_.store(msg.epoch, std::memory_order_relaxed);
          handle_train_job(transport, msg);
          ++served_;
        } catch (const net::WireError& e) {
          HACCS_WARN << "undecodable TrainJob: " << e.what();
        }
        break;
      case net::MessageType::EvalReport:
        // A traced server's wind-down report: last chance to ship the final
        // round's spans while the server is still draining our frames.
        try {
          if (net::decode_eval_report(frame).trace.valid()) {
            ship_trace_shard(transport);
          }
        } catch (const net::WireError& e) {
          HACCS_WARN << "undecodable EvalReport: " << e.what();
        }
        break;
      case net::MessageType::Shutdown:
        ship_trace_shard(transport);
        return WorkerRunEnd::Shutdown;
      default:
        break;  // SelectNotice / Heartbeat: informational
    }
  }
  return end;
}

// ---------------------------------------------------------------------------
// LoopbackCluster

LoopbackCluster::LoopbackCluster(const data::FederatedDataset& dataset,
                                 std::function<nn::Sequential()> model_factory,
                                 std::size_t num_workers,
                                 const net::LoopbackOptions& options)
    : LoopbackCluster(dataset, model_factory, num_workers,
                      LoopbackClusterOptions{.loopback = options}) {}

LoopbackCluster::LoopbackCluster(const data::FederatedDataset& dataset,
                                 std::function<nn::Sequential()> model_factory,
                                 std::size_t num_workers,
                                 const LoopbackClusterOptions& options) {
  if (num_workers == 0) {
    throw std::invalid_argument("LoopbackCluster: need at least one worker");
  }
  server_side_.reserve(num_workers);
  worker_side_.reserve(num_workers);
  loops_.reserve(num_workers);
  threads_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto pair = net::make_loopback_pair(options.loopback);
    // Both directions face the chaos independently, with seeds forked per
    // (worker, direction) so every link replays deterministically.
    net::ChaosOptions server_chaos = options.chaos;
    server_chaos.seed = options.chaos.seed ^ (0x5e2f1d03ULL * (2 * i + 1));
    net::ChaosOptions worker_chaos = options.chaos;
    worker_chaos.seed = options.chaos.seed ^ (0x9b4aa217ULL * (2 * i + 2));
    server_side_.push_back(
        net::wrap_chaos(std::move(pair.a), server_chaos));
    worker_side_.push_back(
        net::wrap_chaos(std::move(pair.b), worker_chaos));
    WorkerLoopConfig cfg;
    cfg.worker_id = static_cast<std::uint32_t>(i);
    cfg.heartbeat_interval_ms = options.worker_heartbeat_interval_ms;
    loops_.push_back(
        std::make_unique<WorkerLoop>(dataset, model_factory, cfg));
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { loops_[i]->serve(*worker_side_[i]); });
  }
}

LoopbackCluster::~LoopbackCluster() { shutdown(); }

std::vector<net::Transport*> LoopbackCluster::server_transports() const {
  std::vector<net::Transport*> out;
  out.reserve(server_side_.size());
  for (const auto& transport : server_side_) out.push_back(transport.get());
  return out;
}

void LoopbackCluster::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& transport : server_side_) {
    transport->send(net::encode_shutdown());
    // Close after the Shutdown frame: loopback recv still delivers queued
    // frames after a close, and if chaos dropped the Shutdown the close is
    // what unblocks the worker — either way the thread exits.
    transport->close();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace haccs::fl
