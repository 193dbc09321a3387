#include "src/fl/async_engine.hpp"

#include <cmath>
#include <queue>
#include <stdexcept>
#include <tuple>

#include "src/common/error.hpp"
#include "src/fl/dispatch.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

AsyncFederatedTrainer::AsyncFederatedTrainer(
    const data::FederatedDataset& dataset,
    std::function<nn::Sequential()> model_factory, AsyncEngineConfig config)
    : model_factory_(std::move(model_factory)),
      config_(std::move(config)),
      population_("AsyncFederatedTrainer", dataset, model_factory_, config_),
      fault_model_(config_.faults) {
  if (config_.max_in_flight == 0 ||
      config_.max_in_flight > population_.size()) {
    throw std::invalid_argument(
        "AsyncFederatedTrainer: max_in_flight out of range");
  }
  if (config_.buffer_size == 0 ||
      config_.buffer_size > config_.max_in_flight) {
    throw std::invalid_argument(
        "AsyncFederatedTrainer: buffer_size must be in [1, max_in_flight]");
  }
  if (config_.server_lr <= 0.0) {
    throw std::invalid_argument("AsyncFederatedTrainer: server_lr must be > 0");
  }
  if (config_.staleness_alpha < 0.0) {
    throw std::invalid_argument(
        "AsyncFederatedTrainer: staleness_alpha must be >= 0");
  }
}

TrainingHistory AsyncFederatedTrainer::run(ClientSelector& selector) {
  const auto schedule = sim::make_always_available(population_.size());
  return run(selector, *schedule);
}

TrainingHistory AsyncFederatedTrainer::run(ClientSelector& selector,
                                           const sim::DropoutSchedule& dropout) {
  const std::size_t n = population_.size();
  if (dropout.num_clients() != n) {
    throw std::invalid_argument("run: dropout schedule arity mismatch");
  }
  nn::Sequential model = model_factory_();
  std::vector<float> global_params = model.get_parameters();
  std::vector<ClientRuntimeInfo> view = population_.make_client_view();
  selector.initialize(view);
  // Settlements since the previous aggregation; async has no breakers.
  RoundLedger ledger(selector, view, nullptr);
  LocalWorkConfig work;
  work.local = config_.local;
  InProcessDispatcher trainer(population_.dataset(), model_factory_, work);

  Rng select_rng(config_.seed ^ 0x5e1ec70aULL);
  Rng train_rng(config_.seed ^ 0x7a314e55ULL);
  Rng jitter_rng(config_.seed ^ 0x1a7e2c3dULL);

  // Completion events, earliest first (ties: lowest sequence for
  // determinism).
  struct Event {
    double time;
    std::uint64_t sequence;
    std::size_t client;
    std::size_t base_version;          // aggregation count at dispatch
    std::vector<float> delta;          // local - global_at_dispatch
    double loss = 0.0;
    bool crashed = false;              // mid-round crash: no update arrives
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return std::tie(a.time, a.sequence) > std::tie(b.time, b.sequence);
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> events;

  std::vector<bool> in_flight(n, false);
  std::size_t active = 0;       // clients in flight
  std::size_t version = 0;      // aggregations completed
  double now = 0.0;
  std::uint64_t sequence = 0;

  EngineMetrics& metrics = EngineMetrics::get();
  // Wall time spent in local training since the last aggregation, for that
  // aggregation's phase breakdown.
  double train_wall_ms = 0.0;

  // Dispatch one client chosen by the selector (in-flight and dropped-out
  // devices masked). Returns false when nobody is dispatchable.
  auto dispatch_one = [&]() -> bool {
    obs::Span dispatch_span("dispatch", "fl");
    const auto mask = dropout.available(version);
    for (std::size_t i = 0; i < n; ++i) {
      view[i].available = mask[i] && !in_flight[i];
    }
    const auto picks = selector.select(1, view, version, select_rng);
    if (picks.empty()) return false;
    const std::size_t id = picks[0];
    HACCS_CHECK_MSG(id < n && view[id].available,
                    "async: selector returned bad client");
    metrics.dispatched.inc();

    // Post-dispatch fault for this (client, aggregation) — pure in the
    // seed, so every strategy faces the same trace.
    sim::FaultEvent fault;
    if (fault_model_.enabled()) fault = fault_model_.at(id, version);

    Event event;
    event.client = id;
    event.base_version = version;
    // The fork is consumed even for crashed dispatches, keeping the
    // training streams aligned across fault configurations.
    const TrainJobSpec job{
        .client_id = id, .epoch = version, .rng_seed = train_rng.next_u64()};
    if (fault.kind == sim::FaultKind::Crash) {
      event.crashed = true;  // dies mid-round; its compute is wasted
    } else {
      // Train now (simulation: result materializes at completion time).
      obs::StopWatch train_clock;
      std::vector<TrainOutcome> out(1);
      trainer.execute({&job, 1}, global_params, out);
      train_wall_ms += train_clock.lap_ms();
      event.loss = out[0].result.average_loss;
      event.delta.resize(out[0].updated.size());
      vec::diff(event.delta, out[0].updated, global_params);
      fault_model_.corrupt(fault, event.delta);
    }
    const double jitter =
        config_.latency_jitter_sigma > 0.0
            ? std::exp(config_.latency_jitter_sigma * jitter_rng.normal())
            : 1.0;
    double latency = view[id].latency_s * jitter;
    if (fault.kind == sim::FaultKind::Straggler) {
      latency *= fault.latency_multiplier;
    } else if (fault.kind == sim::FaultKind::Crash) {
      // The slot frees at the crash instant, not the full round latency.
      latency *= fault.crash_frac;
    }
    event.time = now + latency;
    event.sequence = sequence++;
    in_flight[id] = true;
    ++active;
    events.push(event);
    return true;
  };

  // Fill the initial in-flight set.
  for (std::size_t s = 0; s < config_.max_in_flight; ++s) {
    if (!dispatch_one()) break;
  }

  TrainingHistory history;
  std::vector<Event> buffer;
  double last_aggregation_time = 0.0;
  double last_accuracy = 0.0, last_loss = config_.initial_loss;

  while (version < config_.aggregations && !events.empty()) {
    Event event = events.top();
    events.pop();
    now = event.time;
    in_flight[event.client] = false;
    --active;
    if (event.crashed) {
      // The in-flight slot is freed at the crash instant and the refill
      // below re-dispatches immediately.
      ledger.settle_failure(FailureKind::Crash, event.client, version, now);
    } else if (!update_is_valid(event.delta, config_.max_update_norm)) {
      ledger.settle_failure(FailureKind::CorruptUpdate, event.client, version,
                            now);
    } else {
      ledger.settle_success(event.client, event.loss, version, now);
      buffer.push_back(std::move(event));
    }

    if (buffer.size() >= config_.buffer_size) {
      const std::size_t frames = ledger.frames;
      RoundRecord record = ledger.take();
      {
        // Staleness-weighted buffered aggregation.
        obs::Span aggregate_span("aggregate", "fl");
        obs::StopWatch aggregate_clock;
        std::vector<double> accumulated(global_params.size(), 0.0);
        double total_weight = 0.0;
        for (const auto& update : buffer) {
          const double staleness =
              static_cast<double>(version - update.base_version);
          metrics.staleness.observe(staleness);
          const double weight =
              population_.weight(update.client) /
              std::pow(1.0 + staleness, config_.staleness_alpha);
          vec::accumulate_scaled(accumulated, update.delta, weight);
          total_weight += weight;
        }
        buffer.clear();
        for (std::size_t p = 0; p < global_params.size(); ++p) {
          global_params[p] += static_cast<float>(
              config_.server_lr * accumulated[p] / total_weight);
        }
        record.phase.aggregate_ms = aggregate_clock.lap_ms();
      }
      ++version;
      record.phase.train_ms = train_wall_ms;
      train_wall_ms = 0.0;
      record.epoch = version - 1;
      record.sim_time_s = now;
      record.round_duration_s = now - last_aggregation_time;
      last_aggregation_time = now;
      record.dispatched = frames + record.crashed.size();

      if ((version - 1) % config_.eval_every == 0 ||
          version == config_.aggregations) {
        obs::Span eval_span("evaluate", "fl");
        obs::StopWatch eval_clock;
        model.set_parameters(global_params);
        const EvalResult eval = population_.evaluate(model);
        last_accuracy = eval.accuracy;
        last_loss = eval.loss;
        record.phase.evaluate_ms = eval_clock.lap_ms();
        metrics.evaluations.inc();
      }
      record.global_accuracy = last_accuracy;
      record.global_loss = last_loss;
      metrics.rounds.inc();
      publish_round_event("async", record);
      history.add(std::move(record));
    }

    // Refill freed capacity; after the final aggregation a dispatched
    // client would train for nothing.
    while (version < config_.aggregations &&
           active + buffer.size() < config_.max_in_flight && dispatch_one()) {
    }
  }

  final_parameters_ = std::move(global_params);
  return history;
}

}  // namespace haccs::fl
