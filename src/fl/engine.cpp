#include "src/fl/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

LocalWorkConfig local_work(const EngineConfig& config) {
  return {.local = config.local,
          .fedprox = config.algorithm == LocalAlgorithm::FedProx,
          .fedprox_mu = config.fedprox_mu,
          .compression = config.compression};
}

FederatedTrainer::FederatedTrainer(const data::FederatedDataset& dataset,
                                   std::function<nn::Sequential()> model_factory,
                                   EngineConfig config)
    : model_factory_(std::move(model_factory)),
      config_(std::move(config)),
      population_("FederatedTrainer", dataset, model_factory_, config_,
                  config_.compression),
      fault_model_(config_.faults) {
  if (config_.clients_per_round == 0 ||
      config_.clients_per_round > population_.size()) {
    throw std::invalid_argument(
        "FederatedTrainer: clients_per_round out of range");
  }
  if (config_.overcommit < 0.0) {
    throw std::invalid_argument("FederatedTrainer: overcommit must be >= 0");
  }
  if (config_.deadline_quantile < 0.0 || config_.deadline_quantile > 1.0) {
    throw std::invalid_argument(
        "FederatedTrainer: deadline_quantile must be in [0, 1]");
  }
}

/// One run(): the state its rounds share, and a round as a sequence of
/// phases — select, plan, train, fold, evaluate, finish. Each timed phase
/// runs under its own trace span and ends with its PhaseTimings lap, so the
/// trace and the round record bill time identically.
struct FederatedTrainer::Run {
  /// The round in flight. Vectors indexed by dispatch slot.
  struct Round {
    std::size_t epoch = 0;
    std::vector<std::size_t> dispatched;  ///< distinct ids, selector order
    std::vector<sim::FaultEvent> faults;
    std::vector<double> latency;  ///< effective: straggler excursions applied
    double deadline = 0.0;        ///< 0 = wait for the straggler
    std::vector<TrainJobSpec> jobs;
    std::vector<TrainOutcome> outcomes;
    obs::StopWatch phase_clock;
  };

  Run(FederatedTrainer& owner, ClientSelector& strategy,
      const sim::DropoutSchedule& schedule)
      : trainer(owner),
        config(owner.config_),
        population(owner.population_),
        selector(strategy),
        dropout(schedule),
        in_process(population.dataset(), owner.model_factory_,
                   local_work(config)),
        dispatcher(config.dispatcher ? config.dispatcher : &in_process),
        model(owner.model_factory_()),
        global_params(model.get_parameters()),
        view(population.make_client_view()),
        breakers(population.size(), sim::CircuitBreaker(config.breaker)),
        ledger(selector, view, &breakers),
        // Separate streams: selection randomness must not perturb training
        // randomness (and vice versa) so strategies stay comparable.
        select_rng(config.seed ^ 0x5e1ec70aULL),
        train_rng(config.seed ^ 0x7a314e55ULL),
        last_loss(config.initial_loss) {
    selector.initialize(view);
    // Over-selection target, clamped to the population so short
    // federations proceed with a short round instead of failing.
    dispatch_target = config.clients_per_round;
    if (config.overcommit > 0.0) {
      dispatch_target = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::ceil(static_cast<double>(config.clients_per_round) *
                        (1.0 + config.overcommit))),
          population.size());
    }
  }

  std::size_t restore(const RunState& resume) {
    if (resume.client_last_loss.size() != population.size() ||
        resume.breakers.size() != population.size()) {
      throw std::invalid_argument("run: checkpoint population mismatch");
    }
    if (resume.global_params.size() != global_params.size()) {
      throw std::invalid_argument("run: checkpoint model-shape mismatch");
    }
    if (resume.next_epoch > config.rounds) {
      throw std::invalid_argument("run: checkpoint beyond configured rounds");
    }
    global_params = resume.global_params;
    select_rng.set_state(resume.select_rng);
    train_rng.set_state(resume.train_rng);
    clock.set_now(resume.sim_time_s);
    last_accuracy = resume.last_accuracy;
    last_loss = resume.last_loss;
    for (std::size_t i = 0; i < population.size(); ++i) {
      view[i].last_loss = resume.client_last_loss[i];
      breakers[i].restore(resume.breakers[i]);
    }
    if (!resume.selector_state.empty()) {
      selector.load_state(resume.selector_state);
    }
    for (const RoundRecord& rec : resume.records) history.add(rec);
    return resume.next_epoch;
  }

  RunState snapshot(std::size_t next_epoch) const {
    RunState state;
    state.next_epoch = next_epoch;
    state.sim_time_s = clock.now();
    state.last_accuracy = last_accuracy;
    state.last_loss = last_loss;
    state.global_params = global_params;
    state.select_rng = select_rng.state();
    state.train_rng = train_rng.state();
    state.client_last_loss.reserve(view.size());
    for (const auto& info : view) {
      state.client_last_loss.push_back(info.last_loss);
    }
    state.breakers.reserve(breakers.size());
    for (const auto& b : breakers) state.breakers.push_back(b.snapshot());
    state.selector_state = selector.save_state();
    state.records = history.records();
    for (RoundRecord& rec : state.records) rec.phase = PhaseTimings{};
    return state;
  }

  void round(std::size_t epoch) {
    obs::Span round_span("round", "fl");
    // Publish this round's context (§5i) so the transport dispatcher can
    // stamp outgoing TrainJobs and workers can parent their local_train
    // spans under this round span across the process boundary.
    if (obs::trace_enabled()) {
      obs::set_round_context({obs::process_trace_id(), round_span.id(),
                              static_cast<std::int64_t>(epoch)});
    }
    obs::StopWatch round_clock;
    if (config.on_epoch_begin) config.on_epoch_begin(epoch);
    Round r;
    r.epoch = epoch;
    PhaseTimings& lap = ledger.record.phase;
    phase(r, "selection", lap.selection_ms, &Run::select);
    phase(r, "plan", lap.dispatch_ms, &Run::plan);
    phase(r, "local_train_round", lap.train_ms, &Run::train);
    phase(r, "aggregate", lap.aggregate_ms, &Run::fold);
    if (epoch % config.eval_every == 0 || epoch + 1 == config.rounds) {
      phase(r, "evaluate", lap.evaluate_ms, &Run::evaluate);
    }
    finish(r, round_clock.lap_ms());
  }

  void phase(Round& r, const char* span, double& lap_ms,
             void (Run::*body)(Round&)) {
    {
      obs::Span phase_span(span, "fl");
      (this->*body)(r);
    }
    lap_ms = r.phase_clock.lap_ms();
  }

  void select(Round& r) {
    const auto mask = dropout.available(r.epoch);
    for (std::size_t i = 0; i < view.size(); ++i) {
      // Quarantined clients (tripped breaker) are masked like dropouts.
      view[i].available = mask[i] && breakers[i].allows(r.epoch);
      view[i].latency_s = population.client_latency_at(i, r.epoch);
    }
    const auto selected =
        selector.select(dispatch_target, view, r.epoch, select_rng);
    // Engine-enforced invariants: distinct, in-range, available.
    std::unordered_set<std::size_t> seen;
    for (std::size_t id : selected) {
      HACCS_CHECK_MSG(id < view.size(), "selector returned bad client id");
      HACCS_CHECK_MSG(view[id].available,
                      "selector returned unavailable client");
      if (seen.insert(id).second) r.dispatched.push_back(id);
    }
    HACCS_CHECK_MSG(r.dispatched.size() <= dispatch_target,
                    "selector returned too many clients");
  }

  void plan(Round& r) {
    // Post-dispatch fault trace: each dispatched client's effective latency
    // and fate.
    const std::size_t n = r.dispatched.size();
    r.faults.resize(n);
    r.latency.resize(n);
    r.outcomes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      r.latency[i] = view[r.dispatched[i]].latency_s;
      if (trainer.fault_model_.enabled()) {
        r.faults[i] = trainer.fault_model_.at(r.dispatched[i], r.epoch);
        if (r.faults[i].kind == sim::FaultKind::Straggler) {
          r.latency[i] *= r.faults[i].latency_multiplier;
        }
      }
    }
    // Deadline: the configured quantile of this round's effective latencies.
    // The server stops waiting there; later arrivals are wasted.
    if (config.deadline_quantile > 0.0 && n > 0) {
      std::vector<double> sorted(r.latency);
      std::sort(sorted.begin(), sorted.end());
      r.deadline = sorted[static_cast<std::size_t>(
          config.deadline_quantile * static_cast<double>(n - 1))];
    }
    // Fork the per-client training streams serially (deterministic order).
    // Crashed and late clients never deliver, so they get no job — their
    // outcome is settled now — but their fork is still consumed, keeping the
    // streams aligned across fault configurations.
    double min_latency = n > 0 ? view[r.dispatched.front()].latency_s : 0.0;
    for (std::size_t id : r.dispatched) {
      min_latency = std::min(min_latency, view[id].latency_s);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t job_seed = train_rng.next_u64();
      if (r.faults[i].kind == sim::FaultKind::Crash) {
        r.outcomes[i].failure = FailureKind::Crash;
        continue;
      }
      if (r.deadline > 0.0 && r.latency[i] > r.deadline) {
        r.outcomes[i].failure = FailureKind::Timeout;
        continue;
      }
      const std::size_t id = r.dispatched[i];
      TrainJobSpec job{
          .slot = i, .client_id = id, .epoch = r.epoch, .rng_seed = job_seed};
      if (config.algorithm == LocalAlgorithm::FedProx) {
        // The fastest dispatched base latency anchors FedProx work scaling
        // (straggler excursions are unforeseen).
        job.work_fraction = fedprox_work_fraction(
            view[id].latency_s / std::max(min_latency, 1e-9),
            config.fedprox_min_work);
      }
      r.jobs.push_back(job);
    }
    metrics.dispatched.inc(n);
    ledger.record.dispatched = n;
    ledger.record.deadline_s = r.deadline;
  }

  void train(Round& r) {
    // Thread pool, loopback workers or TCP peers — all compute the same
    // update for the same job.
    if (r.dispatched.empty()) return;
    dispatcher->execute(r.jobs, global_params, r.outcomes);
  }

  void fold(Round& r) {
    // FedAvg: weighted average of the accepted updates, folded in dispatch
    // order so the result is independent of worker timing.
    PartialAggregate folded;
    double pre_aggregated_weight = 0.0;
    for (std::size_t i = 0; i < r.dispatched.size(); ++i) {
      const std::size_t id = r.dispatched[i];
      TrainOutcome& out = r.outcomes[i];
      if (!out.delivered) {
        // Simulated and transport failures settle alike. A timeout is seen
        // at the deadline, anything else when it happens (part-way through
        // a simulated crash), capped at the deadline.
        double t = r.latency[i];
        if (r.faults[i].kind == sim::FaultKind::Crash) {
          t *= r.faults[i].crash_frac;
        }
        if (r.deadline > 0.0) {
          t = out.failure == FailureKind::Timeout ? r.deadline
                                                  : std::min(t, r.deadline);
        }
        ledger.settle_failure(out.failure, id, r.epoch, t);
        continue;
      }
      const double weight = population.weight(id);
      const double loss = out.result.average_loss;
      if (out.pre_aggregated) {
        // Already folded into the dispatcher's partial sums (§5j) by the
        // same fold_into_partial; the engine prices the weight from its own
        // dataset so the partials can be cross-checked.
        pre_aggregated_weight += weight;
        ledger.settle_success(id, loss, r.epoch, r.latency[i]);
        continue;
      }
      if (r.faults[i].kind == sim::FaultKind::Corruption) {
        // Wire-level corruption of the delta the server receives (client
        // state, e.g. compression residuals, stays clean).
        std::vector<float> corrupted(out.updated.size());
        vec::diff(corrupted, out.updated, global_params);
        trainer.fault_model_.corrupt(r.faults[i], corrupted);
        for (std::size_t p = 0; p < out.updated.size(); ++p) {
          out.updated[p] = global_params[p] + corrupted[p];
        }
      }
      const auto delta = fold_into_partial(folded, out.updated, global_params,
                                           weight, config.max_update_norm);
      if (!delta) {
        ledger.settle_failure(FailureKind::CorruptUpdate, id, r.epoch,
                              r.latency[i]);
        continue;
      }
      ledger.settle_success(id, loss, r.epoch, r.latency[i]);
      selector.report_update(id, *delta, r.epoch);
    }
    if (folded.sum.empty()) folded.sum.assign(global_params.size(), 0.0);
    const std::vector<PartialAggregate>* parts =
        r.dispatched.empty() ? nullptr : dispatcher->partials();
    if (parts) {
      // Grouped / hierarchical aggregation: merge the per-group sums in group
      // order — per element the identical f64 add sequence whichever tier
      // folded the groups, so tree and flat grouped runs converge bitwise.
      double partial_weight = 0.0;
      for (const PartialAggregate& part : *parts) {
        partial_weight += part.weight;
        if (part.sum.empty()) continue;
        HACCS_CHECK_MSG(part.sum.size() == folded.sum.size(),
                        "partial aggregate has wrong parameter count");
        for (std::size_t p = 0; p < folded.sum.size(); ++p) {
          folded.sum[p] += part.sum[p];
        }
      }
      // Integer sample-count weights sum exactly in f64, so any mismatch is a
      // real bookkeeping bug, not rounding.
      HACCS_CHECK_MSG(partial_weight == pre_aggregated_weight,
                      "partial aggregate weights disagree with the engine");
    }
    const double total_weight = folded.weight + pre_aggregated_weight;
    if (total_weight > 0.0) {
      for (std::size_t p = 0; p < global_params.size(); ++p) {
        global_params[p] = static_cast<float>(folded.sum[p] / total_weight);
      }
    }
    // Byte accounting from the codecs' exact frame sizes (fl/protocol.hpp),
    // identical in-process or over a transport: every dispatched client
    // received the model, and every arriving frame (even a corrupt one) is
    // uplink.
    RoundRecord& record = ledger.record;
    record.downlink_bytes = r.dispatched.size() *
                            train_job_frame_bytes(global_params.size());
    record.uplink_bytes =
        ledger.frames *
        update_frame_bytes(global_params.size(), config.compression);
    // The simulated clock advances by what the server waited for.
    record.round_duration_s = clock.advance_round(ledger.observed);
    record.sim_time_s = clock.now();
  }

  void evaluate(Round& r) {
    model.set_parameters(global_params);
    const bool final_round = r.epoch + 1 == config.rounds;
    const EvalResult eval = population.evaluate(
        model, final_round ? &trainer.final_per_client_accuracy_ : nullptr);
    last_accuracy = eval.accuracy;
    last_loss = eval.loss;
    metrics.evaluations.inc();
    HACCS_DEBUG << selector.name() << " epoch " << r.epoch << " t="
                << clock.now() << "s acc=" << eval.accuracy;
  }

  void finish(Round& r, double round_ms) {
    RoundRecord record = ledger.take();
    record.epoch = r.epoch;
    record.global_accuracy = last_accuracy;
    record.global_loss = last_loss;
    metrics.rounds.inc();
    metrics.round_ms.observe(round_ms);
    publish_round_event("sync", record);
    history.add(std::move(record));
    if (config.on_checkpoint) {
      config.on_checkpoint(r.epoch + 1, [&] { return snapshot(r.epoch + 1); });
    }
  }

  FederatedTrainer& trainer;
  const EngineConfig& config;
  const Population& population;
  ClientSelector& selector;
  const sim::DropoutSchedule& dropout;
  InProcessDispatcher in_process;  // fresh per run: residuals start clean
  RoundDispatcher* dispatcher;
  EngineMetrics& metrics = EngineMetrics::get();
  nn::Sequential model;
  std::vector<float> global_params;
  std::vector<ClientRuntimeInfo> view;
  std::vector<sim::CircuitBreaker> breakers;
  RoundLedger ledger;
  Rng select_rng;
  Rng train_rng;
  sim::SimClock clock;
  double last_accuracy = 0.0;
  double last_loss;
  std::size_t dispatch_target = 0;
  TrainingHistory history;
};

TrainingHistory FederatedTrainer::run(ClientSelector& selector) {
  const auto schedule = sim::make_always_available(population_.size());
  return run(selector, *schedule);
}

TrainingHistory FederatedTrainer::run(ClientSelector& selector,
                                      const sim::DropoutSchedule& dropout,
                                      const RunState* resume) {
  if (dropout.num_clients() != population_.size()) {
    throw std::invalid_argument("run: dropout schedule arity mismatch");
  }
  Run run(*this, selector, dropout);
  // Crash-resume: the remaining epochs replay bit-identically to an
  // uninterrupted run.
  const std::size_t start_epoch = resume ? run.restore(*resume) : 0;
  for (std::size_t epoch = start_epoch; epoch < config_.rounds; ++epoch) {
    if (config_.stop_requested && config_.stop_requested()) {
      HACCS_INFO << "engine: stop requested, draining after epoch " << epoch;
      break;
    }
    run.round(epoch);
  }
  obs::clear_round_context();
  final_parameters_ = std::move(run.global_params);
  return std::move(run.history);
}

}  // namespace haccs::fl
