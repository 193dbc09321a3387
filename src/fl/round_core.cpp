#include "src/fl/round_core.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/logging.hpp"
#include "src/common/threadpool.hpp"
#include "src/obs/events.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/trace.hpp"

namespace haccs::fl {

EngineMetrics& EngineMetrics::get() {
  auto& r = obs::Registry::global();
  static EngineMetrics metrics{
      r.counter("rounds_total"),
      r.counter("clients_dispatched_total"),
      r.counter("clients_crashed_total"),
      r.counter("clients_late_total"),
      r.counter("updates_rejected_total"),
      r.counter("evaluations_total"),
      r.histogram("round_wall_ms"),
      r.histogram("async_update_staleness", {0, 1, 2, 4, 8, 16, 32, 64})};
  return metrics;
}

void Population::init(const char* owner, std::size_t eval_every,
                      double max_update_norm,
                      const std::function<nn::Sequential()>& model_factory) {
  auto invalid = [owner](const char* what) {
    return std::invalid_argument(std::string(owner) + ": " + what);
  };
  if (dataset_.clients.empty()) throw invalid("no clients");
  if (eval_every == 0) throw invalid("eval_every must be > 0");
  if (max_update_norm < 0.0) {
    throw invalid("max_update_norm must be >= 0");
  }
  // Device profiles: one stream derived from the seed, independent of the
  // training stream so that adding rounds never changes hardware assignment.
  Rng profile_rng(seed_ ^ 0xdeadbeefcafef00dULL);
  profiles_.reserve(dataset_.clients.size());
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    profiles_.push_back(sim::DeviceProfile::sample(profile_rng));
  }
  if (compression_.kind != CompressionKind::None) {
    // The parameter count comes from one throwaway factory build.
    upload_bytes_ = compressed_wire_bytes(model_factory().parameter_count(),
                                          compression_);
  }
}

double Population::client_latency(std::size_t i) const {
  if (i >= profiles_.size()) {
    throw std::out_of_range("client_latency: bad client id");
  }
  if (compression_.kind != CompressionKind::None) {
    return latency_model_.round_latency_asymmetric(
        profiles_[i], dataset_.clients[i].train.size(),
        latency_model_.config().model_bytes, upload_bytes_);
  }
  return latency_model_.round_latency(profiles_[i],
                                      dataset_.clients[i].train.size());
}

double Population::client_latency_at(std::size_t i, std::size_t epoch) const {
  const double base = client_latency(i);
  if (jitter_sigma_ <= 0.0) return base;
  // One fresh generator per (seed, epoch, client): order-independent and
  // identical across strategies, like the dropout draws.
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (epoch + 1)) ^
          (0xc2b2ae3d27d4eb4fULL * (i + 1)));
  return base * std::exp(jitter_sigma_ * rng.normal());
}

std::vector<ClientRuntimeInfo> Population::make_client_view() const {
  std::vector<ClientRuntimeInfo> view(dataset_.clients.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i].id = i;
    view[i].latency_s = client_latency(i);
    view[i].num_samples = dataset_.clients[i].train.size();
    view[i].last_loss = initial_loss_;
  }
  return view;
}

EvalResult Population::evaluate(const nn::Sequential& model,
                                std::vector<double>* per_client) const {
  std::vector<EvalResult> results(dataset_.clients.size());
  parallel_for(0, results.size(), [&](std::size_t i) {
    results[i] = fl::evaluate(model, dataset_.clients[i].test);
  });
  EvalResult eval;
  if (per_client) per_client->assign(results.size(), 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    eval.accuracy += results[i].accuracy;
    eval.loss += results[i].loss;
    if (per_client) (*per_client)[i] = results[i].accuracy;
  }
  const auto n = static_cast<double>(results.size());
  eval.accuracy /= n;
  eval.loss /= n;
  return eval;
}

void RoundLedger::settle_failure(FailureKind kind, std::size_t client,
                                 std::size_t epoch, double observed_s) {
  EngineMetrics& metrics = EngineMetrics::get();
  observed.push_back(observed_s);
  switch (kind) {
    case FailureKind::Crash:
      record.crashed.push_back(client);
      obs::instant("client_crash", "fault");
      metrics.crashed.inc();
      break;
    case FailureKind::Timeout:
      record.late.push_back(client);
      obs::instant("client_late", "fault");
      metrics.late.inc();
      break;
    case FailureKind::CorruptUpdate:
      ++frames;
      HACCS_DEBUG << selector.name() << " epoch " << epoch
                  << " rejected update from client " << client;
      record.rejected.push_back(client);
      obs::instant("update_rejected", "fault");
      metrics.rejected.inc();
      break;
  }
  // A late client is slow, not broken: breakers count crashes and bad
  // updates only.
  if (breakers && kind != FailureKind::Timeout) {
    (*breakers)[client].record_failure(epoch);
  }
  selector.report_failure(client, epoch, kind);
}

void RoundLedger::settle_success(std::size_t client, double loss,
                                 std::size_t epoch, double observed_s) {
  observed.push_back(observed_s);
  ++frames;
  view[client].last_loss = loss;
  if (breakers) (*breakers)[client].record_success();
  selector.report_result(client, loss, epoch);
  record.selected.push_back(client);
}

RoundRecord RoundLedger::take() {
  RoundRecord out = std::move(record);
  record = RoundRecord{};
  observed.clear();
  frames = 0;
  return out;
}

void publish_round_event(const char* engine, const RoundRecord& record) {
  if (!obs::events_enabled() && !obs::FlightRecorder::global().enabled()) {
    return;
  }
  const std::string event = round_event_json(engine, record);
  if (obs::events_enabled()) obs::RunEventLog::global().emit(event);
  obs::FlightRecorder::global().record_round_event(event);
}

}  // namespace haccs::fl
