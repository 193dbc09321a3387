// What a federated round means in both engines (DESIGN.md §5c): the sync
// FederatedTrainer and the async AsyncFederatedTrainer simulate one
// population (seeded device profiles, latency, client view, evaluation) and
// settle dispatches the same way. Each keeps only its own scheduling: a
// round barrier or an event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/data/partition.hpp"
#include "src/fl/client.hpp"
#include "src/fl/compression.hpp"
#include "src/fl/history.hpp"
#include "src/fl/selector.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/faults.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/profile.hpp"

namespace haccs::fl {

/// Telemetry instruments of both engines, registered once in the process
/// registry (`rounds_total` counts async aggregations too).
struct EngineMetrics {
  obs::Counter& rounds;
  obs::Counter& dispatched;
  obs::Counter& crashed;
  obs::Counter& late;
  obs::Counter& rejected;
  obs::Counter& evaluations;
  obs::Histogram& round_ms;
  obs::Histogram& staleness;  ///< async: versions behind at aggregation

  static EngineMetrics& get();
};

/// The simulated client population.
class Population {
 public:
  /// Takes and validates (std::invalid_argument prefixed with `owner`) the
  /// fields EngineConfig and AsyncEngineConfig share, and samples one device
  /// profile per client from the seed: a seed means the same hardware in
  /// either engine. `compression` prices the uplink in client latencies.
  template <class EngineConfigT>
  Population(const char* owner, const data::FederatedDataset& dataset,
             const std::function<nn::Sequential()>& model_factory,
             const EngineConfigT& config, CompressionConfig compression = {})
      : dataset_(dataset),
        initial_loss_(config.initial_loss),
        jitter_sigma_(config.latency_jitter_sigma),
        seed_(config.seed),
        compression_(compression),
        latency_model_(config.latency) {
    init(owner, config.eval_every, config.max_update_norm, model_factory);
  }

  std::size_t size() const { return dataset_.clients.size(); }
  const data::FederatedDataset& dataset() const { return dataset_; }
  const std::vector<sim::DeviceProfile>& profiles() const { return profiles_; }

  /// FedAvg weight of client i: its local training-set size.
  double weight(std::size_t i) const {
    return static_cast<double>(dataset_.clients[i].train.size());
  }

  /// Base (expected) round latency of client i.
  double client_latency(std::size_t i) const;
  /// Client i's latency in `epoch` with the seeded log-normal jitter; a
  /// pure function of (seed, epoch, i).
  double client_latency_at(std::size_t i, std::size_t epoch) const;
  /// The runtime view handed to selectors (all available, initial loss).
  std::vector<ClientRuntimeInfo> make_client_view() const;

  /// "The overall accuracy is the average test accuracy on all devices",
  /// unavailable ones included. Devices evaluate in parallel; the mean is
  /// reduced serially in client order, independent of worker timing.
  EvalResult evaluate(const nn::Sequential& model,
                      std::vector<double>* per_client = nullptr) const;

 private:
  void init(const char* owner, std::size_t eval_every, double max_update_norm,
            const std::function<nn::Sequential()>& model_factory);

  const data::FederatedDataset& dataset_;
  double initial_loss_;
  double jitter_sigma_;
  std::uint64_t seed_;
  CompressionConfig compression_;
  sim::LatencyModel latency_model_;
  std::vector<sim::DeviceProfile> profiles_;
  std::size_t upload_bytes_ = 0;
};

/// One record's dispatch settlements: the sync engine settles a round into
/// it, the async engine everything between two aggregations.
struct RoundLedger {
  RoundLedger(ClientSelector& s, std::vector<ClientRuntimeInfo>& v,
              std::vector<sim::CircuitBreaker>* b)
      : selector(s), view(v), breakers(b) {}

  ClientSelector& selector;
  std::vector<ClientRuntimeInfo>& view;
  std::vector<sim::CircuitBreaker>* breakers;  ///< nullptr: none (async)
  RoundRecord record;
  std::vector<double> observed;  ///< when the server learned each outcome
  std::size_t frames = 0;  ///< update frames received: the uplink count

  /// Settles a failed dispatch the server learned of at `observed_s`. The
  /// kind alone picks the record list, trace instant, counter and whether
  /// the breaker counts it (table in DESIGN.md §5c), and the selector hears
  /// report_failure(kind). A CorruptUpdate's frame arrived: it is uplink.
  void settle_failure(FailureKind kind, std::size_t client, std::size_t epoch,
                      double observed_s);
  /// Settles an accepted update: its loss reaches the view and the
  /// selector, its breaker closes, and it joins `selected`.
  void settle_success(std::size_t client, double loss, std::size_t epoch,
                      double observed_s);
  /// Hands over the record and starts an empty one.
  RoundRecord take();
};

/// Emits a finished record as a run event (`round_event_json`) to the event
/// log and the flight recorder, rendered once and only when either is on.
void publish_round_event(const char* engine, const RoundRecord& record);

}  // namespace haccs::fl
