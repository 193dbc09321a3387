#include "src/select/hics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/net/wire.hpp"
#include "src/stats/distance.hpp"

namespace haccs::select {

HicsSelector::HicsSelector(std::vector<std::vector<double>> label_counts,
                           HicsConfig config)
    : config_(config),
      population_(label_counts.size()),
      reliability_(config.failure_factor, config.min_reliability) {
  if (population_ == 0) {
    throw std::invalid_argument("HicsSelector: empty population");
  }
  if (config_.base < 0.0 || config_.latency_beta < 0.0) {
    throw std::invalid_argument("HicsSelector: bad config");
  }
  // Population-mean distribution: normalize each client first so a large
  // client cannot pass for "the average" by sheer sample mass.
  std::size_t classes = 0;
  for (const auto& counts : label_counts) {
    classes = std::max(classes, counts.size());
  }
  std::vector<double> mean(classes, 0.0);
  for (auto& counts : label_counts) {
    counts.resize(classes, 0.0);
    double total = 0.0;
    for (double c : counts) total += std::max(c, 0.0);
    if (total <= 0.0) continue;
    for (std::size_t j = 0; j < classes; ++j) {
      mean[j] += std::max(counts[j], 0.0) / total;
    }
  }
  heterogeneity_.reserve(population_);
  for (const auto& counts : label_counts) {
    heterogeneity_.push_back(stats::distribution_distance(
        counts, mean, stats::DistanceKind::Hellinger));
  }
  observed_loss_.assign(population_, std::numeric_limits<double>::quiet_NaN());
  reliability_.reset(population_);
}

HicsSelector::HicsSelector(const data::FederatedDataset& dataset,
                           HicsConfig config)
    : HicsSelector(dataset.train_label_counts(), config) {}

void HicsSelector::initialize(
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  if (clients.size() != population_) {
    throw std::invalid_argument(
        "HicsSelector: runtime view does not match the scored population");
  }
}

double HicsSelector::heterogeneity_of(std::size_t client_id) const {
  return client_id < heterogeneity_.size() ? heterogeneity_[client_id] : 0.0;
}

void HicsSelector::report_result(std::size_t client_id, double loss,
                                 std::size_t /*epoch*/) {
  if (client_id >= observed_loss_.size()) return;
  observed_loss_[client_id] = loss;
  reliability_.record_success(client_id);
}

std::vector<std::size_t> HicsSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& rng) {
  if (clients.size() != population_) initialize(clients);

  auto ids = fl::available_ids(clients);
  if (ids.size() <= k) return ids;

  double min_latency = std::numeric_limits<double>::infinity();
  for (std::size_t id : ids) {
    min_latency = std::min(min_latency, clients[id].latency_s);
  }
  std::vector<double> weight(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t id = ids[i];
    const double loss = std::isnan(observed_loss_[id]) ? config_.initial_loss
                                                       : observed_loss_[id];
    double w = (config_.base + heterogeneity_[id]) *
               std::max(loss, 1.0e-6) * reliability_.of(id);
    if (config_.latency_beta > 0.0 && clients[id].latency_s > 0.0 &&
        min_latency > 0.0) {
      w *= std::pow(min_latency / clients[id].latency_s, config_.latency_beta);
    }
    weight[i] = std::max(w, 1.0e-12);
  }

  // k categorical draws without replacement (zero out each pick).
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t draw = 0; draw < k; ++draw) {
    const std::size_t i = rng.categorical(weight);
    out.push_back(ids[i]);
    weight[i] = 0.0;
  }
  return out;
}

std::vector<std::uint8_t> HicsSelector::save_state() const {
  net::WireWriter w;
  w.string("HiCS");
  w.u16(1);  // state-blob version
  w.f64_array(observed_loss_);
  reliability_.save(w);
  return w.take();
}

void HicsSelector::load_state(std::span<const std::uint8_t> state) {
  net::WireReader r(state);
  if (r.string() != "HiCS") {
    throw std::runtime_error("HicsSelector: state blob from another selector");
  }
  if (r.u16() != 1) {
    throw std::runtime_error("HicsSelector: unsupported state version");
  }
  auto observed = r.f64_array();
  if (observed.size() != population_) {
    throw std::runtime_error("HicsSelector: state population mismatch");
  }
  reliability_.load(r);
  observed_loss_ = std::move(observed);
}

}  // namespace haccs::select
