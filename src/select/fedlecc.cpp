#include "src/select/fedlecc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/clustering/dbscan.hpp"
#include "src/clustering/distance_matrix.hpp"
#include "src/net/wire.hpp"
#include "src/stats/distance.hpp"

namespace haccs::select {

FedLeccSelector::FedLeccSelector(std::vector<std::vector<double>> label_counts,
                                 FedLeccConfig config)
    : config_(config),
      population_(label_counts.size()),
      reliability_(config.failure_factor, config.min_reliability) {
  if (population_ == 0) {
    throw std::invalid_argument("FedLeccSelector: empty population");
  }
  if (config_.eps <= 0.0 || config_.min_pts == 0) {
    throw std::invalid_argument("FedLeccSelector: bad DBSCAN parameters");
  }
  const auto matrix = clustering::DistanceMatrix::build(
      population_, [&](std::size_t i, std::size_t j) {
        return stats::distribution_distance(label_counts[i], label_counts[j],
                                            stats::DistanceKind::Hellinger);
      });
  cluster_of_ =
      clustering::dbscan(matrix, {config_.eps, config_.min_pts});
  // Noise points (-1) become singleton clusters: an outlier distribution is
  // exactly the client a diversity-seeking policy must still reach.
  int next = 0;
  for (int label : cluster_of_) next = std::max(next, label + 1);
  for (int& label : cluster_of_) {
    if (label < 0) label = next++;
  }
  clusters_.assign(static_cast<std::size_t>(next), {});
  for (std::size_t i = 0; i < population_; ++i) {
    clusters_[static_cast<std::size_t>(cluster_of_[i])].push_back(i);
  }
  observed_loss_.assign(population_, std::numeric_limits<double>::quiet_NaN());
  reliability_.reset(population_);
}

FedLeccSelector::FedLeccSelector(const data::FederatedDataset& dataset,
                                 FedLeccConfig config)
    : FedLeccSelector(dataset.train_label_counts(), config) {}

void FedLeccSelector::initialize(
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  if (clients.size() != population_) {
    throw std::invalid_argument(
        "FedLeccSelector: runtime view does not match the clustered "
        "population");
  }
}

double FedLeccSelector::loss_of(std::size_t client_id) const {
  return std::isnan(observed_loss_[client_id]) ? config_.initial_loss
                                               : observed_loss_[client_id];
}

void FedLeccSelector::report_result(std::size_t client_id, double loss,
                                    std::size_t /*epoch*/) {
  if (client_id >= observed_loss_.size()) return;
  observed_loss_[client_id] = loss;
  reliability_.record_success(client_id);
}

std::vector<std::size_t> FedLeccSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& rng) {
  if (clients.size() != population_) initialize(clients);

  auto ids = fl::available_ids(clients);
  if (ids.size() <= k) return ids;

  std::vector<std::size_t> out;
  out.reserve(k);

  // Per-cluster remaining available members, maintained across draws.
  std::vector<std::vector<std::size_t>> open(clusters_.size());
  for (std::size_t id : ids) {
    open[static_cast<std::size_t>(cluster_of_[id])].push_back(id);
  }

  std::vector<double> weight(clusters_.size());
  while (out.size() < k) {
    double total = 0.0;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      // Remaining loss mass of the cluster: |members| x mean observed (or
      // initial) loss — big, badly-fit clusters get drawn more often.
      double loss_sum = 0.0;
      for (std::size_t id : open[c]) loss_sum += loss_of(id);
      weight[c] = loss_sum;
      total += weight[c];
    }
    if (total <= 0.0) break;  // cannot happen: losses are positive
    const std::size_t c = rng.categorical(weight);
    // Exploit within the drawn cluster: highest reliability-weighted loss,
    // ties broken toward the faster, then lower-id, client.
    std::size_t best = open[c].front();
    double best_score = -1.0;
    for (std::size_t id : open[c]) {
      const double score = loss_of(id) * reliability_.of(id);
      if (score > best_score ||
          (score == best_score &&
           (clients[id].latency_s < clients[best].latency_s ||
            (clients[id].latency_s == clients[best].latency_s && id < best)))) {
        best = id;
        best_score = score;
      }
    }
    out.push_back(best);
    auto& members = open[c];
    members.erase(std::find(members.begin(), members.end(), best));
  }
  return out;
}

std::vector<std::uint8_t> FedLeccSelector::save_state() const {
  net::WireWriter w;
  w.string("FedLECC");
  w.u16(1);  // state-blob version
  w.f64_array(observed_loss_);
  reliability_.save(w);
  return w.take();
}

void FedLeccSelector::load_state(std::span<const std::uint8_t> state) {
  net::WireReader r(state);
  if (r.string() != "FedLECC") {
    throw std::runtime_error(
        "FedLeccSelector: state blob from another selector");
  }
  if (r.u16() != 1) {
    throw std::runtime_error("FedLeccSelector: unsupported state version");
  }
  auto observed = r.f64_array();
  if (observed.size() != population_) {
    throw std::runtime_error("FedLeccSelector: state population mismatch");
  }
  reliability_.load(r);
  observed_loss_ = std::move(observed);
}

}  // namespace haccs::select
