// Determinantal-point-process selection (Zhang et al., "Federated Learning
// with Client Diversity via Determinantal Point Processes"-style baselines;
// see PAPERS.md), re-implemented from the published idea.
//
// Clients are scored by a quality x diversity kernel
//
//   L_ij = q_i * q_j * S_ij,   S_ij = 1 - Hellinger(p_i, p_j)
//
// where p_i is client i's label distribution and q_i combines sample count,
// observed loss, and delivery reliability. A draw from the DPP favors sets
// whose label distributions are mutually far apart — directly attacking the
// same non-IID waste HACCS clusters away, but without an explicit clustering
// stage. Exact sampling is O(n^3); we use the standard stochastic greedy MAP
// approximation (categorical over conditional marginal gains), which keeps
// selection deterministic in the engine's selection stream.
#pragma once

#include <vector>

#include "src/data/partition.hpp"
#include "src/fl/reliability.hpp"
#include "src/fl/selector.hpp"

namespace haccs::select {

struct DppConfig {
  /// Loss assumed for never-trained clients (ln 10: uniform over 10 classes).
  double initial_loss = 2.302585;
  /// Reliability multiplier applied per reported failure; successes recover.
  double failure_factor = 0.5;
  double min_reliability = 1.0 / 64.0;
};

class DppSelector final : public fl::ClientSelector {
 public:
  /// `label_counts[i]` is client i's per-class label count (or distribution;
  /// normalized internally). The similarity kernel is fixed at construction.
  DppSelector(std::vector<std::vector<double>> label_counts, DppConfig config);
  /// Convenience: summarize each client's training split of `dataset`.
  explicit DppSelector(const data::FederatedDataset& dataset,
                       DppConfig config = {});

  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override;
  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override;
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  void report_failure(std::size_t client_id, std::size_t /*epoch*/,
                      fl::FailureKind /*kind*/) override {
    reliability_.record_failure(client_id);
  }
  std::string name() const override { return "DPP"; }

  /// Kernel similarity between two clients (1 - Hellinger) — for tests.
  double similarity(std::size_t a, std::size_t b) const;
  double reliability_of(std::size_t client_id) const {
    return reliability_.of(client_id);
  }

  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;

 private:
  double quality(const fl::ClientRuntimeInfo& client) const;

  DppConfig config_;
  std::size_t population_ = 0;
  std::vector<double> similarity_;   // n x n, row-major; structural
  std::vector<double> observed_loss_;  // NaN until first observation
  fl::ReliabilityTracker reliability_;
};

}  // namespace haccs::select
