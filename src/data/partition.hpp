// Federated data partitioners — every client-data layout used in the paper.
//
// Each builder draws per-client training and test sets from the synthetic
// generator and records the ground-truth distribution group of each client
// (clients constructed from the same label mixture share a group id), which
// the clustering-accuracy experiments (Fig. 8a) compare against.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/data/dataset.hpp"
#include "src/data/synthetic.hpp"

namespace haccs::data {

/// One client's local data: a train split and a same-distribution test split.
struct ClientData {
  Dataset train;
  Dataset test;
};

struct FederatedDataset {
  std::vector<ClientData> clients;
  std::size_t num_classes = 0;
  /// Ground-truth distribution group per client (same mixture => same id).
  std::vector<int> true_group;
  /// Rotation applied to each client's samples (degrees); nonzero only in
  /// feature-skew partitions.
  std::vector<double> rotation;
  /// The exact label mixture each client was drawn from (sums to 1).
  std::vector<std::vector<double>> true_label_distribution;
  /// Per-client rendering style (neutral unless the partition enables
  /// style jitter).
  std::vector<ClientStyle> style;

  std::size_t num_clients() const { return clients.size(); }
  /// Each client's training-split label counts, in client order.
  std::vector<std::vector<double>> train_label_counts() const;
};

struct PartitionConfig {
  std::size_t num_clients = 50;
  /// Per-client training-set size is uniform in [min_samples, max_samples]
  /// ("the amount of data available in each client varies", §V-A).
  std::size_t min_samples = 120;
  std::size_t max_samples = 280;
  /// Test samples per client (fixed so accuracy averages are comparable).
  std::size_t test_samples = 40;
  /// Per-client style jitter (0 disables): stand-in for natural feature
  /// heterogeneity across devices — see data::ClientStyle.
  double style_brightness_stddev = 0.0;
  double style_contrast_stddev = 0.0;
};

/// Paper §V-A main setup: one majority label (75%) plus three noise labels
/// (12% / 7% / 6%). Majority labels rotate round-robin over the class space
/// so every label is some client's majority; noise labels are drawn
/// uniformly from the remaining classes per client.
FederatedDataset partition_majority_label(const SyntheticImageGenerator& gen,
                                          const PartitionConfig& config,
                                          Rng& rng);

/// Paper Table I: 100 devices in 10 groups of 10; each group holds exactly
/// two classes, split 50/50. `config.num_clients` must be a multiple of 10.
FederatedDataset partition_group_table(const SyntheticImageGenerator& gen,
                                       const PartitionConfig& config, Rng& rng);

/// The exact Table I group -> class assignment.
std::array<std::array<int, 2>, 10> group_partition_table();

/// IID: every label present on every client with equal proportion and equal
/// sample counts (paper §V-D1 "no skew" case).
FederatedDataset partition_iid(const SyntheticImageGenerator& gen,
                               const PartitionConfig& config, Rng& rng);

/// K randomly selected labels per client, uniform mixture (paper §V-D1
/// "skewed" case with k = 5).
FederatedDataset partition_k_random_labels(const SyntheticImageGenerator& gen,
                                           const PartitionConfig& config,
                                           std::size_t k, Rng& rng);

/// Feature-skew setup (paper §V-D4): majority-label partition where each
/// client additionally rotates all of its samples by 0° or 45°; the rotation
/// is tied to the majority label so clusters found from P(y) alone hide
/// genuine feature skew.
FederatedDataset partition_feature_skew(const SyntheticImageGenerator& gen,
                                        const PartitionConfig& config,
                                        double rotation_degrees, Rng& rng);

/// Fig. 8a setup: `2 * classes` clients, exactly two per label, each with a
/// 70/10/10/10 mixture (majority label plus three fixed noise labels).
/// `samples_per_client` overrides the PartitionConfig range.
FederatedDataset partition_two_per_label(const SyntheticImageGenerator& gen,
                                         std::size_t samples_per_client,
                                         std::size_t test_samples, Rng& rng);

/// Dirichlet(alpha) label mixtures — a standard FL benchmark layout included
/// as an extension beyond the paper's setups. Small alpha => high skew.
FederatedDataset partition_dirichlet(const SyntheticImageGenerator& gen,
                                     const PartitionConfig& config,
                                     double alpha, Rng& rng);

/// In-place distribution drift (paper §IV-C: "the data distribution at a
/// given client device could change over time"): re-draws a random
/// `fraction` of clients with fresh majority-label mixtures and regenerates
/// their train/test data (same sizes, same rotation/style). Ground-truth
/// metadata (true_group, true_label_distribution) is updated to match.
void apply_label_drift(FederatedDataset& dataset,
                       const SyntheticImageGenerator& gen, double fraction,
                       Rng& rng);

/// Draws `count` labels from `mixture` (a categorical distribution over
/// classes) and fills `dataset` with generated samples, rotated by
/// `rotation_degrees`.
void fill_from_mixture(const SyntheticImageGenerator& gen,
                       const std::vector<double>& mixture, std::size_t count,
                       Dataset& dataset, Rng& rng,
                       double rotation_degrees = 0.0,
                       const ClientStyle& style = ClientStyle::neutral());

}  // namespace haccs::data
