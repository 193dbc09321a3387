#include "src/data/partition.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "src/common/error.hpp"

namespace haccs::data {

std::vector<std::vector<double>> FederatedDataset::train_label_counts() const {
  std::vector<std::vector<double>> counts;
  counts.reserve(clients.size());
  for (const auto& client : clients) {
    counts.push_back(client.train.label_counts());
  }
  return counts;
}

namespace {

Dataset make_empty(const SyntheticImageGenerator& gen) {
  return Dataset(gen.sample_shape(), gen.config().classes);
}

std::size_t draw_sample_count(const PartitionConfig& config, Rng& rng) {
  if (config.min_samples > config.max_samples) {
    throw std::invalid_argument("PartitionConfig: min_samples > max_samples");
  }
  if (config.min_samples == config.max_samples) return config.min_samples;
  return config.min_samples +
         static_cast<std::size_t>(rng.uniform_index(
             config.max_samples - config.min_samples + 1));
}

/// Assigns group ids so that clients with the same mixture signature share
/// an id. Signature = sorted (label, rounded proportion) pairs.
std::vector<int> group_by_mixture(
    const std::vector<std::vector<double>>& mixtures) {
  std::map<std::vector<std::int64_t>, int> seen;
  std::vector<int> groups;
  groups.reserve(mixtures.size());
  for (const auto& mix : mixtures) {
    std::vector<std::int64_t> signature;
    signature.reserve(mix.size());
    for (double p : mix) {
      signature.push_back(static_cast<std::int64_t>(std::llround(p * 1000.0)));
    }
    auto [it, inserted] =
        seen.emplace(std::move(signature), static_cast<int>(seen.size()));
    groups.push_back(it->second);
  }
  return groups;
}

FederatedDataset assemble(const SyntheticImageGenerator& gen,
                          const std::vector<std::vector<double>>& mixtures,
                          const std::vector<std::size_t>& train_counts,
                          std::size_t test_samples,
                          const std::vector<double>& rotations, Rng& rng,
                          const std::vector<ClientStyle>& styles = {}) {
  HACCS_CHECK(mixtures.size() == train_counts.size());
  HACCS_CHECK(mixtures.size() == rotations.size());
  HACCS_CHECK(styles.empty() || styles.size() == mixtures.size());
  FederatedDataset fed;
  fed.num_classes = gen.config().classes;
  fed.true_label_distribution = mixtures;
  fed.rotation = rotations;
  fed.true_group = group_by_mixture(mixtures);
  fed.style = styles.empty()
                  ? std::vector<ClientStyle>(mixtures.size())
                  : styles;
  fed.clients.reserve(mixtures.size());
  for (std::size_t i = 0; i < mixtures.size(); ++i) {
    ClientData client{make_empty(gen), make_empty(gen)};
    fill_from_mixture(gen, mixtures[i], train_counts[i], client.train, rng,
                      rotations[i], fed.style[i]);
    fill_from_mixture(gen, mixtures[i], test_samples, client.test, rng,
                      rotations[i], fed.style[i]);
    fed.clients.push_back(std::move(client));
  }
  return fed;
}

/// Draws one style per client from the PartitionConfig jitter knobs
/// (all-neutral when jitter is disabled).
std::vector<ClientStyle> draw_styles(const PartitionConfig& config,
                                     std::size_t num_clients, Rng& rng) {
  std::vector<ClientStyle> styles(num_clients);
  if (config.style_brightness_stddev > 0.0 ||
      config.style_contrast_stddev > 0.0) {
    for (auto& s : styles) {
      s = ClientStyle::sample(config.style_brightness_stddev,
                              config.style_contrast_stddev, rng);
    }
  }
  return styles;
}

/// Majority label + three noise labels with the paper's 75/12/7/6 split.
std::vector<double> majority_mixture(std::size_t classes, std::size_t majority,
                                     Rng& rng,
                                     const std::array<double, 4>& weights = {
                                         0.75, 0.12, 0.07, 0.06}) {
  if (classes < 4) {
    throw std::invalid_argument("majority_mixture: need at least 4 classes");
  }
  std::vector<double> mix(classes, 0.0);
  mix[majority] = weights[0];
  // Three distinct noise labels drawn from the remaining classes.
  std::vector<std::size_t> others;
  others.reserve(classes - 1);
  for (std::size_t c = 0; c < classes; ++c) {
    if (c != majority) others.push_back(c);
  }
  rng.shuffle(others);
  for (std::size_t j = 0; j < 3; ++j) mix[others[j]] = weights[j + 1];
  return mix;
}

}  // namespace

void fill_from_mixture(const SyntheticImageGenerator& gen,
                       const std::vector<double>& mixture, std::size_t count,
                       Dataset& dataset, Rng& rng, double rotation_degrees,
                       const ClientStyle& style) {
  if (mixture.size() != gen.config().classes) {
    throw std::invalid_argument("fill_from_mixture: mixture arity mismatch");
  }
  std::vector<float> buffer(gen.sample_size());
  for (std::size_t i = 0; i < count; ++i) {
    const auto label = static_cast<std::int64_t>(rng.categorical(mixture));
    gen.generate(label, rng, buffer, rotation_degrees, style);
    dataset.add(buffer, label);
  }
}

FederatedDataset partition_majority_label(const SyntheticImageGenerator& gen,
                                          const PartitionConfig& config,
                                          Rng& rng) {
  const std::size_t classes = gen.config().classes;
  std::vector<std::vector<double>> mixtures;
  std::vector<std::size_t> counts;
  std::vector<double> rotations(config.num_clients, 0.0);
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    const std::size_t majority = i % classes;  // round-robin coverage
    mixtures.push_back(majority_mixture(classes, majority, rng));
    counts.push_back(draw_sample_count(config, rng));
  }
  const auto styles = draw_styles(config, config.num_clients, rng);
  return assemble(gen, mixtures, counts, config.test_samples, rotations, rng,
                  styles);
}

std::array<std::array<int, 2>, 10> group_partition_table() {
  // Paper Table I, verbatim.
  return {{{6, 7}, {1, 4}, {5, 9}, {2, 3}, {0, 4},
           {2, 5}, {6, 8}, {0, 9}, {7, 8}, {1, 3}}};
}

FederatedDataset partition_group_table(const SyntheticImageGenerator& gen,
                                       const PartitionConfig& config,
                                       Rng& rng) {
  if (config.num_clients % 10 != 0) {
    throw std::invalid_argument(
        "partition_group_table: num_clients must be a multiple of 10");
  }
  if (gen.config().classes < 10) {
    throw std::invalid_argument(
        "partition_group_table: generator must have >= 10 classes");
  }
  const auto table = group_partition_table();
  const std::size_t per_group = config.num_clients / 10;
  std::vector<std::vector<double>> mixtures;
  std::vector<std::size_t> counts;
  std::vector<double> rotations(config.num_clients, 0.0);
  for (std::size_t g = 0; g < 10; ++g) {
    std::vector<double> mix(gen.config().classes, 0.0);
    mix[static_cast<std::size_t>(table[g][0])] = 0.5;
    mix[static_cast<std::size_t>(table[g][1])] = 0.5;
    for (std::size_t j = 0; j < per_group; ++j) {
      mixtures.push_back(mix);
      counts.push_back(draw_sample_count(config, rng));
    }
  }
  return assemble(gen, mixtures, counts, config.test_samples, rotations, rng);
}

FederatedDataset partition_iid(const SyntheticImageGenerator& gen,
                               const PartitionConfig& config, Rng& rng) {
  const std::size_t classes = gen.config().classes;
  const std::vector<double> uniform(classes, 1.0 / static_cast<double>(classes));
  std::vector<std::vector<double>> mixtures(config.num_clients, uniform);
  // Paper §V-D1: "the same number of training samples exist on each client"
  // in the IID case.
  std::vector<std::size_t> counts(
      config.num_clients, (config.min_samples + config.max_samples) / 2);
  std::vector<double> rotations(config.num_clients, 0.0);
  const auto styles = draw_styles(config, config.num_clients, rng);
  return assemble(gen, mixtures, counts, config.test_samples, rotations, rng,
                  styles);
}

FederatedDataset partition_k_random_labels(const SyntheticImageGenerator& gen,
                                           const PartitionConfig& config,
                                           std::size_t k, Rng& rng) {
  const std::size_t classes = gen.config().classes;
  if (k == 0 || k > classes) {
    throw std::invalid_argument("partition_k_random_labels: bad k");
  }
  std::vector<std::vector<double>> mixtures;
  std::vector<std::size_t> counts;
  std::vector<double> rotations(config.num_clients, 0.0);
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    auto chosen = rng.sample_without_replacement(classes, k);
    std::vector<double> mix(classes, 0.0);
    for (std::size_t c : chosen) mix[c] = 1.0 / static_cast<double>(k);
    mixtures.push_back(std::move(mix));
    counts.push_back(draw_sample_count(config, rng));
  }
  const auto styles = draw_styles(config, config.num_clients, rng);
  return assemble(gen, mixtures, counts, config.test_samples, rotations, rng,
                  styles);
}

FederatedDataset partition_feature_skew(const SyntheticImageGenerator& gen,
                                        const PartitionConfig& config,
                                        double rotation_degrees, Rng& rng) {
  const std::size_t classes = gen.config().classes;
  std::vector<std::vector<double>> mixtures;
  std::vector<std::size_t> counts;
  std::vector<double> rotations;
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    const std::size_t majority = i % classes;
    mixtures.push_back(majority_mixture(classes, majority, rng));
    counts.push_back(draw_sample_count(config, rng));
    // Rotation tied to the majority label ("the major labels all have the
    // same rotation angle", §V-D4): even labels upright, odd labels rotated.
    rotations.push_back(majority % 2 == 0 ? 0.0 : rotation_degrees);
  }
  const auto styles = draw_styles(config, config.num_clients, rng);
  auto fed = assemble(gen, mixtures, counts, config.test_samples, rotations,
                      rng, styles);
  // Distinguish groups that share a mixture but differ in rotation.
  int max_group = 0;
  for (int g : fed.true_group) max_group = std::max(max_group, g);
  for (std::size_t i = 0; i < fed.clients.size(); ++i) {
    if (fed.rotation[i] != 0.0) fed.true_group[i] += max_group + 1;
  }
  return fed;
}

FederatedDataset partition_two_per_label(const SyntheticImageGenerator& gen,
                                         std::size_t samples_per_client,
                                         std::size_t test_samples, Rng& rng) {
  const std::size_t classes = gen.config().classes;
  std::vector<std::vector<double>> mixtures;
  std::vector<std::size_t> counts;
  std::vector<double> rotations(2 * classes, 0.0);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    // 70/10/10/10: noise labels are the three cyclic successors, fixed (not
    // random) so both clients of a label share the mixture exactly.
    std::vector<double> mix(classes, 0.0);
    mix[cls] = 0.7;
    mix[(cls + 1) % classes] += 0.1;
    mix[(cls + 2) % classes] += 0.1;
    mix[(cls + 3) % classes] += 0.1;
    for (int copy = 0; copy < 2; ++copy) {
      mixtures.push_back(mix);
      counts.push_back(samples_per_client);
    }
  }
  return assemble(gen, mixtures, counts, test_samples, rotations, rng);
}

FederatedDataset partition_dirichlet(const SyntheticImageGenerator& gen,
                                     const PartitionConfig& config,
                                     double alpha, Rng& rng) {
  if (alpha <= 0.0) {
    throw std::invalid_argument("partition_dirichlet: alpha must be > 0");
  }
  const std::size_t classes = gen.config().classes;
  std::vector<std::vector<double>> mixtures;
  std::vector<std::size_t> counts;
  std::vector<double> rotations(config.num_clients, 0.0);
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    // Dirichlet via normalized Gamma(alpha, 1) draws; Gamma sampled with
    // the Marsaglia-Tsang method (alpha boosted by 1 when < 1).
    std::vector<double> mix(classes);
    double total = 0.0;
    for (double& m : mix) {
      double a = alpha;
      double boost = 1.0;
      if (a < 1.0) {
        boost = std::pow(rng.uniform(), 1.0 / a);
        a += 1.0;
      }
      const double d = a - 1.0 / 3.0;
      const double c = 1.0 / std::sqrt(9.0 * d);
      double sample = 0.0;
      for (;;) {
        const double x = rng.normal();
        const double v = std::pow(1.0 + c * x, 3.0);
        if (v <= 0.0) continue;
        const double u = rng.uniform();
        if (u < 1.0 - 0.0331 * std::pow(x, 4.0) ||
            std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
          sample = d * v * boost;
          break;
        }
      }
      m = std::max(sample, 1e-12);
      total += m;
    }
    for (double& m : mix) m /= total;
    mixtures.push_back(std::move(mix));
    counts.push_back(draw_sample_count(config, rng));
  }
  const auto styles = draw_styles(config, config.num_clients, rng);
  return assemble(gen, mixtures, counts, config.test_samples, rotations, rng,
                  styles);
}

void apply_label_drift(FederatedDataset& dataset,
                       const SyntheticImageGenerator& gen, double fraction,
                       Rng& rng) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("apply_label_drift: fraction out of [0, 1]");
  }
  const std::size_t classes = gen.config().classes;
  const auto count = static_cast<std::size_t>(
      fraction * static_cast<double>(dataset.num_clients()));
  for (std::size_t i :
       rng.sample_without_replacement(dataset.num_clients(), count)) {
    const std::size_t majority = rng.uniform_index(classes);
    auto mixture = majority_mixture(classes, majority, rng);
    const std::size_t train_size = dataset.clients[i].train.size();
    const std::size_t test_size = dataset.clients[i].test.size();
    ClientData fresh{make_empty(gen), make_empty(gen)};
    fill_from_mixture(gen, mixture, train_size, fresh.train, rng,
                      dataset.rotation[i], dataset.style[i]);
    fill_from_mixture(gen, mixture, test_size, fresh.test, rng,
                      dataset.rotation[i], dataset.style[i]);
    dataset.clients[i] = std::move(fresh);
    dataset.true_label_distribution[i] = std::move(mixture);
  }
  // Recompute group ids from the updated mixtures.
  std::map<std::vector<std::int64_t>, int> seen;
  for (std::size_t i = 0; i < dataset.num_clients(); ++i) {
    std::vector<std::int64_t> signature;
    for (double p : dataset.true_label_distribution[i]) {
      signature.push_back(static_cast<std::int64_t>(std::llround(p * 1000.0)));
    }
    auto [it, inserted] =
        seen.emplace(std::move(signature), static_cast<int>(seen.size()));
    dataset.true_group[i] = it->second;
  }
}

}  // namespace haccs::data
