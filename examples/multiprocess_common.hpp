// Shared workload construction for the multi-process examples.
//
// haccs_server and haccs_worker each rebuild the identical federation from
// the same flags + seed (synthetic data is a pure function of the seed), so
// only parameters, updates, and summaries ever cross the wire — exactly the
// deployment model of the paper's testbed, where each device already holds
// its local data.
#pragma once

#include "bench/harness.hpp"
#include "src/common/rng.hpp"
#include "src/data/partition.hpp"
#include "src/net/chaos.hpp"

namespace haccs::examples {

inline data::FederatedDataset build_federation(
    const bench::ExperimentConfig& exp) {
  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  return data::partition_majority_label(gen, exp.make_partition_config(), rng);
}

/// The model-factory seed both processes must agree on (same constant
/// tools/haccs_run.cpp uses, so a TCP run is comparable to a local one).
inline constexpr std::uint64_t kModelSeed = 99;

/// Shared --chaos-* flags (both binaries take the same knobs; each process
/// injects on its own outbound traffic).
inline net::ChaosOptions parse_chaos_flags(const Flags& flags) {
  net::ChaosOptions chaos;
  chaos.seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 1));
  chaos.drop_rate = flags.get_double("chaos-drop", 0.0);
  chaos.duplicate_rate = flags.get_double("chaos-dup", 0.0);
  chaos.reorder_rate = flags.get_double("chaos-reorder", 0.0);
  chaos.corrupt_rate = flags.get_double("chaos-corrupt", 0.0);
  chaos.truncate_rate = flags.get_double("chaos-truncate", 0.0);
  chaos.disconnect_rate = flags.get_double("chaos-disconnect", 0.0);
  return chaos;
}

}  // namespace haccs::examples
