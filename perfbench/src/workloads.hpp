// The benchmark's workloads and the one federation driver they share.
//
// A Federation is one seeded federated training run: set-up (dataset,
// HACCS selector, worker fleet) happens in the constructor, run() drives
// every round of FederatedTrainer through the chosen topology, and the
// destructor shuts the fleet down. Each Federation runs exactly once, so
// no state (drifted data, selector penalties, worker residuals) leaks from
// one measured run into the next.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fl/engine.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/net/chaos.hpp"
#include "probes.hpp"
#include "src/stats/summary.hpp"

namespace perfbench {

enum class Topology {
  InProcess,  ///< fl::InProcessDispatcher on the global thread pool
  Loopback,   ///< fl::TransportDispatcher over loopback worker threads
  Tree,       ///< hier::TreeDispatcher -> MidTierAggregators -> TCP workers
};

struct WorkloadSpec {
  std::string name;
  Topology topology = Topology::InProcess;
  std::size_t clients = 50;
  std::size_t per_round = 10;
  std::size_t rounds = 200;
  std::size_t min_samples = 90;  ///< per-client train set, uniform range
  std::size_t max_samples = 210;
  std::size_t test_samples = 30;
  haccs::stats::SummaryKind summary = haccs::stats::SummaryKind::Response;
  /// Every `recluster_every` rounds (0 = never), `drift_fraction` of the
  /// clients get fresh label mixtures and the selector re-clusters.
  std::size_t recluster_every = 0;
  double drift_fraction = 0.0;
  /// tta_* report the first evaluation at or above this accuracy.
  double target_accuracy = 0.9;
  /// Measured federations per second of --seconds (work sizing), replays
  /// included.
  double federations_per_s = 1.0;
  /// Untraced runs play each seeded federation this many times and keep,
  /// round by round, the fastest wall time (see best_of).
  std::size_t replays = 3;
  std::size_t workers = 1;     ///< Loopback: workers; Tree: total workers
  std::size_t aggs = 0;        ///< Tree: mid-tier aggregators
  std::size_t agg_groups = 0;  ///< Loopback: grouped fold (0 = classic)
  haccs::net::ChaosOptions chaos;  ///< Loopback only
  int recv_timeout_ms = 30000;     ///< Loopback collection deadline
};

/// The four benchmark workloads, by name. Throws on an unknown name.
const WorkloadSpec& workload(const std::string& name);
std::vector<std::string> workload_names();

/// The run the workload's correctness gate compares against: the same
/// federation through the library's plain path (serve-loopback ->
/// in-process, serve-tree -> flat TransportDispatcher with agg_groups equal
/// to the aggregator count, the rest -> themselves).
WorkloadSpec reference_spec(const WorkloadSpec& spec);

/// Shrinks a workload for tests: fewer clients and rounds, same topology.
WorkloadSpec small_spec(const WorkloadSpec& spec);

/// Wrapped: every seam goes through the probes (traced runs). Bare: the
/// library's own objects with no wrapper anywhere (untraced runs and the
/// references). The tree fleet has no library assembly, so both wirings
/// build it here; Bare just leaves its links unwrapped.
enum class Wiring { Wrapped, Bare };

/// Plain copy of one WireCounters block.
struct WireTotals {
  std::uint64_t frames_sent = 0, frames_recv = 0;
  std::uint64_t bytes_sent = 0, bytes_recv = 0;
  double send_ms = 0.0, recv_ms = 0.0;
  std::uint64_t timeouts = 0, corrupt = 0, closed = 0;
  std::uint64_t train_jobs = 0;
  double train_ms = 0.0;
};

struct RunResult {
  haccs::fl::TrainingHistory history;
  std::uint64_t digest = 0;  ///< records (phase timings zeroed) + parameters
  std::vector<double> round_ms;  ///< wall time of each round
  double cpu_ms = 0.0;           ///< process CPU (all threads), round loop
  // Set-up.
  double setup_s = 0.0;
  double generate_ms = 0.0;
  // Seam timings (Wrapped only).
  std::vector<double> select_ms, dispatch_ms, recluster_ms;
  std::vector<double> summaries_ms, distances_ms, optics_ms;
  std::vector<int> cluster_counts;
  std::uint64_t undelivered[3] = {0, 0, 0};
  WireTotals server, worker, agg_up;
  haccs::hier::MidTierStats mid;  ///< summed over aggregators
  std::vector<Span> spans;        ///< recorded only when traced
};

class Federation {
 public:
  /// Builds everything the run needs; the time this takes is setup_s.
  /// `traced` records spans (set-up included) and turns on the library's
  /// phase laps for the run.
  Federation(const WorkloadSpec& spec, std::uint64_t seed, Wiring wiring,
             bool traced = false);
  ~Federation();
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Runs every round, shuts the fleet down and returns the measurements.
  /// Call once.
  RunResult run();

  /// Threads and connections this federation started (workers,
  /// aggregators; loopback pairs and TCP links).
  std::size_t threads_started() const;
  std::size_t connections() const;

 private:
  struct Impl;
  std::int64_t setup_start_ns_;
  std::unique_ptr<Impl> impl_;
  double setup_s_;
};

/// Dispatched jobs and their fates over one run. The per-kind counts come
/// from the RoundRecords; `transport_undelivered` is what the dispatcher
/// seam saw come back undelivered, counted independently by the wrapper.
struct FailureTally {
  std::size_t dispatched = 0;
  std::size_t folded = 0;
  std::size_t crash = 0;
  std::size_t timeout = 0;   ///< deadline cuts and transport timeouts
  std::size_t rejected = 0;  ///< corrupt frames and failed validation
  std::size_t corrupt = 0;   ///< of `rejected`, the corrupt frames
  std::size_t transport_undelivered = 0;

  std::size_t failed() const { return crash + timeout + rejected; }
  double failed_frac() const {
    return static_cast<double>(failed()) / static_cast<double>(dispatched);
  }
};

FailureTally tally_failures(const RunResult& run);

/// Folds the replays of one seeded federation into one result. Replays do
/// identical work (callers check their digests are equal), so what differs
/// between their timings is interference from outside the program: each
/// round's wall time, the set-up time and the CPU time are the minimum over
/// the replays; everything else is the first replay's. Consumes `replays`.
RunResult best_of(std::vector<RunResult>& replays);

/// FNV-1a over each record's run-event JSON (phase timings zeroed) and the
/// final parameters' bytes.
std::uint64_t run_digest(const haccs::fl::TrainingHistory& history,
                         const std::vector<float>& params);

/// Per-seed sub-seed for federation `index` of a run.
std::uint64_t federation_seed(std::uint64_t seed, std::size_t index);

}  // namespace perfbench
