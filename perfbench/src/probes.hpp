// The benchmark's own tracing layer: a span recorder and pass-through
// wrappers around the library's public seams (ClientSelector,
// RoundDispatcher, Transport, the core:: pipeline functions).
//
// Every wrapper forwards each call unchanged; it only reads the clock and
// bumps counters around the call. Spans are recorded only while the
// recorder is enabled; the counters always run. Only traced federations are
// wrapped: the end-to-end metrics come from unwrapped ones. Nothing here
// reads the program's own obs spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/fl/dispatch.hpp"
#include "src/fl/selector.hpp"
#include "src/net/transport.hpp"

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no enclosing span on its thread)
  std::uint32_t tid = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span store. Parents come from a per-thread stack
/// of open spans, so a span's parent is the innermost span open on the same
/// thread when it began.
class Recorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns 0 (and records nothing)
  /// while disabled. Close it with end() on the same thread.
  std::uint64_t begin(const char* name);
  void end(std::uint64_t id);
  /// Records an already-finished span under the innermost span open on the
  /// calling thread: for calls recorded only once their outcome is known.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  std::vector<Span> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Span> open_;  ///< guarded by mutex_
  std::vector<Span> closed_;            ///< guarded by mutex_
};

/// RAII span; a no-op when `recorder` is null or disabled.
class Scope {
 public:
  Scope(Recorder* recorder, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* recorder_;
  std::uint64_t id_ = 0;
};

/// A span's duration minus the part of it its direct children cover.
/// Returns span id -> self nanoseconds.
std::map<std::uint64_t, std::int64_t> self_time_ns(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events plus thread-name metadata),
/// loadable by Perfetto and chrome://tracing.
std::string chrome_trace_json(const std::vector<Span>& spans);

/// Durations (ms) of every span named `name`.
std::vector<double> span_ms(const std::vector<Span>& spans,
                            const std::string& name);

// ---------------------------------------------------------------------------
// Counters

/// One side of the wire: every call through TimedTransports sharing this
/// block. Relaxed atomics: worker and aggregator threads write concurrently.
struct WireCounters {
  explicit WireCounters(const std::string& side)
      : send_span("net." + side + ".send"),
        recv_span("net." + side + ".recv") {}
  const std::string send_span, recv_span;
  std::atomic<std::uint64_t> frames_sent{0}, frames_recv{0};
  std::atomic<std::uint64_t> bytes_sent{0}, bytes_recv{0};
  std::atomic<std::int64_t> send_ns{0}, recv_ns{0};
  std::atomic<std::uint64_t> timeouts{0}, corrupt{0}, closed{0};
  /// Worker side only: TrainJob received -> ClientUpdate sent.
  std::atomic<std::uint64_t> train_jobs{0};
  std::atomic<std::int64_t> train_ns{0};
};

/// Everything the wrappers of one federation report into.
struct Probes {
  Recorder recorder;
  WireCounters server{"server"};  ///< engine side (root of the tree)
  WireCounters worker{"worker"};  ///< training workers
  WireCounters agg_up{"agg_up"};  ///< mid-tier aggregators' uplink ends
  std::vector<double> select_ms;
  std::vector<double> dispatch_ms;
  std::vector<double> recluster_ms;
  std::vector<double> summaries_ms, distances_ms, optics_ms;
  /// Clusters per clustering, noise points counted as singletons.
  std::vector<int> cluster_counts;
  /// Jobs that came back undelivered from the dispatcher, by FailureKind
  /// (index = static_cast<int>(kind)).
  std::uint64_t undelivered[3] = {0, 0, 0};
};

// ---------------------------------------------------------------------------
// Seam wrappers

class TimedSelector final : public haccs::fl::ClientSelector {
 public:
  TimedSelector(haccs::fl::ClientSelector& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}

  void initialize(
      const std::vector<haccs::fl::ClientRuntimeInfo>& clients) override;
  std::vector<std::size_t> select(
      std::size_t k, const std::vector<haccs::fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, haccs::Rng& rng) override;
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  void report_update(std::size_t client_id, std::span<const float> update,
                     std::size_t epoch) override;
  void report_failure(std::size_t client_id, std::size_t epoch,
                      haccs::fl::FailureKind kind) override;
  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;
  std::string name() const override;

 private:
  haccs::fl::ClientSelector& inner_;
  Probes& probes_;
};

class TimedDispatcher final : public haccs::fl::RoundDispatcher {
 public:
  TimedDispatcher(haccs::fl::RoundDispatcher& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}

  void execute(std::span<const haccs::fl::TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<haccs::fl::TrainOutcome>& outcomes) override;
  const std::vector<haccs::fl::PartialAggregate>* partials() const override {
    return inner_.partials();
  }

 private:
  haccs::fl::RoundDispatcher& inner_;
  Probes& probes_;
};

/// Wraps a transport it owns. `side` receives the counts; `worker_side`
/// additionally times TrainJob -> ClientUpdate as local training.
class TimedTransport final : public haccs::net::Transport {
 public:
  TimedTransport(std::unique_ptr<haccs::net::Transport> inner,
                 WireCounters& side, Recorder& recorder, bool worker_side);

  haccs::net::TransportStatus send(const haccs::net::Frame& frame,
                                   int timeout_ms) override;
  haccs::net::TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                                       int timeout_ms) override;
  haccs::net::TransportStatus recv(haccs::net::Frame* out,
                                   int timeout_ms) override;
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  void count_status(haccs::net::TransportStatus status, int timeout_ms);

  std::unique_ptr<haccs::net::Transport> inner_;
  WireCounters& side_;
  Recorder& recorder_;
  bool worker_side_;
  std::int64_t job_start_ns_ = -1;  ///< worker side: open TrainJob
};

// The core:: pipeline, timed into `probes`.
std::vector<haccs::core::ClientSummary> timed_compute_summaries(
    Probes& probes, const haccs::data::FederatedDataset& dataset,
    const haccs::core::HaccsConfig& config);
haccs::clustering::DistanceMatrix timed_summary_distances(
    Probes& probes, const std::vector<haccs::core::ClientSummary>& summaries,
    const haccs::core::HaccsConfig& config);
std::vector<int> timed_cluster_distances(
    Probes& probes, const haccs::clustering::DistanceMatrix& distances,
    const haccs::core::HaccsConfig& config);
/// summaries -> distances -> clusters, exactly core::cluster_clients' dense
/// path, one timed call per stage.
std::vector<int> timed_cluster_clients(
    Probes& probes, const haccs::data::FederatedDataset& dataset,
    const haccs::core::HaccsConfig& config);

}  // namespace perfbench
