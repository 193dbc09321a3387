#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {

namespace hf = haccs::fl;
namespace hn = haccs::net;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Small dense thread ids for trace export (0 = first thread seen).
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Open span ids on this thread, innermost last.
std::vector<std::uint64_t>& open_stack() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}

}  // namespace

// ---------------------------------------------------------------------------
// Recorder

std::uint64_t Recorder::begin(const char* name) {
  if (!enabled()) return 0;
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto& stack = open_stack();
  span.parent = stack.empty() ? 0 : stack.back();
  span.tid = thread_index();
  span.name = name;
  span.start_ns = now_ns();
  stack.push_back(span.id);
  std::lock_guard<std::mutex> lock(mutex_);
  open_.emplace(span.id, std::move(span));
  return stack.back();
}

void Recorder::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  auto& stack = open_stack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_ns = t;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

void Recorder::add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns) {
  if (!enabled()) return;
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const auto& stack = open_stack();
  span.parent = stack.empty() ? 0 : stack.back();
  span.tid = thread_index();
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mutex_);
  closed_.push_back(std::move(span));
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

Scope::Scope(Recorder* recorder, const char* name) : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->begin(name);
}

Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->end(id_);
}

std::map<std::uint64_t, std::int64_t> self_time_ns(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> self;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the parent: overlapping
    // children (possible across threads' bookkeeping) are not double-counted.
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::int64_t origin = 0;
  std::set<std::uint32_t> tids;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    tids.insert(s.tid);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const std::uint32_t tid : tids) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s-%u\"}}",
                  first ? "" : ",", tid, tid == 0 ? "main" : "thread", tid);
    out += buf;
    first = false;
  }
  for (const Span& s : spans) {
    // Span names are the benchmark's own identifiers ([a-z_.]), so they
    // need no JSON escaping.
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  first ? "" : ",", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(), s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

std::vector<double> span_ms(const std::vector<Span>& spans,
                            const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(ms_between(s.start_ns, s.end_ns));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seam wrappers

void TimedSelector::initialize(
    const std::vector<hf::ClientRuntimeInfo>& clients) {
  inner_.initialize(clients);
}

std::vector<std::size_t> TimedSelector::select(
    std::size_t k, const std::vector<hf::ClientRuntimeInfo>& clients,
    std::size_t epoch, haccs::Rng& rng) {
  Scope span(&probes_.recorder, "core.select");
  const std::int64_t t0 = now_ns();
  auto picked = inner_.select(k, clients, epoch, rng);
  probes_.select_ms.push_back(ms_between(t0, now_ns()));
  return picked;
}

void TimedSelector::report_result(std::size_t client_id, double loss,
                                  std::size_t epoch) {
  inner_.report_result(client_id, loss, epoch);
}

void TimedSelector::report_update(std::size_t client_id,
                                  std::span<const float> update,
                                  std::size_t epoch) {
  inner_.report_update(client_id, update, epoch);
}

void TimedSelector::report_failure(std::size_t client_id, std::size_t epoch,
                                   hf::FailureKind kind) {
  inner_.report_failure(client_id, epoch, kind);
}

std::vector<std::uint8_t> TimedSelector::save_state() const {
  return inner_.save_state();
}

void TimedSelector::load_state(std::span<const std::uint8_t> state) {
  inner_.load_state(state);
}

std::string TimedSelector::name() const { return inner_.name(); }

void TimedDispatcher::execute(std::span<const hf::TrainJobSpec> jobs,
                              const std::vector<float>& global_params,
                              std::vector<hf::TrainOutcome>& outcomes) {
  {
    Scope span(&probes_.recorder, "fl.dispatch");
    const std::int64_t t0 = now_ns();
    inner_.execute(jobs, global_params, outcomes);
    probes_.dispatch_ms.push_back(ms_between(t0, now_ns()));
  }
  for (const hf::TrainJobSpec& job : jobs) {
    const hf::TrainOutcome& out = outcomes[job.slot];
    if (!out.delivered) ++probes_.undelivered[static_cast<int>(out.failure)];
  }
}

TimedTransport::TimedTransport(std::unique_ptr<hn::Transport> inner,
                               WireCounters& side, Recorder& recorder,
                               bool worker_side)
    : inner_(std::move(inner)),
      side_(side),
      recorder_(recorder),
      worker_side_(worker_side) {}

void TimedTransport::count_status(hn::TransportStatus status, int timeout_ms) {
  switch (status) {
    case hn::TransportStatus::Ok:
      break;
    case hn::TransportStatus::Timeout:
      // Short deadlines are poll slices that expire by design; only a
      // deadline of a second or more (or none) missing is a failure.
      if (timeout_ms < 0 || timeout_ms >= 1000) {
        side_.timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case hn::TransportStatus::Closed:
      side_.closed.fetch_add(1, std::memory_order_relaxed);
      break;
    case hn::TransportStatus::Corrupt:
      side_.corrupt.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

hn::TransportStatus TimedTransport::send(const hn::Frame& frame,
                                         int timeout_ms) {
  const std::int64_t t0 = now_ns();
  const auto status = inner_->send(frame, timeout_ms);
  const std::int64_t t1 = now_ns();
  side_.send_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  count_status(status, timeout_ms);
  if (status == hn::TransportStatus::Ok) {
    side_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    side_.bytes_sent.fetch_add(hn::kFrameHeaderBytes + frame.payload.size(),
                               std::memory_order_relaxed);
    recorder_.add(side_.send_span.c_str(), t0, t1);
    if (worker_side_ && frame.type == hn::MessageType::ClientUpdate &&
        job_start_ns_ >= 0) {
      side_.train_jobs.fetch_add(1, std::memory_order_relaxed);
      side_.train_ns.fetch_add(t1 - job_start_ns_, std::memory_order_relaxed);
      recorder_.add("nn.train", job_start_ns_, t1);
      job_start_ns_ = -1;
    }
  }
  return status;
}

hn::TransportStatus TimedTransport::send_raw(
    std::span<const std::uint8_t> encoded, int timeout_ms) {
  const std::int64_t t0 = now_ns();
  const auto status = inner_->send_raw(encoded, timeout_ms);
  const std::int64_t t1 = now_ns();
  side_.send_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  count_status(status, timeout_ms);
  if (status == hn::TransportStatus::Ok) {
    side_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    side_.bytes_sent.fetch_add(encoded.size(), std::memory_order_relaxed);
    recorder_.add(side_.send_span.c_str(), t0, t1);
  }
  return status;
}

hn::TransportStatus TimedTransport::recv(hn::Frame* out, int timeout_ms) {
  const std::int64_t t0 = now_ns();
  const auto status = inner_->recv(out, timeout_ms);
  const std::int64_t t1 = now_ns();
  side_.recv_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  count_status(status, timeout_ms);
  if (status == hn::TransportStatus::Ok) {
    side_.frames_recv.fetch_add(1, std::memory_order_relaxed);
    side_.bytes_recv.fetch_add(hn::kFrameHeaderBytes + out->payload.size(),
                               std::memory_order_relaxed);
    recorder_.add(side_.recv_span.c_str(), t0, t1);
    if (worker_side_ && out->type == hn::MessageType::TrainJob) {
      job_start_ns_ = t1;
    }
  }
  return status;
}

// ---------------------------------------------------------------------------
// Pipeline

std::vector<haccs::core::ClientSummary> timed_compute_summaries(
    Probes& probes, const haccs::data::FederatedDataset& dataset,
    const haccs::core::HaccsConfig& config) {
  Scope span(&probes.recorder, "stats.summaries");
  const std::int64_t t0 = now_ns();
  auto out = haccs::core::compute_summaries(dataset, config);
  probes.summaries_ms.push_back(ms_between(t0, now_ns()));
  return out;
}

haccs::clustering::DistanceMatrix timed_summary_distances(
    Probes& probes, const std::vector<haccs::core::ClientSummary>& summaries,
    const haccs::core::HaccsConfig& config) {
  Scope span(&probes.recorder, "clustering.distances");
  const std::int64_t t0 = now_ns();
  auto out =
      haccs::core::summary_distances(summaries, config.response_distance);
  probes.distances_ms.push_back(ms_between(t0, now_ns()));
  return out;
}

std::vector<int> timed_cluster_distances(
    Probes& probes, const haccs::clustering::DistanceMatrix& distances,
    const haccs::core::HaccsConfig& config) {
  Scope span(&probes.recorder, "clustering.optics");
  const std::int64_t t0 = now_ns();
  auto labels = haccs::core::cluster_distances(distances, config);
  probes.optics_ms.push_back(ms_between(t0, now_ns()));
  // Counted as HaccsSelector schedules them: noise points are singletons.
  int clusters = 0;
  for (const int l : labels) clusters = l < 0 ? clusters + 1 : clusters;
  int max_label = -1;
  for (const int l : labels) max_label = std::max(max_label, l);
  probes.cluster_counts.push_back(clusters + max_label + 1);
  return labels;
}

std::vector<int> timed_cluster_clients(
    Probes& probes, const haccs::data::FederatedDataset& dataset,
    const haccs::core::HaccsConfig& config) {
  const auto summaries = timed_compute_summaries(probes, dataset, config);
  const auto distances = timed_summary_distances(probes, summaries, config);
  return timed_cluster_distances(probes, distances, config);
}

}  // namespace perfbench
