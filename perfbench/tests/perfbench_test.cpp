// Tests for the benchmark's own layer: the seam wrappers forward every call
// unchanged, self time is computed correctly, the trace export has the
// Chrome trace-event shape, failure accounting is live, and replays fold
// into their best round times.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "src/common/logging.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fl = haccs::fl;
namespace net = haccs::net;

// Fleet start-up and teardown log at info/warn level; keep test output to
// the results.
const bool kQuietLogs = (haccs::set_log_level(haccs::LogLevel::Error), true);

// ---------------------------------------------------------------------------
// Every wrapped seam forwards every call unchanged: a run through the
// wrappers (traced, so every span and counter path executes) is
// bit-identical to the bare library run of the same seed, per workload.

class WrappedRun : public ::testing::TestWithParam<std::string> {};

TEST_P(WrappedRun, DigestEqualsBareRun) {
  const WorkloadSpec spec = small_spec(workload(GetParam()));
  const RunResult bare = Federation(spec, 17, Wiring::Bare).run();
  const RunResult wrapped =
      Federation(spec, 17, Wiring::Wrapped, /*traced=*/true).run();
  ASSERT_EQ(bare.history.records().size(), spec.rounds);
  EXPECT_EQ(wrapped.digest, bare.digest);
  EXPECT_EQ(wrapped.select_ms.size(), spec.rounds);
  EXPECT_EQ(wrapped.dispatch_ms.size(), spec.rounds);
  EXPECT_FALSE(wrapped.spans.empty());
  if (spec.recluster_every > 0) {
    EXPECT_EQ(wrapped.recluster_ms.size(),
              (spec.rounds - 1) / spec.recluster_every);
  }
}

TEST_P(WrappedRun, ReferenceMatchesWorkload) {
  const WorkloadSpec spec = small_spec(workload(GetParam()));
  const RunResult ref =
      Federation(reference_spec(spec), 23, Wiring::Bare).run();
  const RunResult run = Federation(spec, 23, Wiring::Bare).run();
  EXPECT_EQ(run.digest, ref.digest);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WrappedRun,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) c = c == '-' ? '_' : c;
                           return name;
                         });

/// Records every call it receives.
class RecordingSelector final : public fl::ClientSelector {
 public:
  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override {
    log.push_back("initialize " + std::to_string(clients.size()));
  }
  std::vector<std::size_t> select(std::size_t k,
                                  const std::vector<fl::ClientRuntimeInfo>&,
                                  std::size_t epoch, haccs::Rng& rng) override {
    log.push_back("select " + std::to_string(k) + " " + std::to_string(epoch) +
                  " " + std::to_string(rng.next_u64()));
    return {4, 2};
  }
  void report_result(std::size_t id, double loss, std::size_t epoch) override {
    log.push_back("result " + std::to_string(id) + " " + std::to_string(loss) +
                  " " + std::to_string(epoch));
  }
  void report_update(std::size_t id, std::span<const float> update,
                     std::size_t epoch) override {
    log.push_back("update " + std::to_string(id) + " " +
                  std::to_string(update.size()) + " " + std::to_string(epoch));
  }
  void report_failure(std::size_t id, std::size_t epoch,
                      fl::FailureKind kind) override {
    log.push_back("failure " + std::to_string(id) + " " +
                  std::to_string(epoch) + " " +
                  std::to_string(static_cast<int>(kind)));
  }
  std::vector<std::uint8_t> save_state() const override { return {7, 8}; }
  void load_state(std::span<const std::uint8_t> state) override {
    log.push_back("load " + std::to_string(state.size()));
  }
  std::string name() const override { return "recording"; }

  std::vector<std::string> log;
};

TEST(Wrappers, SelectorForwardsEveryCall) {
  RecordingSelector inner;
  Probes probes;
  TimedSelector timed(inner, probes);
  haccs::Rng rng(3);
  timed.initialize(std::vector<fl::ClientRuntimeInfo>(5));
  EXPECT_EQ(timed.select(2, {}, 9, rng), (std::vector<std::size_t>{4, 2}));
  timed.report_result(4, 0.5, 9);
  const std::vector<float> update(3);
  timed.report_update(2, update, 9);
  timed.report_failure(1, 9, fl::FailureKind::Timeout);
  EXPECT_EQ(timed.save_state(), (std::vector<std::uint8_t>{7, 8}));
  const std::vector<std::uint8_t> blob(4);
  timed.load_state(blob);
  EXPECT_EQ(timed.name(), "recording");

  haccs::Rng expected_rng(3);
  const std::vector<std::string> expected = {
      "initialize 5",
      "select 2 9 " + std::to_string(expected_rng.next_u64()),
      "result 4 " + std::to_string(0.5) + " 9",
      "update 2 3 9",
      "failure 1 9 1",
      "load 4"};
  EXPECT_EQ(inner.log, expected);
  EXPECT_EQ(probes.select_ms.size(), 1u);
}

TEST(Wrappers, TransportForwardsFramesAndCountsWireBytes) {
  Probes probes;
  probes.recorder.set_enabled(true);
  auto pair = net::make_loopback_pair();
  TimedTransport server(std::move(pair.a), probes.server, probes.recorder,
                        /*worker_side=*/false);
  TimedTransport worker(std::move(pair.b), probes.worker, probes.recorder,
                        /*worker_side=*/true);

  net::Frame job;
  job.type = net::MessageType::TrainJob;
  job.payload = {1, 2, 3, 4, 5};
  ASSERT_EQ(server.send(job, 1000), net::TransportStatus::Ok);
  net::Frame got;
  ASSERT_EQ(worker.recv(&got, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(got.type, job.type);
  EXPECT_EQ(got.payload, job.payload);

  net::Frame update;
  update.type = net::MessageType::ClientUpdate;
  update.payload.assign(100, 9);
  ASSERT_EQ(worker.send(update, 1000), net::TransportStatus::Ok);
  ASSERT_EQ(server.recv(&got, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(got.payload, update.payload);
  EXPECT_EQ(server.recv(&got, 10), net::TransportStatus::Timeout);

  EXPECT_EQ(probes.server.bytes_sent.load(), net::kFrameHeaderBytes + 5);
  EXPECT_EQ(probes.worker.bytes_recv.load(), net::kFrameHeaderBytes + 5);
  EXPECT_EQ(probes.worker.bytes_sent.load(), net::kFrameHeaderBytes + 100);
  EXPECT_EQ(probes.server.bytes_recv.load(), net::kFrameHeaderBytes + 100);
  EXPECT_EQ(probes.server.timeouts.load(), 0u) << "a 10 ms poll is no failure";
  EXPECT_EQ(probes.worker.train_jobs.load(), 1u);
  EXPECT_EQ(span_ms(probes.recorder.spans(), "nn.train").size(), 1u);

  server.close();
  EXPECT_EQ(worker.recv(&got, 1000), net::TransportStatus::Closed);
  EXPECT_EQ(probes.worker.closed.load(), 1u);
}

// ---------------------------------------------------------------------------
// Self time and trace export

Span make_span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
               std::int64_t end, std::uint32_t tid = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.tid = tid;
  s.name = "t.span" + std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SyntheticTree) {
  // root [0,100): children a [10,40) and b [30,60) overlap; c [90,120)
  // overruns the root and is clipped; a has a child [15,20).
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 100),  make_span(2, 1, 10, 40),
      make_span(3, 1, 30, 60),  make_span(4, 2, 15, 20),
      make_span(5, 1, 90, 120), make_span(6, 0, 200, 230, 1)};
  const auto self = self_time_ns(spans);
  EXPECT_EQ(self.at(1), 100 - 50 - 10);  // union [10,60) + [90,100)
  EXPECT_EQ(self.at(2), 30 - 5);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 5);
  EXPECT_EQ(self.at(5), 30);
  EXPECT_EQ(self.at(6), 30);
}

TEST(SelfTime, RecorderNestsScopesPerThread) {
  Recorder recorder;
  recorder.set_enabled(true);
  {
    Scope outer(&recorder, "t.outer");
    { Scope inner(&recorder, "t.inner"); }
    recorder.add("t.added", now_ns(), now_ns());
    std::thread([&] { Scope other(&recorder, "t.other"); }).join();
  }
  { Scope off(nullptr, "t.none"); }
  recorder.set_enabled(false);
  { Scope skipped(&recorder, "t.skipped"); }

  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  const auto find = [&](const std::string& name) {
    for (const Span& s : spans) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << name;
    return Span{};
  };
  const Span outer = find("t.outer");
  EXPECT_EQ(find("t.inner").parent, outer.id);
  EXPECT_EQ(find("t.added").parent, outer.id);
  EXPECT_EQ(find("t.other").parent, 0u) << "parents never cross threads";
  EXPECT_NE(find("t.other").tid, outer.tid);
  EXPECT_LE(self_time_ns(spans).at(outer.id), outer.end_ns - outer.start_ns);
}

TEST(Trace, ChromeTraceEventShape) {
  const std::vector<Span> spans = {make_span(1, 0, 1000, 5000),
                                   make_span(2, 1, 2000, 3000),
                                   make_span(3, 0, 1500, 2500, 2)};
  const std::string json = chrome_trace_json(spans);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"X\""), 3u);
  EXPECT_EQ(count("\"ph\":\"M\""), 2u);  // one thread_name per thread
  // Microsecond timestamps relative to the earliest span.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":4.000"), std::string::npos);
  EXPECT_NE(
      json.find("\"ts\":1.000,\"dur\":1.000,\"args\":{\"id\":2,\"parent\":1}"),
      std::string::npos);
}

// ---------------------------------------------------------------------------
// Failure accounting is live: with a chaotic wire the failures show up in
// failed_update_frac above the designed deadline cut (one per round), and
// the RoundRecord tally agrees with what the dispatcher seam saw.

TEST(Failures, ChaosLoopbackFailuresAreCounted) {
  WorkloadSpec spec = small_spec(workload("serve-loopback"));
  spec.chaos.corrupt_rate = 0.1;
  spec.chaos.seed = 5;
  spec.recv_timeout_ms = 300;
  const RunResult run = Federation(spec, 31, Wiring::Wrapped).run();
  const FailureTally t = tally_failures(run);

  const double designed = static_cast<double>(spec.rounds) /
                          static_cast<double>(t.dispatched);
  EXPECT_GT(t.failed_frac(), designed);
  EXPECT_EQ(t.failed_frac(),
            static_cast<double>(run.history.total_wasted()) /
                static_cast<double>(run.history.total_dispatched()));
  // Every failure beyond the deadline cuts came back through the transport.
  EXPECT_GT(t.transport_undelivered, 0u);
  EXPECT_EQ(t.failed(), spec.rounds + t.transport_undelivered);
  EXPECT_EQ(t.folded + t.failed(), t.dispatched);
  EXPECT_GT(run.server.corrupt + run.worker.corrupt, 0u);
}

TEST(Failures, CleanRunFailsOnlyTheDeadlineCut) {
  const WorkloadSpec spec = small_spec(workload("serve-loopback"));
  const FailureTally t =
      tally_failures(Federation(spec, 31, Wiring::Wrapped).run());
  EXPECT_EQ(t.failed(), spec.rounds);
  EXPECT_EQ(t.timeout, spec.rounds);
  EXPECT_EQ(t.transport_undelivered, 0u);
}

// Untraced runs report the best of R replays of each seeded federation: the
// replays must do identical work, and the fold must keep each round's
// fastest time, not one replay's.

TEST(Replays, BestOfKeepsEachRoundsFastestTime) {
  std::vector<RunResult> replays(3);
  replays[0].round_ms = {3.0, 5.0, 4.0};
  replays[1].round_ms = {4.0, 2.0, 4.5};
  replays[2].round_ms = {3.5, 6.0, 1.0};
  const double setup[] = {0.2, 0.1, 0.3}, cpu[] = {10.0, 12.0, 11.0};
  for (std::size_t r = 0; r < replays.size(); ++r) {
    replays[r].setup_s = setup[r];
    replays[r].cpu_ms = cpu[r];
    replays[r].digest = 7;
  }
  const RunResult best = best_of(replays);
  EXPECT_EQ(best.round_ms, (std::vector<double>{3.0, 2.0, 1.0}));
  EXPECT_EQ(best.setup_s, 0.1);
  EXPECT_EQ(best.cpu_ms, 10.0);
  EXPECT_EQ(best.digest, 7u);
}

TEST(Replays, ReplaysOfOneSeedAreIdentical) {
  const WorkloadSpec spec = small_spec(workload("flat-train"));
  std::vector<RunResult> replays;
  for (int r = 0; r < 2; ++r) {
    replays.push_back(Federation(spec, 17, Wiring::Bare).run());
  }
  ASSERT_EQ(replays[0].digest, replays[1].digest);
  const std::vector<double> a = replays[0].round_ms, b = replays[1].round_ms;
  const RunResult best = best_of(replays);
  ASSERT_EQ(best.round_ms.size(), spec.rounds);
  for (std::size_t i = 0; i < spec.rounds; ++i) {
    EXPECT_EQ(best.round_ms[i], std::min(a[i], b[i]));
  }
}

}  // namespace
}  // namespace perfbench
