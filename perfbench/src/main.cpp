// perfbench — one workload of the federation benchmark per invocation.
//
//   perfbench --workload flat-train --seed 1 --seconds 10 --trace 0
//
// Runs a warm-up reference federation, then a fixed number of measured
// federations (sized from --seconds), checks correctness and prints every
// metric with its unit. The last stdout line is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 1 reports the per-layer metrics instead, from traced federations
// paired with untraced ones of the same seed, and writes a Chrome trace to
// --trace-out when given. See perfbench/README.md.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.hpp"
#include "src/common/threadpool.hpp"
#include "quantiles.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
namespace fl = haccs::fl;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload required");
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Metrics in insertion order, printed as "name value unit" lines and as
/// the final JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void print_lines() const {
    for (const Row& r : rows_) {
      std::printf("metric %-28s %.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", rows_[i].name.c_str(),
                    std::isfinite(rows_[i].value) ? rows_[i].value : -1.0,
                    rows_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

std::size_t folded(const fl::RoundRecord& r) { return r.selected.size(); }

/// Starts a new peak-RSS window: returns freed heap to the system and resets
/// the kernel's high-water mark to the current resident set. False when the
/// kernel does not allow the reset.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident memory (VmHWM) since the last reset_peak_rss, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Host CPU ticks (all CPUs) from /proc/stat: {steal, total}. Steal is time
/// the hypervisor ran other guests while this one had work; {0, 0} when
/// unreadable.
std::pair<double, double> host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0, total = 0.0, field = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return cpu == "cpu" ? std::make_pair(steal, total) : std::make_pair(0.0, 0.0);
}

/// Checks shared by every measured federation; returns "" when fine. Only
/// wrapped (traced) federations carry seam timings to account rounds with.
std::string check_run(const pb::WorkloadSpec& spec, const pb::RunResult& r,
                      bool wrapped) {
  if (r.history.records().size() != spec.rounds ||
      r.round_ms.size() != spec.rounds) {
    return "ROUND_COUNT";
  }
  if (wrapped) {
    if (r.select_ms.size() != spec.rounds ||
        r.dispatch_ms.size() != spec.rounds) {
      return "ROUND_COUNT";
    }
    // Selection and dispatch happen inside the round they belong to, so the
    // per-round residual can never be negative.
    for (std::size_t i = 0; i < spec.rounds; ++i) {
      if (r.select_ms[i] + r.dispatch_ms[i] > r.round_ms[i]) {
        return "ROUND_ACCOUNTING round " + std::to_string(i);
      }
    }
  }
  if (r.history.epochs_to_accuracy(spec.target_accuracy) == SIZE_MAX) {
    return "TARGET_NOT_REACHED";
  }
  return "";
}

void add_end_to_end(Report& report, const pb::WorkloadSpec& spec,
                    const std::vector<pb::RunResult>& runs, double peak_mb) {
  // Each figure is taken per seed (from the best of its replays) and the run
  // reports the median over its seeds: host contention also comes in
  // stretches of a few seconds, and a median keeps one that hits a minority
  // of the seeds from moving the result. The time-to-accuracy figures are
  // means instead: the round that reaches the target varies by about 13%
  // between seeds in steps of the evaluation period (5 rounds), and a median
  // over a handful of seeds jumps between those steps.
  std::vector<double> setup, rounds, tails, tta_wall, tta_sim, final_acc,
      rate, cpu_per_update;
  double tail_pct = 0.0;
  std::size_t dispatched = 0, failed = 0;
  for (const pb::RunResult& r : runs) {
    setup.push_back(r.setup_s);
    rounds.insert(rounds.end(), r.round_ms.begin(), r.round_ms.end());
    tails.push_back(pb::tail_value(r.round_ms, 10, &tail_pct));
    // A federation that misses the target fails check_run; it adds no
    // time-to-accuracy sample.
    const std::size_t hit = r.history.epochs_to_accuracy(spec.target_accuracy);
    double wall_s = -1.0, sim_s = -1.0;
    if (hit < r.round_ms.size()) {
      wall_s = 0.0;
      for (std::size_t i = 0; i <= hit; ++i) wall_s += r.round_ms[i] / 1e3;
      sim_s = r.history.time_to_accuracy(spec.target_accuracy);
      tta_wall.push_back(wall_s);
      tta_sim.push_back(sim_s);
    }
    final_acc.push_back(r.history.final_accuracy());
    const pb::FailureTally t = pb::tally_failures(r);
    const auto updates = static_cast<double>(t.folded);
    rate.push_back(updates / (pb::sum(r.round_ms) / 1e3));
    cpu_per_update.push_back(r.cpu_ms / updates);
    dispatched += t.dispatched;
    failed += t.failed();
    std::printf(
        "federation setup_s=%.4f round_ms_p50=%.4f round_ms_tail=%.4f "
        "tta_round=%lld tta_wall_s=%.4f tta_sim_s=%.3f final_accuracy=%.4f\n",
        r.setup_s, pb::median(r.round_ms), tails.back(),
        hit < r.round_ms.size() ? static_cast<long long>(hit) : -1LL, wall_s,
        sim_s, final_acc.back());
  }
  std::printf(
      "each round's wall time is the fastest of %zu replays of its seeded "
      "federation; round_ms_tail is the median over %zu federations of each "
      "one's p%.2f of %zu rounds (10 rounds beyond it); setup_s is the median "
      "of %zu best-of-%zu set-ups\n",
      spec.replays, runs.size(), tail_pct, spec.rounds, setup.size(),
      spec.replays);
  report.add("setup_s", pb::median(setup), "s");
  report.add("tta_wall_s", pb::mean(tta_wall), "s");
  report.add("round_ms_p50", pb::median(rounds), "ms");
  report.add("round_ms_tail", pb::median(tails), "ms");
  report.add("updates_per_s", pb::median(rate), "1/s");
  report.add("cpu_ms_per_update", pb::median(cpu_per_update), "ms");
  report.add("peak_rss_mb", peak_mb, "MB");
  report.add("failed_update_frac",
             static_cast<double>(failed) / static_cast<double>(dispatched),
             "fraction");
  report.add("tta_sim_s", pb::mean(tta_sim), "s");
  report.add("final_accuracy", pb::median(final_acc), "fraction");
}

void add_per_layer(Report& report, const pb::WorkloadSpec& spec,
                   const std::vector<pb::RunResult>& traced,
                   double overhead_pct) {
  std::vector<double> generate, summaries, distances, optics, select_ms,
      dispatch_ms, recluster_ms, train_ms;
  double aggregate = 0, evaluate = 0, round_total = 0, dispatch_self = 0;
  std::size_t rounds = 0, spans = 0;
  pb::FailureTally fates;
  pb::WireTotals net;  // all sides
  pb::WireTotals server, worker;
  haccs::hier::MidTierStats mid;
  const auto append = [](std::vector<double>& to,
                          const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const pb::RunResult& r : traced) {
    generate.push_back(r.generate_ms);
    append(summaries, r.summaries_ms);
    append(distances, r.distances_ms);
    append(optics, r.optics_ms);
    append(select_ms, r.select_ms);
    append(dispatch_ms, r.dispatch_ms);
    append(recluster_ms, r.recluster_ms);
    append(train_ms, pb::span_ms(r.spans, "nn.train"));
    const auto self = pb::self_time_ns(r.spans);
    for (const pb::Span& s : r.spans) {
      if (s.name == "fl.dispatch") {
        dispatch_self += static_cast<double>(self.at(s.id)) / 1e6;
      }
    }
    spans += r.spans.size();
    round_total += pb::sum(r.round_ms);
    for (const fl::RoundRecord& rec : r.history.records()) {
      ++rounds;
      aggregate += rec.phase.aggregate_ms;
      evaluate += rec.phase.evaluate_ms;
    }
    const pb::FailureTally t = pb::tally_failures(r);
    fates.dispatched += t.dispatched;
    fates.folded += t.folded;
    fates.crash += t.crash;
    fates.timeout += t.timeout;
    fates.rejected += t.rejected;
    fates.corrupt += t.corrupt;
    for (const pb::WireTotals* side : {&r.server, &r.worker, &r.agg_up}) {
      net.frames_sent += side->frames_sent;
      net.frames_recv += side->frames_recv;
      net.bytes_sent += side->bytes_sent;
      net.bytes_recv += side->bytes_recv;
      net.timeouts += side->timeouts;
      net.corrupt += side->corrupt;
      net.closed += side->closed;
    }
    server.send_ms += r.server.send_ms;
    server.recv_ms += r.server.recv_ms;
    server.bytes_recv += r.server.bytes_recv;
    worker.send_ms += r.worker.send_ms;
    worker.recv_ms += r.worker.recv_ms;
    worker.train_jobs += r.worker.train_jobs;
    worker.train_ms += r.worker.train_ms;
    mid.folded += r.mid.folded;
    mid.rejected += r.mid.rejected;
    mid.upstream_bytes_sent += r.mid.upstream_bytes_sent;
  }
  const double select_total = pb::sum(select_ms);
  const double dispatch_total = pb::sum(dispatch_ms);
  const double residual = round_total - select_total - dispatch_total;
  std::printf(
      "round accounting: wall %.1f ms = select %.1f + dispatch %.1f + "
      "residual %.1f (aggregate %.1f + evaluate %.1f + recluster %.1f + "
      "other %.1f)\n",
      round_total, select_total, dispatch_total, residual, aggregate, evaluate,
      pb::sum(recluster_ms),
      residual - aggregate - evaluate - pb::sum(recluster_ms));
  const bool tree = spec.topology == pb::Topology::Tree;
  const auto n_updates = static_cast<double>(fates.folded);
  report.add("data.generate_ms", pb::median(generate), "ms");
  report.add("stats.summaries_ms", pb::median(summaries), "ms");
  report.add("clustering.distances_ms", pb::median(distances), "ms");
  report.add("clustering.optics_ms", pb::median(optics), "ms");
  report.add("clustering.clusters",
             traced.front().cluster_counts.empty()
                 ? 0.0
                 : traced.front().cluster_counts.front(),
             "count");
  report.add("core.select_calls", static_cast<double>(select_ms.size()),
             "count");
  report.add("core.select_ms_p50", pb::median(select_ms), "ms");
  report.add("core.select_ms_total", select_total, "ms");
  report.add("core.reclusters", static_cast<double>(recluster_ms.size()),
             "count");
  report.add("core.recluster_ms_total", pb::sum(recluster_ms), "ms");
  report.add("fl.rounds", static_cast<double>(rounds), "count");
  report.add("fl.jobs", static_cast<double>(fates.dispatched), "count");
  report.add("fl.delivered_frac",
             n_updates / static_cast<double>(fates.dispatched), "fraction");
  report.add("fl.failed_crash", static_cast<double>(fates.crash), "count");
  report.add("fl.failed_timeout", static_cast<double>(fates.timeout), "count");
  report.add("fl.failed_corrupt", static_cast<double>(fates.corrupt), "count");
  report.add("fl.failed_rejected",
             static_cast<double>(fates.rejected - fates.corrupt), "count");
  report.add("fl.dispatch_ms_p50", pb::median(dispatch_ms), "ms");
  report.add("fl.dispatch_ms_total", dispatch_total, "ms");
  report.add("fl.dispatch_self_ms_total", dispatch_self, "ms");
  report.add("fl.aggregate_ms_total", aggregate, "ms");
  report.add("fl.evaluate_ms_total", evaluate, "ms");
  report.add("fl.round_ms_total", round_total, "ms");
  report.add("fl.residual_ms_total", residual, "ms");
  report.add("nn.jobs", static_cast<double>(worker.train_jobs), "count");
  report.add("nn.train_ms_p50", pb::median(train_ms), "ms");
  report.add("nn.train_ms_total", worker.train_ms, "ms");
  report.add("net.frames_sent", static_cast<double>(net.frames_sent), "count");
  report.add("net.frames_recv", static_cast<double>(net.frames_recv), "count");
  report.add("net.bytes_sent", static_cast<double>(net.bytes_sent), "bytes");
  report.add("net.bytes_recv", static_cast<double>(net.bytes_recv), "bytes");
  report.add("net.bytes_per_update",
             static_cast<double>(net.bytes_sent) / n_updates, "bytes");
  report.add("net.server_send_ms_total", server.send_ms, "ms");
  report.add("net.server_recv_ms_total", server.recv_ms, "ms");
  report.add("net.worker_send_ms_total", worker.send_ms, "ms");
  report.add("net.worker_recv_ms_total", worker.recv_ms, "ms");
  report.add("net.timeouts", static_cast<double>(net.timeouts), "count");
  report.add("net.corrupt", static_cast<double>(net.corrupt), "count");
  report.add("net.closed", static_cast<double>(net.closed), "count");
  report.add("hier.execute_ms_p50", tree ? pb::median(dispatch_ms) : 0.0, "ms");
  report.add("hier.root_recv_ms_total", tree ? server.recv_ms : 0.0, "ms");
  report.add("hier.root_bytes_recv",
             tree ? static_cast<double>(server.bytes_recv) : 0.0, "bytes");
  report.add("hier.mid_folded", static_cast<double>(mid.folded), "count");
  report.add("hier.mid_rejected", static_cast<double>(mid.rejected), "count");
  report.add("hier.mid_upstream_bytes_sent",
             static_cast<double>(mid.upstream_bytes_sent), "bytes");
  report.add("obs.spans", static_cast<double>(spans), "count");
  report.add("obs.trace_overhead_pct", overhead_pct, "%");
}

int run(const Args& args) {
  // Fleet teardown logs expected disconnects as warnings; keep stdout and
  // stderr to the results.
  haccs::set_log_level(haccs::LogLevel::Error);
  const pb::WorkloadSpec& spec = pb::workload(args.workload);
  // The work is fixed by --seconds (not timed against it), so both sides
  // of a comparison run the same federations and the same rounds.
  const auto federations = static_cast<std::size_t>(
      std::max(2.0, std::round(args.seconds * spec.federations_per_s)));
  const std::size_t seeds =
      std::max<std::size_t>(2, (federations + spec.replays / 2) / spec.replays);

  std::string mismatch;
  const auto note = [&mismatch](const std::string& what) {
    if (mismatch.empty()) mismatch = what;
    std::printf("MISMATCH %s\n", what.c_str());
  };

  // Warm-up and correctness reference: the library's plain path for the
  // first federation's seed, outside any timed region. peak_rss_mb covers
  // the measured federations only.
  const std::uint64_t seed0 = pb::federation_seed(args.seed, 0);
  const pb::RunResult reference =
      pb::Federation(pb::reference_spec(spec), seed0, pb::Wiring::Bare).run();
  if (!reset_peak_rss()) {
    std::printf("note: peak_rss_mb includes the warm-up federation "
                "(/proc/self/clear_refs not writable)\n");
  }

  // Untraced federations are the library's own objects with no wrapper
  // anywhere, so every end-to-end figure times the program itself. Traced
  // ones go through the wrappers; their digest must equal the untraced one.
  std::vector<pb::RunResult> measured;  // untraced, Wiring::Bare
  std::vector<pb::RunResult> traced;    // Wiring::Wrapped
  std::size_t threads = 0, connections = 0;
  std::size_t attempted = 0, failed_rounds = 0;
  const auto measure = [&](std::size_t i, bool with_trace) {
    pb::Federation fed(spec, pb::federation_seed(args.seed, i),
                       with_trace ? pb::Wiring::Wrapped : pb::Wiring::Bare,
                       with_trace);
    threads = fed.threads_started();
    connections = fed.connections();
    pb::RunResult r = fed.run();
    const std::string problem = check_run(spec, r, with_trace);
    if (!problem.empty()) note(problem);
    for (const fl::RoundRecord& rec : r.history.records()) {
      ++attempted;
      if (folded(rec) < spec.per_round) ++failed_rounds;
    }
    return r;
  };
  const auto ticks0 = host_ticks();
  if (!args.trace) {
    // Every seed once, then every seed again: replays of one seed lie
    // seconds apart, so a burst of host contention slows few of them.
    std::vector<std::vector<pb::RunResult>> replays(seeds);
    for (std::size_t r = 0; r < spec.replays; ++r) {
      for (std::size_t i = 0; i < seeds; ++i) {
        replays[i].push_back(measure(i, false));
        if (replays[i].back().digest != replays[i].front().digest) {
          note("replay differs from the first run of seed " +
               std::to_string(pb::federation_seed(args.seed, i)));
        }
      }
    }
    for (auto& runs : replays) measured.push_back(pb::best_of(runs));
  } else {
    // Traced and untraced federations of the same seed, alternating which
    // goes first so warm-up drift does not bias the overhead estimate.
    const std::size_t pairs = std::max<std::size_t>(2, (federations + 1) / 2);
    for (std::size_t i = 0; i < pairs; ++i) {
      if (i % 2 == 0) {
        measured.push_back(measure(i, false));
        traced.push_back(measure(i, true));
      } else {
        traced.push_back(measure(i, true));
        measured.push_back(measure(i, false));
      }
      if (measured.back().digest != traced.back().digest) {
        note("traced run differs from the untraced run of seed " +
             std::to_string(pb::federation_seed(args.seed, i)));
      }
    }
  }

  // Diagnostic only: the share of host CPU time stolen by other guests
  // while the federations ran tells a contended run from a slower program.
  const auto ticks1 = host_ticks();
  const double total_ticks = ticks1.second - ticks0.second;
  const double steal_pct =
      total_ticks > 0 ? 100.0 * (ticks1.first - ticks0.first) / total_ticks
                      : 0.0;
  const std::vector<pb::RunResult>& first = args.trace ? traced : measured;
  // measured[0] and the reference share seed0 in both modes.
  if (measured.front().digest != reference.digest) {
    note(spec.topology == pb::Topology::Loopback
             ? "serve-loopback differs from its in-process reference"
         : spec.topology == pb::Topology::Tree
             ? "serve-tree differs from flat TransportDispatcher agg_groups=" +
                   std::to_string(spec.aggs)
             : "untraced run differs from the reference run of its seed");
  }
  std::printf(
      "context {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"federations\":%zu,\"replays\":%zu,\"rounds_per_federation\":%zu,"
      "\"nproc\":%ld,"
      "\"hardware_concurrency\":%u,\"global_pool_threads\":%zu,"
      "\"bench_threads\":%zu,\"bench_connections\":%zu,\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"cxx_flags\":\"%s\",\"git_sha\":\"%s\","
      "\"host_steal_pct\":%.2f}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, first.size(),
      args.trace ? std::size_t{1} : spec.replays, spec.rounds,
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      haccs::ThreadPool::global().size(), threads, connections,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      args.git_sha.c_str(), steal_pct);

  Report report;
  if (!args.trace) {
    add_end_to_end(report, spec, measured, peak_rss_mb());
  } else {
    std::vector<double> plain, with;
    for (const auto& r : measured) {
      plain.insert(plain.end(), r.round_ms.begin(), r.round_ms.end());
    }
    for (const auto& r : traced) {
      with.insert(with.end(), r.round_ms.begin(), r.round_ms.end());
    }
    const double overhead =
        100.0 * (pb::median(with) - pb::median(plain)) / pb::median(plain);
    add_per_layer(report, spec, traced, overhead);
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out)
          << pb::chrome_trace_json(traced.front().spans);
    }
  }
  report.print_lines();
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
      mismatch.empty() ? "true" : "false", attempted, failed_rounds,
      report.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
