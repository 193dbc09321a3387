#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench/harness.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/data/partition.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/obs.hpp"
#include "src/stats/summary_codec.hpp"

namespace perfbench {

namespace core = haccs::core;
namespace data = haccs::data;
namespace fl = haccs::fl;
namespace hier = haccs::hier;
namespace net = haccs::net;

namespace {

// Sizing: a run at --seconds 25 does about 25 s of federations
// (federations_per_s counts replays). Workloads whose federations take
// 2-3.5 s play two replays rather than three, so a run still holds three to
// five seeds for the time-to-accuracy mean.
std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;

  // The paper's §V-A testbed, in process: training, the FedAvg fold and
  // evaluation do nearly all the work; net and hier are idle.
  WorkloadSpec flat;
  flat.name = "flat-train";
  // Reached between rounds 70 and 125 over 200 sub-seeds (never missed);
  // 0.93 was missed by 1 of them.
  flat.target_accuracy = 0.90;
  flat.federations_per_s = 1.0;
  out.push_back(flat);

  // §IV-C real-time adaptation at population scale: label drift followed by
  // a full P(X|y) re-cluster every 5 rounds, so stats, clustering, selection
  // and evaluation over every client dominate. 100 rounds hold 19
  // re-clusters, so the tail (10 rounds beyond it) sits in the middle of the
  // re-cluster population, not on its boundary with the ordinary rounds.
  // 500 clients keep a federation near 3 s, so a run holds six of them
  // (1000 clients fit only two, and the run-to-run spread was 15-22%).
  WorkloadSpec recluster;
  recluster.name = "select-recluster";
  recluster.clients = 500;
  recluster.rounds = 100;
  recluster.min_samples = 40;
  recluster.max_samples = 80;
  recluster.test_samples = 10;
  recluster.summary = haccs::stats::SummaryKind::Conditional;
  recluster.recluster_every = 5;
  recluster.drift_fraction = 0.05;
  recluster.target_accuracy = 0.70;
  recluster.federations_per_s = 0.25;
  recluster.replays = 2;
  out.push_back(recluster);

  // flat-train served over loopback transports on the classic serial
  // collection path: the codec, CRC and transport carry the load.
  WorkloadSpec loopback = flat;
  loopback.name = "serve-loopback";
  loopback.topology = Topology::Loopback;
  loopback.workers = 3;
  loopback.federations_per_s = 0.4;
  loopback.replays = 2;
  out.push_back(loopback);

  // flat-train through the 3-tier tree: fan-in polling, TCP, the f64
  // SubtreeChunk codec, the mid-tier fold and the gated root accumulation.
  WorkloadSpec tree = flat;
  tree.name = "serve-tree";
  tree.topology = Topology::Tree;
  tree.workers = 2;
  tree.aggs = 2;
  tree.federations_per_s = 0.25;
  tree.replays = 2;
  out.push_back(tree);
  return out;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double cpu_ms_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

haccs::bench::ExperimentConfig experiment_for(const WorkloadSpec& spec,
                                              std::uint64_t seed) {
  haccs::bench::ExperimentConfig exp;
  exp.num_clients = spec.clients;
  exp.clients_per_round = spec.per_round;
  exp.rounds = spec.rounds;
  exp.min_samples = spec.min_samples;
  exp.max_samples = spec.max_samples;
  exp.test_samples = spec.test_samples;
  exp.seed = seed;
  return exp;
}

WireTotals snapshot(const WireCounters& c) {
  WireTotals t;
  t.frames_sent = c.frames_sent.load();
  t.frames_recv = c.frames_recv.load();
  t.bytes_sent = c.bytes_sent.load();
  t.bytes_recv = c.bytes_recv.load();
  t.send_ms = static_cast<double>(c.send_ns.load()) / 1e6;
  t.recv_ms = static_cast<double>(c.recv_ns.load()) / 1e6;
  t.timeouts = c.timeouts.load();
  t.corrupt = c.corrupt.load();
  t.closed = c.closed.load();
  t.train_jobs = c.train_jobs.load();
  t.train_ms = static_cast<double>(c.train_ns.load()) / 1e6;
  return t;
}

}  // namespace

const WorkloadSpec& workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : workloads()) names.push_back(spec.name);
  return names;
}

WorkloadSpec reference_spec(const WorkloadSpec& spec) {
  WorkloadSpec ref = spec;
  if (spec.topology == Topology::Loopback) {
    ref.topology = Topology::InProcess;
  } else if (spec.topology == Topology::Tree) {
    ref.topology = Topology::Loopback;
    ref.agg_groups = spec.aggs;
  }
  return ref;
}

WorkloadSpec small_spec(const WorkloadSpec& spec) {
  WorkloadSpec small = spec;
  small.clients = spec.clients > 100 ? 120 : 20;
  small.per_round = 5;
  small.rounds = spec.recluster_every > 0 ? 2 * spec.recluster_every + 1 : 8;
  return small;
}

std::uint64_t federation_seed(std::uint64_t seed, std::size_t index) {
  return splitmix64(splitmix64(seed) + index) % 1000000007ULL;
}

RunResult best_of(std::vector<RunResult>& replays) {
  RunResult best = std::move(replays.front());
  for (std::size_t r = 1; r < replays.size(); ++r) {
    const RunResult& other = replays[r];
    best.setup_s = std::min(best.setup_s, other.setup_s);
    best.cpu_ms = std::min(best.cpu_ms, other.cpu_ms);
    const std::size_t n = std::min(best.round_ms.size(), other.round_ms.size());
    for (std::size_t i = 0; i < n; ++i) {
      best.round_ms[i] = std::min(best.round_ms[i], other.round_ms[i]);
    }
  }
  return best;
}

std::uint64_t run_digest(const fl::TrainingHistory& history,
                         const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* bytes, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (fl::RoundRecord record : history.records()) {
    record.phase = fl::PhaseTimings{};
    const std::string line = fl::round_event_json("sync", record);
    mix(line.data(), line.size());
  }
  mix(params.data(), params.size() * sizeof(float));
  return h;
}

FailureTally tally_failures(const RunResult& run) {
  FailureTally t;
  for (const fl::RoundRecord& rec : run.history.records()) {
    t.dispatched += rec.dispatched;
    t.folded += rec.selected.size();
    t.crash += rec.crashed.size();
    t.timeout += rec.late.size();
    t.rejected += rec.rejected.size();
  }
  t.corrupt = run.undelivered[static_cast<int>(fl::FailureKind::CorruptUpdate)];
  for (const std::uint64_t n : run.undelivered) t.transport_undelivered += n;
  return t;
}

// ---------------------------------------------------------------------------

struct Federation::Impl {
  Impl(const WorkloadSpec& spec_in, std::uint64_t seed_in, Wiring wiring_in,
       bool traced_in);
  ~Impl() { shutdown(); }

  bool wrapped() const { return wiring == Wiring::Wrapped; }
  /// Wraps `transport` in a TimedTransport when wrapped.
  std::unique_ptr<net::Transport> wire(std::unique_ptr<net::Transport> t,
                                       WireCounters& side, bool worker_side);
  void build_selector();
  void build_fleet(const fl::LocalWorkConfig& work);
  void build_loopback(const fl::LocalWorkConfig& work);
  void build_tree(const fl::LocalWorkConfig& work);
  void on_epoch_begin(std::size_t epoch);
  void on_round_end();
  void shutdown();

  WorkloadSpec spec;
  std::uint64_t seed;
  Wiring wiring;
  bool traced;
  Probes probes;
  haccs::bench::ExperimentConfig exp;
  data::SyntheticImageGenerator gen;
  data::FederatedDataset fed;
  std::function<haccs::nn::Sequential()> factory;
  core::HaccsConfig haccs_config;
  fl::EngineConfig engine;
  haccs::Rng drift_rng;
  std::unique_ptr<core::HaccsSelector> selector;
  std::unique_ptr<TimedSelector> timed_selector;
  std::unique_ptr<fl::RoundDispatcher> dispatcher;
  std::unique_ptr<TimedDispatcher> timed_dispatcher;
  std::unique_ptr<fl::FederatedTrainer> trainer;

  // Loopback fleet (Bare: the library's LoopbackCluster; Wrapped: the same
  // wiring assembled here so both link ends can be wrapped).
  std::unique_ptr<fl::LoopbackCluster> cluster;
  std::vector<std::unique_ptr<net::Transport>> server_ends;
  std::vector<std::unique_ptr<net::Transport>> worker_ends;
  std::vector<std::unique_ptr<fl::WorkerLoop>> loops;
  // Tree fleet.
  std::vector<std::unique_ptr<hier::MidTierAggregator>> aggs;
  std::vector<std::unique_ptr<net::Transport>> agg_ends;
  std::unique_ptr<std::atomic<bool>[]> fleet_ok;
  std::vector<std::thread> threads;
  std::size_t connection_count = 0;
  bool stopped = false;

  std::vector<double> round_ms;
  std::int64_t round_start_ns = 0;
  std::uint64_t round_span = 0;
  double generate_ms = 0.0;
};

Federation::Impl::Impl(const WorkloadSpec& spec_in, std::uint64_t seed_in,
                       Wiring wiring_in, bool traced_in)
    : spec(spec_in),
      seed(seed_in),
      wiring(wiring_in),
      traced(traced_in),
      exp(experiment_for(spec_in, seed_in)),
      gen(exp.make_generator()),
      drift_rng(seed ^ 0xd1f7ULL) {
  probes.recorder.set_enabled(traced && wrapped());
  {
    Scope span(wrapped() ? &probes.recorder : nullptr, "data.generate");
    const std::int64_t t0 = now_ns();
    haccs::Rng rng(seed);
    fed = data::partition_majority_label(gen, exp.make_partition_config(), rng);
    generate_ms = static_cast<double>(now_ns() - t0) / 1e6;
  }
  factory = core::default_model_factory(fed, 99);

  engine = exp.make_engine_config(fed);
  // Over-select by 10% and cut each round at the 0.9 quantile of the
  // dispatched latencies: every healthy round folds clients_per_round
  // updates and drops exactly its slowest client, so failed_update_frac is
  // 1/11 on a clean run and any real failure shows above it.
  engine.overcommit = 0.1;
  engine.deadline_quantile = 0.9;
  engine.on_epoch_begin = [this](std::size_t epoch) { on_epoch_begin(epoch); };
  engine.on_checkpoint = [this](std::size_t,
                                const fl::EngineConfig::RunStateFactory&) {
    on_round_end();
  };

  haccs_config.summary = spec.summary;
  build_selector();

  fl::LocalWorkConfig work;
  work.local = engine.local;
  work.compression = engine.compression;
  try {
    build_fleet(work);
  } catch (...) {
    shutdown();  // join whatever part of the fleet already started
    throw;
  }
  if (wrapped()) {
    timed_dispatcher = std::make_unique<TimedDispatcher>(*dispatcher, probes);
    engine.dispatcher = timed_dispatcher.get();
  } else {
    engine.dispatcher = dispatcher.get();
  }
  trainer = std::make_unique<fl::FederatedTrainer>(fed, factory, engine);
}

std::unique_ptr<net::Transport> Federation::Impl::wire(
    std::unique_ptr<net::Transport> t, WireCounters& side, bool worker_side) {
  if (!wrapped()) return t;
  return std::make_unique<TimedTransport>(std::move(t), side, probes.recorder,
                                          worker_side);
}

void Federation::Impl::build_selector() {
  if (wrapped()) {
    selector = std::make_unique<core::HaccsSelector>(
        timed_cluster_clients(probes, fed, haccs_config), haccs_config);
    timed_selector = std::make_unique<TimedSelector>(*selector, probes);
  } else {
    selector = std::make_unique<core::HaccsSelector>(fed, haccs_config);
  }
}

void Federation::Impl::build_fleet(const fl::LocalWorkConfig& work) {
  switch (spec.topology) {
    case Topology::InProcess:
      dispatcher =
          std::make_unique<fl::InProcessDispatcher>(fed, factory, work);
      return;
    case Topology::Loopback:
      build_loopback(work);
      return;
    case Topology::Tree:
      build_tree(work);
      return;
  }
}

void Federation::Impl::build_loopback(const fl::LocalWorkConfig& work) {
  std::vector<net::Transport*> ends;
  if (wrapped()) {
    for (std::size_t i = 0; i < spec.workers; ++i) {
      auto pair = net::make_loopback_pair();
      // The per-link chaos seed fork fl::LoopbackCluster uses, so a wrapped
      // fleet faces exactly the bare fleet's wire.
      net::ChaosOptions server_chaos = spec.chaos;
      server_chaos.seed = spec.chaos.seed ^ (0x5e2f1d03ULL * (2 * i + 1));
      net::ChaosOptions worker_chaos = spec.chaos;
      worker_chaos.seed = spec.chaos.seed ^ (0x9b4aa217ULL * (2 * i + 2));
      server_ends.push_back(
          wire(net::wrap_chaos(std::move(pair.a), server_chaos), probes.server,
               false));
      worker_ends.push_back(
          wire(net::wrap_chaos(std::move(pair.b), worker_chaos), probes.worker,
               true));
      fl::WorkerLoopConfig cfg;
      cfg.worker_id = static_cast<std::uint32_t>(i);
      loops.push_back(std::make_unique<fl::WorkerLoop>(fed, factory, cfg));
      ends.push_back(server_ends.back().get());
    }
    for (std::size_t i = 0; i < spec.workers; ++i) {
      threads.emplace_back([this, i] { loops[i]->serve(*worker_ends[i]); });
    }
  } else {
    fl::LoopbackClusterOptions options;
    options.chaos = spec.chaos;
    cluster = std::make_unique<fl::LoopbackCluster>(fed, factory, spec.workers,
                                                    options);
    ends = cluster->server_transports();
  }
  connection_count = spec.workers;
  fl::TransportDispatcherConfig config;
  config.work = work;
  config.recv_timeout_ms = spec.recv_timeout_ms;
  config.agg_groups = spec.agg_groups;
  config.max_update_norm = engine.max_update_norm;
  dispatcher = std::make_unique<fl::TransportDispatcher>(ends, config);
}

void Federation::Impl::build_tree(const fl::LocalWorkConfig& work) {
  const std::size_t num_aggs = spec.aggs;
  const std::size_t num_workers = spec.workers;
  const std::size_t per = num_workers / num_aggs;
  fleet_ok = std::make_unique<std::atomic<bool>[]>(num_aggs + num_workers);
  for (std::size_t a = 0; a < num_aggs; ++a) {
    hier::MidTierConfig config;  // haccs_agg's defaults (chunk_params too)
    config.agg_id = static_cast<std::uint32_t>(a);
    config.num_aggs = static_cast<std::uint32_t>(num_aggs);
    config.num_workers = static_cast<std::uint32_t>(num_workers);
    config.max_update_norm = engine.max_update_norm;
    aggs.push_back(std::make_unique<hier::MidTierAggregator>(config));
    auto pair = net::make_loopback_pair();
    server_ends.push_back(wire(std::move(pair.a), probes.server, false));
    agg_ends.push_back(wire(std::move(pair.b), probes.agg_up, false));
  }
  for (std::size_t a = 0; a < num_aggs; ++a) {
    threads.emplace_back(
        [this, a] { fleet_ok[a] = aggs[a]->run(*agg_ends[a]); });
  }
  for (std::size_t w = 0; w < num_workers; ++w) {
    const std::uint16_t port = aggs[w / per]->port();
    threads.emplace_back([this, w, port, num_workers, num_aggs] {
      try {
        auto transport =
            wire(net::connect_tcp("127.0.0.1", port), probes.worker, true);
        std::vector<std::uint32_t> hosted;
        for (std::size_t c = w; c < fed.clients.size(); c += num_workers) {
          hosted.push_back(static_cast<std::uint32_t>(c));
        }
        net::HelloMsg hello;
        hello.worker_id = static_cast<std::uint32_t>(w);
        hello.num_clients = static_cast<std::uint32_t>(hosted.size());
        transport->send(net::encode_hello(hello), 10000);
        for (const std::uint32_t c : hosted) {
          transport->send(
              net::encode_summary(haccs::stats::encode_summary_msg(
                  c, haccs::stats::summarize_response(fed.clients[c].train))),
              10000);
        }
        fl::WorkerLoopConfig cfg;
        cfg.worker_id = static_cast<std::uint32_t>(w);
        fl::WorkerLoop loop(fed, factory, cfg);
        fleet_ok[num_aggs + w] = loop.serve(*transport) ==
                                 fl::WorkerRunEnd::Shutdown;
      } catch (const std::exception&) {
        fleet_ok[num_aggs + w] = false;
      }
    });
  }
  connection_count = num_aggs + num_workers;

  // Root side of the handshake: each aggregator announces its subtree and
  // relays one Summary frame per client.
  std::size_t summaries = 0;
  for (std::size_t a = 0; a < num_aggs; ++a) {
    net::Frame frame;
    if (server_ends[a]->recv(&frame, 30000) != net::TransportStatus::Ok ||
        frame.type != net::MessageType::TopologyHello) {
      throw std::runtime_error("tree handshake: no TopologyHello");
    }
    const auto hello = net::decode_topology_hello(frame);
    for (std::uint32_t i = 0; i < hello.num_clients; ++i) {
      if (server_ends[a]->recv(&frame, 30000) != net::TransportStatus::Ok ||
          frame.type != net::MessageType::Summary) {
        throw std::runtime_error("tree handshake: missing Summary");
      }
      ++summaries;
    }
  }
  if (summaries != fed.clients.size()) {
    throw std::runtime_error("tree handshake: summary count mismatch");
  }

  hier::TreeDispatcherConfig config;
  config.work = work;
  config.num_workers = num_workers;
  config.max_update_norm = engine.max_update_norm;
  std::vector<net::Transport*> ends;
  for (const auto& end : server_ends) ends.push_back(end.get());
  dispatcher = std::make_unique<hier::TreeDispatcher>(ends, config);
}

void Federation::Impl::on_epoch_begin(std::size_t epoch) {
  const bool recluster = spec.recluster_every > 0 && epoch > 0 &&
                         epoch % spec.recluster_every == 0;
  // The drift is the world changing, not work the system does: it happens
  // before the round's clock starts.
  if (recluster && spec.drift_fraction > 0.0) {
    data::apply_label_drift(fed, gen, spec.drift_fraction, drift_rng);
  }
  round_start_ns = now_ns();
  round_span = probes.recorder.begin("fl.round");
  if (!recluster) return;
  if (wrapped()) {
    Scope span(&probes.recorder, "core.recluster");
    const std::int64_t t0 = now_ns();
    selector->set_clusters(timed_cluster_clients(probes, fed, haccs_config));
    probes.recluster_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  } else {
    selector->recluster(fed);
  }
}

void Federation::Impl::on_round_end() {
  round_ms.push_back(static_cast<double>(now_ns() - round_start_ns) / 1e6);
  probes.recorder.end(round_span);
}

void Federation::Impl::shutdown() {
  if (stopped) return;
  stopped = true;
  if (cluster) cluster->shutdown();
  for (auto& end : server_ends) {
    end->send(net::encode_shutdown(), 5000);
    if (spec.topology == Topology::Loopback) end->close();
  }
  for (auto& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

Federation::Federation(const WorkloadSpec& spec, std::uint64_t seed,
                       Wiring wiring, bool traced)
    : setup_start_ns_(now_ns()),
      impl_(std::make_unique<Impl>(spec, seed, wiring, traced)),
      setup_s_(static_cast<double>(now_ns() - setup_start_ns_) / 1e9) {}

Federation::~Federation() = default;

std::size_t Federation::threads_started() const {
  return impl_->spec.topology == Topology::InProcess
             ? 0
             : impl_->spec.workers + impl_->spec.aggs;
}

std::size_t Federation::connections() const { return impl_->connection_count; }

RunResult Federation::run() {
  Impl& f = *impl_;
  fl::ClientSelector& selector =
      f.timed_selector ? static_cast<fl::ClientSelector&>(*f.timed_selector)
                       : *f.selector;
  RunResult out;
  out.setup_s = setup_s_;
  out.generate_ms = f.generate_ms;

  // Phase laps (RoundRecord::phase) only exist while an obs pillar is on;
  // metrics is the cheapest one and consumes no RNG.
  haccs::obs::set_metrics_enabled(f.traced);
  const double cpu0 = cpu_ms_now();
  out.history = f.trainer->run(selector);
  out.cpu_ms = cpu_ms_now() - cpu0;
  haccs::obs::set_metrics_enabled(false);
  out.digest = run_digest(out.history, f.trainer->final_parameters());
  out.round_ms = std::move(f.round_ms);

  // Pipeline timings hold the set-up clustering first, then re-clusters.
  out.select_ms = std::move(f.probes.select_ms);
  out.dispatch_ms = std::move(f.probes.dispatch_ms);
  out.recluster_ms = std::move(f.probes.recluster_ms);
  out.summaries_ms = std::move(f.probes.summaries_ms);
  out.distances_ms = std::move(f.probes.distances_ms);
  out.optics_ms = std::move(f.probes.optics_ms);
  out.cluster_counts = std::move(f.probes.cluster_counts);
  std::memcpy(out.undelivered, f.probes.undelivered, sizeof out.undelivered);
  out.server = snapshot(f.probes.server);
  out.worker = snapshot(f.probes.worker);
  out.agg_up = snapshot(f.probes.agg_up);

  // Mid-tier stats are written by the aggregator threads: read them only
  // after the fleet has been joined.
  f.shutdown();
  for (const auto& agg : f.aggs) {
    const hier::MidTierStats& s = agg->stats();
    out.mid.rounds += s.rounds;
    out.mid.folded += s.folded;
    out.mid.rejected += s.rejected;
    out.mid.worker_failures += s.worker_failures;
    out.mid.upstream_bytes_sent += s.upstream_bytes_sent;
    out.mid.upstream_bytes_received += s.upstream_bytes_received;
  }
  if (f.fleet_ok) {
    for (std::size_t i = 0; i < f.spec.aggs + f.spec.workers; ++i) {
      if (!f.fleet_ok[i]) throw std::runtime_error("tree fleet member failed");
    }
  }
  out.spans = f.probes.recorder.spans();
  return out;
}

}  // namespace perfbench
