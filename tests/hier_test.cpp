// Tests for the hierarchical aggregation tree (DESIGN.md §5j): the FanInServer
// poll/epoll fan-in endpoint (round trips, 256 concurrent peers, slow-peer
// shedding, connection caps), the tree wire codecs, the 3-tier
// root→aggregator→worker pipeline's bit-identity with the flat grouped
// dispatcher, salvage on aggregator loss, StatusServer request parsing, and
// the live join/leave re-cluster tracker.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/haccs_config.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/live_recluster.hpp"
#include "src/core/pipeline.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/fanin.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/status.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/select/random_selector.hpp"
#include "src/serve/session.hpp"

namespace haccs {
namespace {

data::FederatedDataset make_fed(std::size_t clients = 8) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(4);
  cfg.height = 10;
  cfg.width = 10;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 40;
  pcfg.max_samples = 80;
  pcfg.test_samples = 12;
  Rng rng(19);
  return data::partition_majority_label(gen, pcfg, rng);
}

fl::EngineConfig make_engine(std::size_t rounds = 3) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 3;
  cfg.eval_every = 3;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 23;
  return cfg;
}

std::string record_json_no_phase(const fl::RoundRecord& record) {
  fl::RoundRecord copy = record;
  copy.phase = fl::PhaseTimings{};
  return fl::round_event_json("sync", copy);
}

// ---------------------------------------------------------------------------
// HierFanIn: the poll/epoll fan-in server

/// Pumps the server until one event arrives (asserting progress) — accepts,
/// reads, and flushes happen inside poll().
net::FanInEvent pump_for_event(net::FanInServer& server, int budget_ms = 5000) {
  net::FanInEvent ev;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.poll(&ev, 20)) return ev;
  }
  ADD_FAILURE() << "no FanIn event within " << budget_ms << " ms";
  return ev;
}

TEST(HierFanIn, HelloRoundTripEcho) {
  net::FanInServer server(net::FanInOptions{});
  auto client = net::connect_tcp("127.0.0.1", server.port());

  ASSERT_EQ(client->send(net::encode_hello({.worker_id = 7, .num_clients = 2}),
                         2000),
            net::TransportStatus::Ok);

  const auto accepted = pump_for_event(server);
  ASSERT_EQ(accepted.kind, net::FanInEvent::Kind::Accepted);
  const std::uint64_t conn = accepted.conn;
  EXPECT_EQ(server.connection_count(), 1u);
  EXPECT_FALSE(server.peer_name(conn).empty());

  const auto framed = pump_for_event(server);
  ASSERT_EQ(framed.kind, net::FanInEvent::Kind::Frame);
  EXPECT_EQ(framed.conn, conn);
  const net::HelloMsg hello = net::decode_hello(framed.frame);
  EXPECT_EQ(hello.worker_id, 7u);
  EXPECT_EQ(hello.num_clients, 2u);

  // Echo it back; flushing happens inside subsequent poll() calls, so pump
  // the server between client receive attempts (one thread drives both).
  ASSERT_TRUE(server.send(conn, framed.frame));
  net::Frame back;
  auto status = net::TransportStatus::Timeout;
  for (int i = 0; i < 200 && status == net::TransportStatus::Timeout; ++i) {
    net::FanInEvent ev;
    server.poll(&ev, 10);
    status = client->recv(&back, 10);
  }
  ASSERT_EQ(status, net::TransportStatus::Ok);
  const net::HelloMsg echoed = net::decode_hello(back);
  EXPECT_EQ(echoed.worker_id, 7u);
}

// The §5j acceptance bar: hundreds of concurrent connections through one
// poll loop with no frame loss.
TEST(HierFanIn, TwoHundredFiftySixConnectionsNoFrameLoss) {
  constexpr std::size_t kPeers = 256;
  net::FanInServer server(net::FanInOptions{});

  std::vector<std::unique_ptr<net::Transport>> clients;
  clients.reserve(kPeers);
  std::set<std::uint32_t> seen;
  std::size_t accepted = 0;
  auto drain = [&](int timeout_ms) {
    net::FanInEvent ev;
    while (server.poll(&ev, timeout_ms)) {
      if (ev.kind == net::FanInEvent::Kind::Accepted) ++accepted;
      if (ev.kind == net::FanInEvent::Kind::Frame) {
        seen.insert(net::decode_hello(ev.frame).worker_id);
      }
    }
  };

  // Interleave connects with polling so the accept backlog never overflows.
  for (std::size_t i = 0; i < kPeers; ++i) {
    clients.push_back(net::connect_tcp("127.0.0.1", server.port()));
    ASSERT_EQ(clients.back()->send(
                  net::encode_hello({.worker_id = static_cast<std::uint32_t>(i),
                                     .num_clients = 1}),
                  2000),
              net::TransportStatus::Ok);
    drain(0);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < kPeers &&
         std::chrono::steady_clock::now() < deadline) {
    drain(20);
  }

  EXPECT_EQ(server.connection_count(), kPeers);
  EXPECT_EQ(accepted, kPeers);
  ASSERT_EQ(seen.size(), kPeers);  // every frame delivered, none lost
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), kPeers - 1);
}

TEST(HierFanIn, SlowPeerIsShedAtOutboundCap) {
  net::FanInOptions options;
  options.max_outbound_frames = 4;
  net::FanInServer server(options);

  // The peer connects and then never reads.
  auto client = net::connect_tcp("127.0.0.1", server.port());
  const auto accepted = pump_for_event(server);
  ASSERT_EQ(accepted.kind, net::FanInEvent::Kind::Accepted);
  const std::uint64_t conn = accepted.conn;

  // Large frames (256 KiB of params) fill the socket buffer, then the
  // outbound queue, then trip the cap: send() returns false exactly once at
  // the shed point.
  net::TrainJobMsg big;
  big.params.assign(65536, 1.5f);
  const net::Frame frame = net::encode_train_job(big);
  bool shed_on_send = false;
  for (int i = 0; i < 64 && !shed_on_send; ++i) {
    if (!server.send(conn, frame)) {
      shed_on_send = true;
      break;
    }
    net::FanInEvent ev;
    server.poll(&ev, 5);  // attempt a flush between sends
  }
  ASSERT_TRUE(shed_on_send) << "outbound cap never tripped";

  // The next poll surfaces the shed as a Closed event, and the connection
  // id is gone for good (ids are never recycled).
  net::FanInEvent ev;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool closed = false;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    if (!server.poll(&ev, 20)) continue;
    if (ev.kind == net::FanInEvent::Kind::Closed && ev.conn == conn) {
      EXPECT_TRUE(ev.shed);
      closed = true;
    }
  }
  ASSERT_TRUE(closed);
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_FALSE(server.send(conn, frame));
  EXPECT_EQ(server.outbound_queued(conn), 0u);
}

TEST(HierFanIn, ConnectionCapClosesExcessPeers) {
  net::FanInOptions options;
  options.max_connections = 2;
  net::FanInServer server(options);

  auto first = net::connect_tcp("127.0.0.1", server.port());
  auto second = net::connect_tcp("127.0.0.1", server.port());
  auto third = net::connect_tcp("127.0.0.1", server.port());

  // Pump the server; the third peer must observe a close, and the server
  // must hold exactly two connections.
  net::Frame frame;
  auto status = net::TransportStatus::Timeout;
  for (int i = 0; i < 200 && status == net::TransportStatus::Timeout; ++i) {
    net::FanInEvent ev;
    server.poll(&ev, 10);
    status = third->recv(&frame, 10);
  }
  EXPECT_EQ(status, net::TransportStatus::Closed);
  EXPECT_EQ(server.connection_count(), 2u);
}

// ---------------------------------------------------------------------------
// HierCodec: tree wire messages

TEST(HierCodec, TopologyHelloRoundTrip) {
  net::TopologyHelloMsg msg;
  msg.agg_id = 3;
  msg.num_aggs = 8;
  msg.worker_begin = 96;
  msg.worker_end = 128;
  msg.num_clients = 4096;
  const net::TopologyHelloMsg back =
      net::decode_topology_hello(net::encode_topology_hello(msg));
  EXPECT_EQ(back.agg_id, 3u);
  EXPECT_EQ(back.num_aggs, 8u);
  EXPECT_EQ(back.worker_begin, 96u);
  EXPECT_EQ(back.worker_end, 128u);
  EXPECT_EQ(back.num_clients, 4096u);
}

TEST(HierCodec, SubtreeChunkRoundTripPreservesBits) {
  net::SubtreeChunkMsg msg;
  msg.epoch = 41;
  msg.agg_id = 2;
  msg.offset = 16384;
  // Edge-case doubles: the fold must be bit-exact, so the codec must be too.
  msg.data = {-0.0, 4.9406564584124654e-324, 1.0 / 3.0,
              -1.7976931348623157e308, 42.0};
  const net::SubtreeChunkMsg back =
      net::decode_subtree_chunk(net::encode_subtree_chunk(msg));
  EXPECT_EQ(back.epoch, 41u);
  EXPECT_EQ(back.agg_id, 2u);
  EXPECT_EQ(back.offset, 16384u);
  ASSERT_EQ(back.data.size(), msg.data.size());
  EXPECT_EQ(std::memcmp(back.data.data(), msg.data.data(),
                        msg.data.size() * sizeof(double)),
            0);
}

TEST(HierCodec, SubtreeUpdateRoundTrip) {
  net::SubtreeUpdateMsg msg;
  msg.epoch = 7;
  msg.agg_id = 1;
  msg.weight = 123.0;
  msg.n_chunks = 9;
  net::SubtreeClientStat ok;
  ok.client_id = 11;
  ok.delivered = 1;
  ok.average_loss = 0.625;
  ok.final_loss = 0.5;
  ok.batches = 17;
  ok.sample_count = 64;
  net::SubtreeClientStat failed;
  failed.client_id = 15;
  failed.delivered = 0;
  failed.failure = static_cast<std::uint8_t>(fl::FailureKind::Timeout);
  msg.stats = {ok, failed};

  const net::SubtreeUpdateMsg back =
      net::decode_subtree_update(net::encode_subtree_update(msg));
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.agg_id, 1u);
  EXPECT_EQ(back.weight, 123.0);
  EXPECT_EQ(back.n_chunks, 9u);
  ASSERT_EQ(back.stats.size(), 2u);
  EXPECT_EQ(back.stats[0].client_id, 11u);
  EXPECT_EQ(back.stats[0].delivered, 1);
  EXPECT_EQ(back.stats[0].average_loss, 0.625);
  EXPECT_EQ(back.stats[0].final_loss, 0.5);
  EXPECT_EQ(back.stats[0].batches, 17u);
  EXPECT_EQ(back.stats[0].sample_count, 64u);
  EXPECT_EQ(back.stats[1].client_id, 15u);
  EXPECT_EQ(back.stats[1].delivered, 0);
  EXPECT_EQ(back.stats[1].failure,
            static_cast<std::uint8_t>(fl::FailureKind::Timeout));
}

// ---------------------------------------------------------------------------
// HierTree: the full 3-tier pipeline

/// An in-process 3-tier federation: the root talks to `aggs` MidTierAggregator
/// threads over loopback pairs; each aggregator fronts its slice of `workers`
/// WorkerLoop threads over real TCP through its FanInServer.
struct TreeHarness {
  TreeHarness(const data::FederatedDataset& fed,
              std::function<nn::Sequential()> factory, std::size_t num_aggs,
              std::size_t num_workers, const fl::EngineConfig& engine)
      : num_workers_(num_workers) {
    const std::size_t per = num_workers / num_aggs;
    for (std::size_t a = 0; a < num_aggs; ++a) {
      hier::MidTierConfig config;
      config.agg_id = static_cast<std::uint32_t>(a);
      config.num_aggs = static_cast<std::uint32_t>(num_aggs);
      config.num_workers = static_cast<std::uint32_t>(num_workers);
      // Small chunks force multi-chunk settles, exercising the root's
      // gated out-of-order fold rather than a trivial one-chunk path.
      config.chunk_params = 64;
      config.max_update_norm = engine.max_update_norm;
      config.round_timeout_ms = 60000;
      aggs_.push_back(std::make_unique<hier::MidTierAggregator>(config));
      pairs_.push_back(net::make_loopback_pair());
    }
    for (std::size_t a = 0; a < num_aggs; ++a) {
      threads_.emplace_back([this, a] {
        agg_ok_[a] = aggs_[a]->run(*pairs_[a].b);
      });
    }
    for (std::size_t w = 0; w < num_workers; ++w) {
      threads_.emplace_back([this, &fed, factory, w, per] {
        auto transport =
            net::connect_tcp("127.0.0.1", aggs_[w / per]->port());
        serve::send_session_handshake(
            *transport, fed, static_cast<std::uint32_t>(w),
            static_cast<std::uint32_t>(num_workers_));
        fl::WorkerLoopConfig config;
        config.worker_id = static_cast<std::uint32_t>(w);
        fl::WorkerLoop loop(fed, factory, config);
        loop.serve(*transport);
      });
    }
  }

  /// Root side of the handshake: each aggregator announces its subtree with
  /// TopologyHello and relays its workers' Summary frames.
  void drain_handshakes(std::size_t expected_clients) {
    const std::size_t per = num_workers_ / aggs_.size();
    std::size_t total = 0;
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      net::Frame frame;
      ASSERT_EQ(pairs_[a].a->recv(&frame, 30000), net::TransportStatus::Ok);
      ASSERT_EQ(frame.type, net::MessageType::TopologyHello);
      const net::TopologyHelloMsg hello = net::decode_topology_hello(frame);
      EXPECT_EQ(hello.agg_id, a);
      EXPECT_EQ(hello.num_aggs, aggs_.size());
      EXPECT_EQ(hello.worker_begin, a * per);
      EXPECT_EQ(hello.worker_end, (a + 1) * per);
      for (std::uint32_t i = 0; i < hello.num_clients; ++i) {
        ASSERT_EQ(pairs_[a].a->recv(&frame, 30000), net::TransportStatus::Ok);
        ASSERT_EQ(frame.type, net::MessageType::Summary);
        ++total;
      }
    }
    EXPECT_EQ(total, expected_clients);
  }

  std::vector<net::Transport*> root_transports() const {
    std::vector<net::Transport*> out;
    for (const auto& pair : pairs_) out.push_back(pair.a.get());
    return out;
  }

  void shutdown_and_join() {
    for (auto& pair : pairs_) pair.a->send(net::encode_shutdown(), 5000);
    for (auto& thread : threads_) thread.join();
    threads_.clear();
  }

  ~TreeHarness() {
    if (!threads_.empty()) shutdown_and_join();
  }

  std::size_t num_workers_;
  std::vector<std::unique_ptr<hier::MidTierAggregator>> aggs_;
  std::vector<net::LoopbackPair> pairs_;
  std::vector<std::thread> threads_;
  bool agg_ok_[8] = {};
};

// The PR's headline acceptance criterion: a 3-tier run (root + 2 aggregators
// + 4 workers) is bit-identical to the flat dispatcher running with
// agg_groups = 2 — per-round JSON byte equality AND bitwise-equal final
// parameters. (Grouped-flat vs classic-flat differ in f64 fold association;
// the pinned §5j guarantee is tree ≡ grouped-flat.)
TEST(HierTree, ThreeTierRunBitIdenticalToGroupedFlat) {
  const auto fed = make_fed();
  const auto factory = core::default_model_factory(fed, 99);

  auto run = [&](bool tree) {
    fl::EngineConfig engine = make_engine(3);
    std::vector<float> final_params;
    engine.on_checkpoint = [&](std::size_t,
                               const fl::EngineConfig::RunStateFactory& make) {
      final_params = make().global_params;
    };

    std::vector<std::string> lines;
    if (tree) {
      TreeHarness harness(fed, factory, /*num_aggs=*/2, /*num_workers=*/4,
                          engine);
      harness.drain_handshakes(fed.clients.size());

      hier::TreeDispatcherConfig config;
      config.work.local = engine.local;
      config.work.compression = engine.compression;
      config.num_workers = 4;
      config.recv_timeout_ms = 120000;
      config.max_update_norm = engine.max_update_norm;
      hier::TreeDispatcher dispatcher(harness.root_transports(), config);
      engine.dispatcher = &dispatcher;

      fl::FederatedTrainer trainer(fed, factory, engine);
      select::RandomSelector selector;
      const auto history = trainer.run(selector);
      for (const auto& record : history.records()) {
        lines.push_back(record_json_no_phase(record));
      }
      harness.shutdown_and_join();
      EXPECT_TRUE(harness.agg_ok_[0]);
      EXPECT_TRUE(harness.agg_ok_[1]);
    } else {
      fl::LoopbackCluster cluster(fed, factory, 4);
      fl::TransportDispatcherConfig config;
      config.work.local = engine.local;
      config.work.compression = engine.compression;
      config.recv_timeout_ms = 120000;
      config.agg_groups = 2;
      config.max_update_norm = engine.max_update_norm;
      fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
      engine.dispatcher = &dispatcher;

      fl::FederatedTrainer trainer(fed, factory, engine);
      select::RandomSelector selector;
      const auto history = trainer.run(selector);
      for (const auto& record : history.records()) {
        lines.push_back(record_json_no_phase(record));
      }
    }
    return std::make_pair(lines, final_params);
  };

  const auto [flat_lines, flat_params] = run(/*tree=*/false);
  const auto [tree_lines, tree_params] = run(/*tree=*/true);

  ASSERT_EQ(tree_lines.size(), flat_lines.size());
  for (std::size_t r = 0; r < tree_lines.size(); ++r) {
    EXPECT_EQ(tree_lines[r], flat_lines[r]) << "round " << r;
  }
  ASSERT_EQ(tree_params.size(), flat_params.size());
  ASSERT_FALSE(tree_params.empty());
  EXPECT_EQ(std::memcmp(tree_params.data(), flat_params.data(),
                        flat_params.size() * sizeof(float)),
            0);
}

// Guard-rail for ROADMAP's "non-Dense partial folds" item: the mid tier
// folds Dense only, so a TopK/Int8 client update reaching it must come back
// as a clean per-client rejection — counted in the round's waste accounting
// — never a silent mis-fold into the subtree partial.
TEST(HierTree, MidTierRejectsNonDenseUpdates) {
  const auto fed = make_fed();
  const auto factory = core::default_model_factory(fed, 99);
  for (const auto kind :
       {fl::CompressionKind::TopK, fl::CompressionKind::Int8}) {
    fl::EngineConfig engine = make_engine(2);
    engine.compression.kind = kind;

    TreeHarness harness(fed, factory, /*num_aggs=*/2, /*num_workers=*/4,
                        engine);
    harness.drain_handshakes(fed.clients.size());

    hier::TreeDispatcherConfig config;
    config.work.local = engine.local;
    config.work.compression = engine.compression;
    config.num_workers = 4;
    config.recv_timeout_ms = 120000;
    config.max_update_norm = engine.max_update_norm;
    hier::TreeDispatcher dispatcher(harness.root_transports(), config);
    engine.dispatcher = &dispatcher;

    fl::FederatedTrainer trainer(fed, factory, engine);
    select::RandomSelector selector;
    const auto history = trainer.run(selector);
    harness.shutdown_and_join();

    ASSERT_FALSE(history.records().empty());
    for (const auto& record : history.records()) {
      EXPECT_GT(record.dispatched, 0u);
      EXPECT_TRUE(record.selected.empty())
          << "a non-Dense update was folded (kind "
          << static_cast<int>(kind) << ", epoch " << record.epoch << ")";
      EXPECT_EQ(record.rejected.size(), record.dispatched);
      EXPECT_EQ(record.wasted(), record.dispatched);
    }
    // Nothing ever folded, so the global model must still be bit-identical
    // to its initialization.
    const auto initial = factory().get_parameters();
    const auto& final_params = trainer.final_parameters();
    ASSERT_EQ(final_params.size(), initial.size());
    EXPECT_EQ(std::memcmp(final_params.data(), initial.data(),
                          initial.size() * sizeof(float)),
              0);
  }
}

/// Emulates one mid-tier aggregator for a single round: receives the
/// SelectNotice + TrainJobs, then settles with one chunk + trailer where
/// every client "trained" to params + 1.
void emulate_agg_round(net::Transport& transport, std::uint32_t agg_id) {
  net::Frame frame;
  ASSERT_EQ(transport.recv(&frame, 10000), net::TransportStatus::Ok);
  ASSERT_EQ(frame.type, net::MessageType::SelectNotice);
  const net::SelectNoticeMsg notice = net::decode_select_notice(frame);

  std::vector<float> params;
  for (std::size_t i = 0; i < notice.clients.size(); ++i) {
    ASSERT_EQ(transport.recv(&frame, 10000), net::TransportStatus::Ok);
    ASSERT_EQ(frame.type, net::MessageType::TrainJob);
    params = net::decode_train_job(frame).params;
  }

  net::SubtreeChunkMsg chunk;
  chunk.epoch = notice.epoch;
  chunk.agg_id = agg_id;
  chunk.offset = 0;
  const double weight = 10.0 * notice.clients.size();
  for (const float p : params) {
    chunk.data.push_back(weight * (static_cast<double>(p) + 1.0));
  }
  ASSERT_EQ(transport.send(net::encode_subtree_chunk(chunk), 10000),
            net::TransportStatus::Ok);

  net::SubtreeUpdateMsg update;
  update.epoch = notice.epoch;
  update.agg_id = agg_id;
  update.weight = weight;
  update.n_chunks = 1;
  for (const std::uint32_t c : notice.clients) {
    net::SubtreeClientStat stat;
    stat.client_id = c;
    stat.delivered = 1;
    stat.sample_count = 10;
    stat.batches = 1;
    update.stats.push_back(stat);
  }
  ASSERT_EQ(transport.send(net::encode_subtree_update(update), 10000),
            net::TransportStatus::Ok);
}

// An aggregator that dies before contributing anything is salvaged: its
// slots fail as Crash, the surviving subtree's round still commits.
TEST(HierTree, DeadAggregatorIsSalvagedNotTorn) {
  obs::set_metrics_enabled(true);
  auto live = net::make_loopback_pair();
  auto dead = net::make_loopback_pair();

  const double salvaged_before =
      obs::Registry::global().counter("hier_aggs_salvaged_total").value();

  hier::TreeDispatcherConfig config;
  config.num_workers = 4;
  config.recv_timeout_ms = 10000;
  hier::TreeDispatcher dispatcher({live.a.get(), dead.a.get()}, config);

  std::thread agg([&] { emulate_agg_round(*live.b, 0); });
  // Aggregator 1 accepts its round and then dies before contributing a
  // single chunk — the salvage case (vs the torn case after contributing).
  std::thread dying([&] {
    net::Frame frame;
    dead.b->recv(&frame, 10000);  // SelectNotice
    dead.b->recv(&frame, 10000);  // its one TrainJob
    dead.b.reset();
  });

  // client 0 -> worker 0 -> aggregator 0; client 2 -> worker 2 -> agg 1.
  std::vector<fl::TrainJobSpec> jobs(2);
  jobs[0].slot = 0;
  jobs[0].client_id = 0;
  jobs[1].slot = 1;
  jobs[1].client_id = 2;
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  agg.join();
  dying.join();

  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_TRUE(outcomes[0].pre_aggregated);
  EXPECT_EQ(outcomes[0].weight, 10.0);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Crash);
  EXPECT_FALSE(dispatcher.agg_alive(1));
  EXPECT_TRUE(dispatcher.agg_alive(0));

  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  ASSERT_EQ(partials->size(), 1u);
  EXPECT_EQ((*partials)[0].weight, 10.0);
  EXPECT_EQ((*partials)[0].updates, 1u);
  ASSERT_EQ((*partials)[0].sum.size(), params.size());
  EXPECT_EQ((*partials)[0].sum[0], 10.0 * 2.0);  // weight * (param + 1)

  EXPECT_EQ(
      obs::Registry::global().counter("hier_aggs_salvaged_total").value(),
      salvaged_before + 1.0);
  obs::set_metrics_enabled(false);
}

// An aggregator that goes silent is declared dead by the same liveness
// rule as a flat worker, and counted as a missed heartbeat.
TEST(HierTree, SilentAggregatorCountsAsMissedHeartbeat) {
  obs::set_metrics_enabled(true);
  auto live = net::make_loopback_pair();
  auto silent = net::make_loopback_pair();
  const double missed_before =
      obs::Registry::global().counter("heartbeats_missed_total").value();

  hier::TreeDispatcherConfig config;
  config.num_workers = 4;
  config.recv_timeout_ms = 10000;
  config.heartbeat_timeout_ms = 100;
  hier::TreeDispatcher dispatcher({live.a.get(), silent.a.get()}, config);

  std::thread agg([&] { emulate_agg_round(*live.b, 0); });
  // client 0 -> aggregator 0; clients 2 and 3 -> aggregator 1, which never
  // answers.
  std::vector<fl::TrainJobSpec> jobs(3);
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].slot = j;
  jobs[0].client_id = 0;
  jobs[1].client_id = 2;
  jobs[2].client_id = 3;
  const std::vector<float> params = {1.0f, 2.0f};
  std::vector<fl::TrainOutcome> outcomes(3);
  dispatcher.execute(jobs, params, outcomes);
  agg.join();

  EXPECT_TRUE(outcomes[0].delivered);
  for (const std::size_t slot : {1, 2}) {
    EXPECT_FALSE(outcomes[slot].delivered) << "slot " << slot;
    EXPECT_EQ(outcomes[slot].failure, fl::FailureKind::Crash)
        << "slot " << slot;
  }
  EXPECT_FALSE(dispatcher.agg_alive(1));
  EXPECT_EQ(
      obs::Registry::global().counter("heartbeats_missed_total").value(),
      missed_before + 1.0);
  obs::set_metrics_enabled(false);
}

// ---------------------------------------------------------------------------
// StatusParsing: the exposition server's request handling (satellite of §5j —
// the endpoint every tier now exposes)

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void raw_send(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: the server may legitimately respond-and-close before the
    // whole oversized request is written; EPIPE must not kill the test.
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

std::string raw_read_all(int fd) {
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

class StatusParsing : public ::testing::Test {
 protected:
  StatusParsing()
      : server_(0, {.metrics_text = [] { return std::string("m 1\n"); },
                    .status_json = [] { return std::string("{\"ok\":true}"); }}) {}

  std::string request(const std::string& bytes) {
    const int fd = raw_connect(server_.port());
    raw_send(fd, bytes);
    const std::string response = raw_read_all(fd);
    ::close(fd);
    return response;
  }

  net::StatusServer server_;
};

TEST_F(StatusParsing, MalformedRequestLineGets404NotAHang) {
  const std::string response = request("NONSENSE\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
}

TEST_F(StatusParsing, UnknownTargetGets404) {
  const std::string response = request("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
}

TEST_F(StatusParsing, PartialRequestAcrossPollWakeupsIsReassembled) {
  const int fd = raw_connect(server_.port());
  raw_send(fd, "GET /hea");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  raw_send(fd, "lthz HTTP/1.0\r\n\r\n");
  const std::string response = raw_read_all(fd);
  ::close(fd);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("ok"), std::string::npos) << response;
}

TEST_F(StatusParsing, OversizedHeadersAreBoundedAndStillServed) {
  // Far past the server's 4 KiB request cap; the read must stop at the cap
  // and the (valid) request line must still be answered.
  std::string oversized = "GET /metrics HTTP/1.0\r\n";
  oversized.append(8192, 'x');
  oversized += "\r\n\r\n";
  const std::string response = request(oversized);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("m 1"), std::string::npos) << response;
}

TEST_F(StatusParsing, BurstOfConnectionsAllServedSerially) {
  // One-connection-at-a-time server, listen backlog 8: a burst of pending
  // peers must all get answers, just serially.
  constexpr int kBurst = 8;
  std::vector<int> fds;
  for (int i = 0; i < kBurst; ++i) fds.push_back(raw_connect(server_.port()));
  for (const int fd : fds) raw_send(fd, "GET /status HTTP/1.0\r\n\r\n");
  int served = 0;
  for (const int fd : fds) {
    const std::string response = raw_read_all(fd);
    if (response.find("200") != std::string::npos &&
        response.find("\"ok\":true") != std::string::npos) {
      ++served;
    }
    ::close(fd);
  }
  EXPECT_EQ(served, kBurst);
}

// ---------------------------------------------------------------------------
// LiveRecluster: serving liveness edges -> incremental re-cluster -> selector

TEST(LiveRecluster, MemberChurnReclustersAndBumpsCounter) {
  obs::set_metrics_enabled(true);
  const auto fed = make_fed(8);
  core::HaccsConfig config;
  const auto summaries = core::compute_summaries(fed, config);

  // 4 members (workers), member m hosts clients {c : c % 4 == m}.
  std::vector<std::vector<std::size_t>> clients_of_member(4);
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    clients_of_member[c % 4].push_back(c);
  }

  core::HaccsSelector selector(fed, config);
  core::LiveClusterTracker tracker(summaries, clients_of_member, config);
  EXPECT_EQ(tracker.num_clients(), 8u);
  EXPECT_EQ(tracker.live_clients(), 8u);

  auto& pushes = obs::Registry::global().counter("recluster_live_total");
  const double before = pushes.value();

  // Nothing changed yet: refresh is a no-op.
  EXPECT_FALSE(tracker.refresh(selector));
  EXPECT_EQ(pushes.value(), before);

  // Member 1 dies: its 2 hosted clients depart, labels get repushed.
  tracker.on_member(1, false);
  EXPECT_EQ(tracker.live_clients(), 6u);
  EXPECT_TRUE(tracker.refresh(selector));
  EXPECT_EQ(pushes.value(), before + 1.0);
  // Labels stay full-size; departed clients fall back to singleton clusters
  // via the selector's noise remap, so no -1 survives.
  ASSERT_EQ(selector.cluster_of().size(), 8u);
  for (const int label : selector.cluster_of()) EXPECT_GE(label, 0);

  // Idempotent edge + no-churn refresh: nothing to do.
  tracker.on_member(1, false);
  EXPECT_FALSE(tracker.refresh(selector));
  EXPECT_EQ(pushes.value(), before + 1.0);

  // The member comes back: clients rejoin, one more push.
  tracker.on_member(1, true);
  EXPECT_EQ(tracker.live_clients(), 8u);
  EXPECT_TRUE(tracker.refresh(selector));
  EXPECT_EQ(pushes.value(), before + 2.0);
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace haccs
