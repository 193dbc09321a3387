// Tests for src/serve (DESIGN.md §5g): the root's fleet for both peer kinds
// over 127.0.0.1 TCP (handshake, duplicate and topology rules, reconnect
// staging, malformed reconnects, wind-down), and the peer side (session
// handshake, reconnect backoff, port files, status endpoint).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/data/partition.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/net_driver.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/tcp.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/session.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs {
namespace {

constexpr int kIoMs = 5000;

data::FederatedDataset make_fed(std::size_t clients = 8) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(4);
  cfg.height = 6;
  cfg.width = 6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 20;
  pcfg.max_samples = 40;
  pcfg.test_samples = 4;
  Rng rng(31);
  return data::partition_majority_label(gen, pcfg, rng);
}

/// The Summary payload client `c` uploads, as the worker computes it.
std::vector<std::uint8_t> summary_payload(const data::FederatedDataset& fed,
                                          std::size_t c) {
  return net::encode_summary(
             stats::encode_summary_msg(
                 static_cast<std::uint32_t>(c),
                 stats::summarize_response(fed.clients[c].train)))
      .payload;
}

serve::FleetConfig fleet_config(serve::PeerKind kind, std::size_t peers,
                                std::size_t workers, std::size_t clients) {
  serve::FleetConfig config;
  config.kind = kind;
  config.num_peers = peers;
  config.num_workers = workers;
  config.num_clients = clients;
  config.io_timeout_ms = kIoMs;
  return config;
}

/// A worker session, handshake sent (it waits in the listener's backlog).
std::unique_ptr<net::Transport> connect_worker(
    std::uint16_t port, const data::FederatedDataset& fed, std::uint32_t id,
    std::uint32_t num_workers) {
  auto t = net::connect_tcp("127.0.0.1", port);
  EXPECT_TRUE(t);
  if (t) {
    EXPECT_TRUE(serve::send_session_handshake(*t, fed, id, num_workers));
  }
  return t;
}

/// An aggregator session: `hello`, then the summaries of every client whose
/// worker (c % num_workers) lies in [hello.worker_begin, hello.worker_end).
std::unique_ptr<net::Transport> connect_aggregator(
    std::uint16_t port, const data::FederatedDataset& fed,
    net::TopologyHelloMsg hello, std::size_t num_workers) {
  std::vector<std::size_t> fronted;
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    const std::size_t w = c % num_workers;
    if (w >= hello.worker_begin && w < hello.worker_end) fronted.push_back(c);
  }
  hello.num_clients = static_cast<std::uint32_t>(fronted.size());
  auto t = net::connect_tcp("127.0.0.1", port);
  EXPECT_TRUE(t);
  if (!t) return t;
  EXPECT_EQ(t->send(net::encode_topology_hello(hello)),
            net::TransportStatus::Ok);
  for (const std::size_t c : fronted) {
    EXPECT_EQ(t->send(net::Frame{net::MessageType::Summary,
                                 summary_payload(fed, c)}),
              net::TransportStatus::Ok);
  }
  return t;
}

net::TopologyHelloMsg topology(std::uint32_t agg, std::uint32_t aggs,
                               std::uint32_t per) {
  net::TopologyHelloMsg hello;
  hello.agg_id = agg;
  hello.num_aggs = aggs;
  hello.worker_begin = agg * per;
  hello.worker_end = (agg + 1) * per;
  return hello;
}

void expect_inbox_matches(const serve::Fleet& fleet,
                          const data::FederatedDataset& fed) {
  ASSERT_TRUE(fleet.inbox().complete());
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    EXPECT_EQ(net::encode_summary(
                  stats::encode_summary_msg(
                      static_cast<std::uint32_t>(c),
                      fleet.inbox().summaries()[c].response))
                  .payload,
              summary_payload(fed, c))
        << "client " << c;
  }
}

net::MessageType recv_type(net::Transport& t) {
  net::Frame frame;
  EXPECT_EQ(t.recv(&frame, kIoMs), net::TransportStatus::Ok);
  return frame.type;
}

net::Frame shard_frame(std::uint32_t worker_id) {
  net::TraceShardMsg shard;
  shard.worker_id = worker_id;
  shard.trace_id = 7;
  return net::encode_trace_shard(shard);
}

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1; empty on failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// ServeFleet

TEST(ServeFleet, AcceptsWorkersWithByteExactSummaries) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 2, 2,
                                            fed.clients.size()));
  // Worker 1 connects first: slots follow ids, not arrival order.
  auto w1 = connect_worker(listener.port(), fed, 1, 2);
  auto w0 = connect_worker(listener.port(), fed, 0, 2);
  ASSERT_TRUE(fleet.accept_all(kIoMs));
  expect_inbox_matches(fleet, fed);
  const auto peers = fleet.peers();
  ASSERT_EQ(peers.size(), 2u);
  ASSERT_NE(peers[0], nullptr);
  ASSERT_NE(peers[1], nullptr);
  // Each slot is the session of the worker with that id.
  ASSERT_EQ(w0->send(net::encode_heartbeat(net::HeartbeatMsg{0, 5, {}})),
            net::TransportStatus::Ok);
  net::Frame frame;
  ASSERT_EQ(peers[0]->recv(&frame, kIoMs), net::TransportStatus::Ok);
  EXPECT_EQ(net::decode_heartbeat(frame).sender_id, 0u);
}

TEST(ServeFleet, AcceptsAggregatorsWithByteExactSummaries) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Aggregator, 2,
                                            4, fed.clients.size()));
  auto a0 = connect_aggregator(listener.port(), fed, topology(0, 2, 2), 4);
  auto a1 = connect_aggregator(listener.port(), fed, topology(1, 2, 2), 4);
  ASSERT_TRUE(fleet.accept_all(kIoMs));
  expect_inbox_matches(fleet, fed);
  EXPECT_NE(fleet.peers()[0], nullptr);
  EXPECT_NE(fleet.peers()[1], nullptr);
  // A dead aggregator stays dead: reacquire is for workers only.
  auto again = connect_aggregator(listener.port(), fed, topology(0, 2, 2), 4);
  EXPECT_EQ(fleet.reacquire(0), nullptr);
}

TEST(ServeFleet, DuplicateWorkerIdFailsTheLaunch) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 2, 2,
                                            fed.clients.size()));
  auto first = connect_worker(listener.port(), fed, 0, 2);
  auto second = connect_worker(listener.port(), fed, 0, 2);
  EXPECT_FALSE(fleet.accept_all(kIoMs));
}

TEST(ServeFleet, DuplicateAggregatorIdFailsTheLaunch) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Aggregator, 2,
                                            4, fed.clients.size()));
  auto first = connect_aggregator(listener.port(), fed, topology(1, 2, 2), 4);
  auto second = connect_aggregator(listener.port(), fed, topology(1, 2, 2), 4);
  EXPECT_FALSE(fleet.accept_all(kIoMs));
}

TEST(ServeFleet, AggregatorTopologyMismatchFailsTheLaunch) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Aggregator, 2,
                                            4, fed.clients.size()));
  // Launched with --aggs=4: its subtree is [1, 2), not the root's [2, 4).
  auto agg = connect_aggregator(listener.port(), fed, topology(1, 4, 1), 4);
  EXPECT_FALSE(fleet.accept_all(kIoMs));
}

TEST(ServeFleet, WrongFirstFrameAndOutOfRangeIdFailTheLaunch) {
  const auto fed = make_fed();
  {
    net::TcpListener listener(0);
    serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 1, 1,
                                              fed.clients.size()));
    // A worker answering a tree root's port (and vice versa) is refused.
    auto agg = connect_aggregator(listener.port(), fed, topology(0, 1, 1), 1);
    EXPECT_FALSE(fleet.accept_all(kIoMs));
  }
  {
    net::TcpListener listener(0);
    serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 2, 2,
                                              fed.clients.size()));
    auto w = connect_worker(listener.port(), fed, 2, 3);
    EXPECT_FALSE(fleet.accept_all(kIoMs));
  }
  {
    net::TcpListener listener(0);
    serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 1, 1,
                                              fed.clients.size()));
    EXPECT_FALSE(fleet.accept_all(50));  // nobody connects
  }
}

TEST(ServeFleet, MalformedHandshakeAtLaunchFailsTheLaunch) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 1, 1,
                                            fed.clients.size()));
  auto bad = net::connect_tcp("127.0.0.1", listener.port());
  ASSERT_EQ(bad->send(net::Frame{net::MessageType::Hello, {1, 2, 3}}),
            net::TransportStatus::Ok);
  EXPECT_FALSE(fleet.accept_all(kIoMs));
}

TEST(ServeFleet, ReconnectStaysStagedUntilItsOwnReacquire) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 2, 2,
                                            fed.clients.size()));
  auto w0 = connect_worker(listener.port(), fed, 0, 2);
  auto w1 = connect_worker(listener.port(), fed, 1, 2);
  ASSERT_TRUE(fleet.accept_all(kIoMs));
  const auto before = fleet.peers();

  // Worker 1 re-Hellos while the dispatcher still holds its old transport;
  // only worker 0 has been declared dead.
  auto w1_again = connect_worker(listener.port(), fed, 1, 2);
  EXPECT_EQ(fleet.reacquire(0), nullptr);
  EXPECT_EQ(fleet.peers(), before);

  net::Transport* fresh = fleet.reacquire(1);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, before[1]);
  EXPECT_EQ(fleet.peers()[0], before[0]);
  EXPECT_EQ(fleet.peers()[1], fresh);
  ASSERT_EQ(w1_again->send(net::encode_heartbeat(net::HeartbeatMsg{1, 9, {}})),
            net::TransportStatus::Ok);
  net::Frame frame;
  ASSERT_EQ(fresh->recv(&frame, kIoMs), net::TransportStatus::Ok);
  EXPECT_EQ(net::decode_heartbeat(frame).epoch, 9u);
}

TEST(ServeFleet, MalformedReconnectIsDroppedAndTheFleetKeepsServing) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 2, 2,
                                            fed.clients.size()));
  auto w0 = connect_worker(listener.port(), fed, 0, 2);
  auto w1 = connect_worker(listener.port(), fed, 1, 2);
  ASSERT_TRUE(fleet.accept_all(kIoMs));
  const auto before = fleet.peers();

  // A well-framed Hello whose 3-byte payload does not decode, then a valid
  // Hello followed by an undecodable Summary: each fails its own handshake
  // only, instead of unwinding out of the dispatcher.
  auto bad_hello = net::connect_tcp("127.0.0.1", listener.port());
  ASSERT_EQ(bad_hello->send(net::Frame{net::MessageType::Hello, {1, 2, 3}}),
            net::TransportStatus::Ok);
  auto bad_summary = net::connect_tcp("127.0.0.1", listener.port());
  ASSERT_EQ(bad_summary->send(net::encode_hello(net::HelloMsg{0, 1})),
            net::TransportStatus::Ok);
  ASSERT_EQ(bad_summary->send(net::Frame{net::MessageType::Summary, {9}}),
            net::TransportStatus::Ok);
  EXPECT_EQ(fleet.reacquire(0), nullptr);
  EXPECT_EQ(fleet.peers(), before);

  auto w0_again = connect_worker(listener.port(), fed, 0, 2);
  net::Transport* fresh = fleet.reacquire(0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fleet.peers()[0], fresh);
  EXPECT_EQ(fleet.peers()[1], before[1]);
}

TEST(ServeFleet, WindDownDrainsOneShardPerWorker) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 2, 2,
                                            fed.clients.size()));
  std::vector<std::unique_ptr<net::Transport>> workers;
  for (std::uint32_t w = 0; w < 2; ++w) {
    workers.push_back(connect_worker(listener.port(), fed, w, 2));
    // A late heartbeat ahead of the shard is skipped; the second shard is
    // past the quota and stays unread.
    workers[w]->send(net::encode_heartbeat(net::HeartbeatMsg{w, 3, {}}));
    workers[w]->send(shard_frame(w));
    workers[w]->send(shard_frame(w));
  }
  ASSERT_TRUE(fleet.accept_all(kIoMs));

  net::EvalReportMsg report;
  report.epoch = 3;
  report.trace.trace_id = 7;
  std::multiset<std::uint32_t> drained;
  fleet.wind_down(report, [&](net::TraceShardMsg&& shard) {
    drained.insert(shard.worker_id);
  });
  EXPECT_EQ(drained, (std::multiset<std::uint32_t>{0, 1}));
  for (auto& w : workers) {
    EXPECT_EQ(recv_type(*w), net::MessageType::EvalReport);
    EXPECT_EQ(recv_type(*w), net::MessageType::Shutdown);
  }
}

TEST(ServeFleet, WindDownDrainsTheWholeSubtreePerAggregator) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Aggregator, 2,
                                            4, fed.clients.size()));
  std::vector<std::unique_ptr<net::Transport>> aggs;
  for (std::uint32_t a = 0; a < 2; ++a) {
    aggs.push_back(
        connect_aggregator(listener.port(), fed, topology(a, 2, 2), 4));
    aggs[a]->send(shard_frame(2 * a));
    aggs[a]->send(shard_frame(2 * a + 1));
  }
  ASSERT_TRUE(fleet.accept_all(kIoMs));

  net::EvalReportMsg report;
  report.trace.trace_id = 7;
  std::multiset<std::uint32_t> drained;
  fleet.wind_down(report, [&](net::TraceShardMsg&& shard) {
    drained.insert(shard.worker_id);
  });
  EXPECT_EQ(drained, (std::multiset<std::uint32_t>{0, 1, 2, 3}));
  for (auto& a : aggs) {
    EXPECT_EQ(recv_type(*a), net::MessageType::EvalReport);
    EXPECT_EQ(recv_type(*a), net::MessageType::Shutdown);
  }
}

TEST(ServeFleet, UntracedWindDownDrainsNothing) {
  const auto fed = make_fed();
  net::TcpListener listener(0);
  serve::Fleet fleet(listener, fleet_config(serve::PeerKind::Worker, 1, 1,
                                            fed.clients.size()));
  auto w = connect_worker(listener.port(), fed, 0, 1);
  w->send(shard_frame(0));
  ASSERT_TRUE(fleet.accept_all(kIoMs));
  int drained = 0;
  fleet.wind_down(net::EvalReportMsg{},
                  [&](net::TraceShardMsg&&) { ++drained; });
  EXPECT_EQ(drained, 0);
  EXPECT_EQ(recv_type(*w), net::MessageType::EvalReport);
  EXPECT_EQ(recv_type(*w), net::MessageType::Shutdown);
}

// ---------------------------------------------------------------------------
// ServeSession

TEST(ServeSession, HandshakeIsHelloThenOneSummaryPerHostedClient) {
  const auto fed = make_fed(8);
  const auto hosted = serve::hosted_clients(fed.clients.size(), 1, 3);
  EXPECT_EQ(hosted, (std::vector<std::size_t>{1, 4, 7}));

  auto pair = net::make_loopback_pair();
  ASSERT_TRUE(serve::send_session_handshake(*pair.b, fed, 1, 3));
  net::Frame frame;
  ASSERT_EQ(pair.a->recv(&frame, kIoMs), net::TransportStatus::Ok);
  const net::HelloMsg hello = net::decode_hello(frame);
  EXPECT_EQ(hello.worker_id, 1u);
  EXPECT_EQ(hello.num_clients, 3u);
  for (const std::size_t c : hosted) {
    ASSERT_EQ(pair.a->recv(&frame, kIoMs), net::TransportStatus::Ok);
    ASSERT_EQ(frame.type, net::MessageType::Summary);
    EXPECT_EQ(frame.payload, summary_payload(fed, c));
  }
  EXPECT_EQ(pair.a->recv(&frame, 0), net::TransportStatus::Timeout);

  pair.b->close();
  EXPECT_FALSE(serve::send_session_handshake(*pair.b, fed, 1, 3));
}

TEST(ServeSession, RedialGivesUpAfterNConsecutiveFailedConnects) {
  Rng jitter(3);
  int calls = 0;
  auto refuse = [&]() -> std::unique_ptr<net::Transport> {
    ++calls;
    return nullptr;
  };
  EXPECT_EQ(serve::redial(refuse, serve::ReconnectPolicy{4, 1}, jitter),
            nullptr);
  EXPECT_EQ(calls, 4);

  calls = 0;  // one connect is always made
  EXPECT_EQ(serve::redial(refuse, serve::ReconnectPolicy{0, 1}, jitter),
            nullptr);
  EXPECT_EQ(calls, 1);

  calls = 0;
  auto pair = net::make_loopback_pair();
  auto third_succeeds = [&]() -> std::unique_ptr<net::Transport> {
    return ++calls < 3 ? nullptr : std::move(pair.a);
  };
  EXPECT_NE(
      serve::redial(third_succeeds, serve::ReconnectPolicy{3, 1}, jitter),
      nullptr);
  EXPECT_EQ(calls, 3);
}

TEST(ServeSession, DialReadsThePortFile) {
  net::TcpListener listener(0);
  const std::string port_file = ::testing::TempDir() + "serve_dial.port";
  serve::write_port_file(port_file, listener.port());
  EXPECT_EQ(serve::wait_for_port_file(port_file, 1000), listener.port());
  auto t = serve::dial("127.0.0.1", 1, port_file);
  ASSERT_NE(t, nullptr);
  EXPECT_NE(listener.accept(kIoMs), nullptr);
  EXPECT_THROW(serve::wait_for_port_file(port_file + ".missing", 0),
               std::runtime_error);
}

TEST(ServeSession, StatusEndpointServesTierFieldsThenTheBoard) {
  EXPECT_EQ(serve::start_status_endpoint(-1, "", fl::ServingStatusBoard(1),
                                         nullptr),
            nullptr);
  fl::ServingStatusBoard board(2);
  board.round.store(4);
  const std::string port_file = ::testing::TempDir() + "serve_status.port";
  auto server = serve::start_status_endpoint(
      0, port_file, board, [](obs::JsonObject& o, double uptime_s) {
        o.field("tier", "test").field("uptime_s", uptime_s);
      });
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(serve::wait_for_port_file(port_file, 1000), server->port());
  const std::string status = http_get(server->port(), "/status");
  const auto tier = status.find("{\"tier\":\"test\",\"uptime_s\":");
  const auto serving = status.find(",\"serving\":{\"round\":4");
  ASSERT_NE(tier, std::string::npos) << status;
  ASSERT_NE(serving, std::string::npos) << status;
  EXPECT_LT(tier, serving);
  EXPECT_NE(http_get(server->port(), "/metrics").find("200"),
            std::string::npos);
  server->stop();
}

}  // namespace
}  // namespace haccs
