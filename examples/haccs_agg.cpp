// haccs_agg — the mid-tier of a hierarchical aggregation tree (DESIGN.md
// §5j).
//
// One aggregator process fronts a contiguous slice of the federation's
// workers: downstream it runs a poll/epoll FanInServer (one socket per
// worker, per-connection buffering and backpressure), upstream it speaks the
// normal framed protocol to the root over a single TCP connection. It is
// deliberately workload-agnostic — it never loads a dataset or model; update
// weights come off the wire (sample_count) and the global parameter vector
// is captured from the TrainJobs it relays, so the same binary serves any
// experiment the root and workers agree on.
//
// Lifecycle: bind the fan-in port, publish it (--listen-port-file), connect
// upstream, collect Hello + Summary from every subtree worker, announce the
// subtree with TopologyHello, then run rounds until the root's Shutdown
// (relayed downstream) or the upstream link dies.
//
// Exit codes: 0 orderly shutdown; 1 usage/configuration error; 2 handshake
// or upstream failure; 3 connect retries exhausted.
//
//   ./haccs_agg --agg-id=0 --aggs=2 --workers=4 --port-file=/tmp/root.port
//       --listen-port-file=/tmp/agg0.port
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench/harness.hpp"
#include "examples/multiprocess_common.hpp"
#include "src/common/logging.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/net/chaos.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/serve/session.hpp"

namespace {

constexpr int kExitRunFailed = 2;
constexpr int kExitConnectExhausted = 3;

void print_usage() {
  std::puts(
      "haccs_agg — mid-tier aggregator of a hierarchical federation\n"
      "  --agg-id=I            this aggregator's id in [0, --aggs)\n"
      "  --aggs=A              total aggregators (default 1)\n"
      "  --workers=W           federation-wide worker count; this process\n"
      "                        fronts workers [I*W/A, (I+1)*W/A) (A must\n"
      "                        divide W)\n"
      "upstream (root): --host=H --port=P or --port-file=F\n"
      "downstream (workers): --listen-port=P (default 0 = ephemeral)\n"
      "  --listen-port-file=F  publish the bound fan-in port to F\n"
      "aggregation: --chunk-params=N   f64 elements per SubtreeChunk\n"
      "                        (default 16384)\n"
      "  --max-update-norm=X   update validation threshold; must match the\n"
      "                        root's engine (default 0 = off)\n"
      "  --round-timeout-ms=T  straggler deadline per round (default 30000)\n"
      "  --handshake-timeout-ms=T  downstream Hello/Summary budget\n"
      "                        (default 60000)\n"
      "  --heartbeat-interval-ms=T  upstream liveness cadence (default 0)\n"
      "backpressure: --max-outbound-frames=N  per-connection queue cap\n"
      "                        before a slow worker is shed (default 64)\n"
      "ops: --status-port=P --status-port-file=F  /metrics /status /healthz\n"
      "chaos (upstream fault injection): --chaos-seed --chaos-drop\n"
      "  --chaos-dup --chaos-reorder --chaos-corrupt --chaos-truncate\n"
      "  --chaos-disconnect\n"
      "upstream connect: --reconnect-attempts=N  consecutive failed connects\n"
      "                        before giving up (default 10; exit code 3)\n"
      "  --reconnect-backoff-ms=T  initial backoff, doubled per failure and\n"
      "                        capped at 32x, with jitter (default 200)\n"
      "misc: --log-level=L\n"
      "exit codes: 0 shutdown, 1 error, 2 run failed, 3 connect exhausted");
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace haccs;
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }

  // Byte accounting across the tree is this binary's contract with the
  // smoke test, so the metrics pillar is always on here.
  obs::set_metrics_enabled(true);
  const std::string log_level = flags.get_string("log-level", "");
  if (!log_level.empty()) {
    set_log_level(parse_log_level(log_level));
  } else if (const char* env_level = std::getenv("HACCS_LOG");
             env_level != nullptr && env_level[0] != '\0') {
    set_log_level(parse_log_level(env_level));
  }

  const std::string host = flags.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 4242));
  const std::string port_file = flags.get_string("port-file", "");
  const auto agg_id = static_cast<std::uint32_t>(flags.get_int("agg-id", 0));
  const auto num_aggs = static_cast<std::uint32_t>(flags.get_int("aggs", 1));
  const auto num_workers =
      static_cast<std::uint32_t>(flags.get_int("workers", 1));
  const auto listen_port =
      static_cast<std::uint16_t>(flags.get_int("listen-port", 0));
  const std::string listen_port_file =
      flags.get_string("listen-port-file", "");
  const auto chunk_params =
      static_cast<std::size_t>(flags.get_int("chunk-params", 16384));
  const double max_update_norm = flags.get_double("max-update-norm", 0.0);
  const int round_timeout_ms =
      static_cast<int>(flags.get_int("round-timeout-ms", 30000));
  const int handshake_timeout_ms =
      static_cast<int>(flags.get_int("handshake-timeout-ms", 60000));
  const int heartbeat_interval_ms =
      static_cast<int>(flags.get_int("heartbeat-interval-ms", 0));
  const auto max_outbound_frames =
      static_cast<std::size_t>(flags.get_int("max-outbound-frames", 64));
  const int status_port = static_cast<int>(flags.get_int("status-port", -1));
  const std::string status_port_file =
      flags.get_string("status-port-file", "");
  const int reconnect_attempts =
      static_cast<int>(flags.get_int("reconnect-attempts", 10));
  const int reconnect_backoff_ms =
      static_cast<int>(flags.get_int("reconnect-backoff-ms", 200));
  const net::ChaosOptions chaos = examples::parse_chaos_flags(flags);
  flags.check_unused();

  if (num_aggs == 0 || agg_id >= num_aggs) {
    std::fprintf(stderr, "--agg-id must lie in [0, --aggs)\n");
    return 1;
  }
  if (num_workers == 0 || num_workers % num_aggs != 0) {
    std::fprintf(stderr, "--aggs must divide --workers evenly\n");
    return 1;
  }
  if (chunk_params == 0) {
    std::fprintf(stderr, "--chunk-params must be >= 1\n");
    return 1;
  }
  // Aggregator span ids must stay distinct from the root's and every
  // worker's in a merged trace; workers salt bits 40+, aggregators 52+.
  obs::set_span_id_salt(static_cast<std::uint64_t>(agg_id + 1) << 52);

  hier::MidTierConfig config;
  config.agg_id = agg_id;
  config.num_aggs = num_aggs;
  config.num_workers = num_workers;
  config.chunk_params = chunk_params;
  config.max_update_norm = max_update_norm;
  config.heartbeat_interval_ms = heartbeat_interval_ms;
  config.round_timeout_ms = round_timeout_ms;
  config.handshake_timeout_ms = handshake_timeout_ms;
  config.fanin.port = listen_port;
  config.fanin.max_outbound_frames = max_outbound_frames;

  // The board rows are this aggregator's subtree workers; the `queued`
  // gauge mirrors FanInServer::outbound_queued (the §5j backpressure
  // depth), surfaced per-peer on /status and in haccs_top.
  fl::ServingStatusBoard status_board(num_workers / num_aggs);
  config.status_board = &status_board;

  hier::MidTierAggregator agg(config);
  if (!listen_port_file.empty()) {
    serve::write_port_file(listen_port_file, agg.port());
  }
  std::fprintf(stderr,
               "agg %u/%u: fan-in on 127.0.0.1:%u, fronting workers "
               "[%u, %u)\n",
               agg_id, num_aggs, agg.port(), agg.worker_begin(),
               agg.worker_end());

  const auto status_server = serve::start_status_endpoint(
      status_port, status_port_file, status_board,
      [agg_id, num_aggs](obs::JsonObject& o, double uptime_s) {
        auto counter = [](const char* name) {
          return obs::Registry::global().counter(name).value();
        };
        o.field("tier", "mid")
            .field("agg_id", agg_id)
            .field("aggs", num_aggs)
            .field("uptime_s", uptime_s)
            .field("rounds", counter("hier_rounds_total"))
            .field("upstream_bytes_sent",
                   counter("hier_upstream_bytes_sent_total"))
            .field("upstream_bytes_received",
                   counter("hier_upstream_bytes_received_total"));
      });

  // Connect upstream with the shared backoff — the root may still be
  // binding when a scripted launch starts every tier at once.
  Rng jitter_rng(0x7ec0ffeeULL ^ agg_id);
  std::unique_ptr<net::Transport> upstream = serve::redial(
      [&] { return serve::dial(host, port, port_file); },
      serve::ReconnectPolicy{reconnect_attempts, reconnect_backoff_ms},
      jitter_rng);
  if (!upstream) {
    std::fprintf(stderr, "agg %u: %d connect attempts failed; giving up\n",
                 agg_id, std::max(reconnect_attempts, 1));
    return kExitConnectExhausted;
  }
  std::fprintf(stderr, "agg %u: upstream connected to %s\n", agg_id,
               upstream->peer().c_str());

  // Chaos wraps the aggregator's own outbound traffic on the upstream link
  // (the smoke's "one faulty agg uplink" scenario); the downstream fan-in
  // side stays clean.
  auto session = net::wrap_chaos(std::move(upstream), chaos);

  const bool ok = agg.run(*session);
  const auto& stats = agg.stats();
  std::fprintf(stderr,
               "agg %u: %s after %zu round(s), %zu folded, %zu rejected, "
               "%zu worker failure(s), %llu B up / %llu B down\n",
               agg_id, ok ? "shutdown" : "upstream lost", stats.rounds,
               stats.folded, stats.rejected, stats.worker_failures,
               static_cast<unsigned long long>(stats.upstream_bytes_sent),
               static_cast<unsigned long long>(
                   stats.upstream_bytes_received));

  obs::flush();
  return ok ? 0 : kExitRunFailed;
} catch (const std::exception& e) {
  std::fprintf(stderr, "haccs_agg: %s\n", e.what());
  return 1;
}
