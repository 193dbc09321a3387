// Golden round-event logs: the full `round_event_json` stream (wall-clock
// phase timings zeroed) plus a digest of the final global parameters, for a
// small matrix of engine configurations. The logs were recorded from the
// engines before their round loops were consolidated onto shared phase
// functions; any drift in a crashed/late/rejected list, a byte count, a
// deadline, an accuracy or the final model shows up here as a text diff.
//
// The reference kernel backend keeps the arithmetic independent of the
// optimized kernels' accumulation order (as in EngineFaults' pinned run).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "src/core/haccs_system.hpp"
#include "src/fl/async_engine.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/net_driver.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"
#include "src/tensor/ops.hpp"

namespace haccs {
namespace {

data::FederatedDataset make_fed() {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(6);
  cfg.height = 10;
  cfg.width = 10;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 12;
  pcfg.min_samples = 40;
  pcfg.max_samples = 80;
  pcfg.test_samples = 12;
  Rng rng(29);
  return data::partition_majority_label(gen, pcfg, rng);
}

fl::EngineConfig base_engine() {
  fl::EngineConfig cfg;
  cfg.rounds = 8;
  cfg.clients_per_round = 4;
  cfg.eval_every = 3;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 31;
  return cfg;
}

sim::FaultModelConfig hostile_faults() {
  sim::FaultModelConfig faults;
  faults.crash_rate = 0.2;
  faults.corruption_rate = 0.15;
  faults.straggler_rate = 0.15;
  faults.seed = 5;
  return faults;
}

/// FNV-1a over the parameters' bit patterns.
std::uint64_t digest(const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (float v : params) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string render(const char* engine, const fl::TrainingHistory& history,
                   const std::vector<float>& final_params) {
  std::string out;
  for (fl::RoundRecord record : history.records()) {
    record.phase = fl::PhaseTimings{};
    out += fl::round_event_json(engine, record);
    out += '\n';
  }
  out += "final_params_fnv=" + std::to_string(digest(final_params)) + '\n';
  return out;
}

std::string run_sync(const fl::EngineConfig& engine, fl::ClientSelector& selector,
                     const data::FederatedDataset& fed) {
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  const auto history = trainer.run(selector);
  return render("sync", history, trainer.final_parameters());
}

std::string run_async(const fl::AsyncEngineConfig& engine,
                      fl::ClientSelector& selector,
                      const data::FederatedDataset& fed) {
  fl::AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                    engine);
  const auto history = trainer.run(selector);
  return render("async", history, trainer.final_parameters());
}

fl::AsyncEngineConfig base_async() {
  fl::AsyncEngineConfig cfg;
  cfg.aggregations = 8;
  cfg.max_in_flight = 4;
  cfg.buffer_size = 2;
  cfg.eval_every = 3;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 31;
  return cfg;
}

class GoldenEventLog : public ::testing::Test {
 protected:
  void SetUp() override {
    ops::set_kernel_backend(ops::KernelBackend::kReference);
  }
  void TearDown() override {
    ops::set_kernel_backend(ops::KernelBackend::kOptimized);
  }

  /// `golden` is a raw literal opening with a newline, which is skipped.
  static void expect_golden(const std::string& actual, const char* golden) {
    if (actual != golden + 1) {
      ADD_FAILURE() << "round-event log drifted; actual log:\n" << actual;
    }
  }

  const data::FederatedDataset fed_ = make_fed();
};

TEST_F(GoldenEventLog, SyncDefault) {
  select::RandomSelector selector;
  expect_golden(run_sync(base_engine(), selector, fed_), R"(
{"type":"round","engine":"sync","epoch":0,"sim_time_s":0.499754645,"round_duration_s":0.499754645,"deadline_s":0,"accuracy":0.194444444,"loss":2.23609136,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[3,1,7,10],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":1,"sim_time_s":1.57111508,"round_duration_s":1.07136044,"deadline_s":0,"accuracy":0.194444444,"loss":2.23609136,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[10,7,11,6],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":2,"sim_time_s":2.54299652,"round_duration_s":0.971881441,"deadline_s":0,"accuracy":0.194444444,"loss":2.23609136,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[2,7,8,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":3,"sim_time_s":3.66084765,"round_duration_s":1.11785112,"deadline_s":0,"accuracy":0.180555556,"loss":2.03887551,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[1,0,3,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":4,"sim_time_s":4.60653773,"round_duration_s":0.94569008,"deadline_s":0,"accuracy":0.180555556,"loss":2.03887551,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[2,4,1,11],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":5,"sim_time_s":5.8022314,"round_duration_s":1.19569367,"deadline_s":0,"accuracy":0.180555556,"loss":2.03887551,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[8,9,1,7],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":6,"sim_time_s":7.4782447,"round_duration_s":1.6760133,"deadline_s":0,"accuracy":0.201388889,"loss":2.09351723,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[10,5,8,11],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":7,"sim_time_s":8.81384477,"round_duration_s":1.33560008,"deadline_s":0,"accuracy":0.180555556,"loss":2.08215362,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":109972,"selected":[10,4,5,3],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
final_params_fnv=5419352396276479131
)");
}

TEST_F(GoldenEventLog, SyncFaultsOvercommitDeadline) {
  auto engine = base_engine();
  engine.faults = hostile_faults();
  engine.overcommit = 0.5;
  engine.deadline_quantile = 0.75;
  engine.max_update_norm = 50.0;
  select::OortSelector selector({});
  expect_golden(run_sync(engine, selector, fed_), R"(
{"type":"round","engine":"sync","epoch":0,"sim_time_s":0.788237702,"round_duration_s":0.788237702,"deadline_s":0.788237702,"accuracy":0.152777778,"loss":2.29336045,"dispatched":6,"aggregated":3,"wasted":3,"downlink_bytes":165162,"uplink_bytes":82479,"selected":[1,2,8],"crashed":[3],"late":[7,9],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":1,"sim_time_s":2.36342301,"round_duration_s":1.5751853,"deadline_s":1.5751853,"accuracy":0.152777778,"loss":2.29336045,"dispatched":6,"aggregated":3,"wasted":3,"downlink_bytes":165162,"uplink_bytes":82479,"selected":[11,7,2],"crashed":[10],"late":[8,4],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":2,"sim_time_s":3.38427257,"round_duration_s":1.02084957,"deadline_s":1.02084957,"accuracy":0.152777778,"loss":2.29336045,"dispatched":6,"aggregated":2,"wasted":4,"downlink_bytes":165162,"uplink_bytes":54986,"selected":[11,7],"crashed":[6,0,2],"late":[8],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":3,"sim_time_s":4.22545263,"round_duration_s":0.841180056,"deadline_s":0.841180056,"accuracy":0.215277778,"loss":2.26370464,"dispatched":6,"aggregated":3,"wasted":3,"downlink_bytes":165162,"uplink_bytes":82479,"selected":[11,4,1],"crashed":[3],"late":[6,5],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":4,"sim_time_s":5.1014028,"round_duration_s":0.875950165,"deadline_s":0.875950165,"accuracy":0.215277778,"loss":2.26370464,"dispatched":6,"aggregated":3,"wasted":3,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[11,7,10],"crashed":[5],"late":[4],"rejected":[9],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":5,"sim_time_s":5.881532,"round_duration_s":0.780129201,"deadline_s":0.780129201,"accuracy":0.215277778,"loss":2.26370464,"dispatched":6,"aggregated":3,"wasted":3,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[3,0,7],"crashed":[4],"late":[11],"rejected":[10],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":6,"sim_time_s":6.74554198,"round_duration_s":0.864009979,"deadline_s":0.864009979,"accuracy":0.208333333,"loss":2.41126454,"dispatched":6,"aggregated":1,"wasted":5,"downlink_bytes":165162,"uplink_bytes":54986,"selected":[7],"crashed":[9,3,2],"late":[6],"rejected":[0],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":7,"sim_time_s":7.68674814,"round_duration_s":0.941206162,"deadline_s":0.941206162,"accuracy":0.201388889,"loss":2.06216132,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[9,8,1,3],"crashed":[],"late":[6,7],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
final_params_fnv=10691379755961847604
)");
}

TEST_F(GoldenEventLog, SyncFedProxTopK) {
  auto engine = base_engine();
  engine.algorithm = fl::LocalAlgorithm::FedProx;
  engine.fedprox_mu = 0.05;
  engine.compression.kind = fl::CompressionKind::TopK;
  engine.compression.topk_fraction = 0.25;
  select::RandomSelector selector;
  expect_golden(run_sync(engine, selector, fed_), R"(
{"type":"round","engine":"sync","epoch":0,"sim_time_s":0.484655751,"round_duration_s":0.484655751,"deadline_s":0,"accuracy":0.173611111,"loss":2.20770933,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[3,1,7,10],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":1,"sim_time_s":1.52959023,"round_duration_s":1.04493448,"deadline_s":0,"accuracy":0.173611111,"loss":2.20770933,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[10,7,11,6],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":2,"sim_time_s":2.48255362,"round_duration_s":0.952963385,"deadline_s":0,"accuracy":0.173611111,"loss":2.20770933,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[2,7,8,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":3,"sim_time_s":3.57864533,"round_duration_s":1.09609171,"deadline_s":0,"accuracy":0.166666667,"loss":2.07788049,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[1,0,3,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":4,"sim_time_s":4.46861468,"round_duration_s":0.88996935,"deadline_s":0,"accuracy":0.166666667,"loss":2.07788049,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[2,4,1,11],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":5,"sim_time_s":5.6410337,"round_duration_s":1.17241902,"deadline_s":0,"accuracy":0.166666667,"loss":2.07788049,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[8,9,1,7],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":6,"sim_time_s":7.27138065,"round_duration_s":1.63034695,"deadline_s":0,"accuracy":0.1875,"loss":2.0872179,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[10,5,8,11],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":7,"sim_time_s":8.57058962,"round_duration_s":1.29920897,"deadline_s":0,"accuracy":0.194444444,"loss":2.06999862,"dispatched":4,"aggregated":4,"wasted":0,"downlink_bytes":110108,"uplink_bytes":55156,"selected":[10,4,5,3],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
final_params_fnv=1745956705668063196
)");
}

TEST_F(GoldenEventLog, SyncLoopbackGrouped) {
  auto engine = base_engine();
  engine.overcommit = 0.5;
  engine.deadline_quantile = 0.75;
  fl::LoopbackCluster cluster(fed_, core::default_model_factory(fed_, 99), 4);
  fl::TransportDispatcherConfig dispatch;
  dispatch.work = fl::local_work(engine);
  dispatch.recv_timeout_ms = 60000;
  dispatch.agg_groups = 2;
  fl::TransportDispatcher dispatcher(cluster.server_transports(), dispatch);
  engine.dispatcher = &dispatcher;
  select::RandomSelector selector;
  expect_golden(run_sync(engine, selector, fed_), R"(
{"type":"round","engine":"sync","epoch":0,"sim_time_s":0.499754645,"round_duration_s":0.499754645,"deadline_s":0.499754645,"accuracy":0.194444444,"loss":2.23609136,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[3,1,7,10],"crashed":[],"late":[0,11],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":1,"sim_time_s":1.25817574,"round_duration_s":0.758421097,"deadline_s":0.758421097,"accuracy":0.194444444,"loss":2.23609136,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[3,7,10,0],"crashed":[],"late":[6,2],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":2,"sim_time_s":2.23005718,"round_duration_s":0.971881441,"deadline_s":0.971881441,"accuracy":0.194444444,"loss":2.23609136,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[1,3,9,4],"crashed":[],"late":[0,6],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":3,"sim_time_s":3.07123724,"round_duration_s":0.841180056,"deadline_s":0.841180056,"accuracy":0.229166667,"loss":2.17115055,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[7,4,1,11],"crashed":[],"late":[2,6],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":4,"sim_time_s":3.86849577,"round_duration_s":0.797258528,"deadline_s":0.797258528,"accuracy":0.229166667,"loss":2.17115055,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[10,8,0,3],"crashed":[],"late":[5,11],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":5,"sim_time_s":4.64862497,"round_duration_s":0.780129201,"deadline_s":0.780129201,"accuracy":0.229166667,"loss":2.17115055,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[7,3,2,0],"crashed":[],"late":[9,6],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":6,"sim_time_s":5.7251353,"round_duration_s":1.07651034,"deadline_s":1.07651034,"accuracy":0.229166667,"loss":2.04622945,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[3,1,7,11],"crashed":[],"late":[5,6],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"sync","epoch":7,"sim_time_s":6.72774643,"round_duration_s":1.00261113,"deadline_s":1.00261113,"accuracy":0.201388889,"loss":1.97669248,"dispatched":6,"aggregated":4,"wasted":2,"downlink_bytes":165162,"uplink_bytes":109972,"selected":[6,9,2,3],"crashed":[],"late":[11,5],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
final_params_fnv=5385088212568326512
)");
}

TEST_F(GoldenEventLog, AsyncClean) {
  select::RandomSelector selector;
  expect_golden(run_async(base_async(), selector, fed_), R"(
{"type":"round","engine":"async","epoch":0,"sim_time_s":0.475187014,"round_duration_s":0.475187014,"deadline_s":0,"accuracy":0.180555556,"loss":2.17909927,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[10,3],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":1,"sim_time_s":0.659639653,"round_duration_s":0.184452639,"deadline_s":0,"accuracy":0.180555556,"loss":2.17909927,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[0,7],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":2,"sim_time_s":1.23771014,"round_duration_s":0.578070484,"deadline_s":0,"accuracy":0.180555556,"loss":2.17909927,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[1,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":3,"sim_time_s":1.48057913,"round_duration_s":0.242868992,"deadline_s":0,"accuracy":0.222222222,"loss":2.14465483,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[4,11],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":4,"sim_time_s":2.0807416,"round_duration_s":0.600162469,"deadline_s":0,"accuracy":0.222222222,"loss":2.14465483,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[3,8],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":5,"sim_time_s":2.3896213,"round_duration_s":0.308879705,"deadline_s":0,"accuracy":0.222222222,"loss":2.14465483,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[9,1],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":6,"sim_time_s":2.92220289,"round_duration_s":0.532581582,"deadline_s":0,"accuracy":0.201388889,"loss":2.12452396,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[5,1],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":7,"sim_time_s":3.30293639,"round_duration_s":0.380733501,"deadline_s":0,"accuracy":0.201388889,"loss":2.04682736,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[6,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
final_params_fnv=16623431697285553826
)");
}

TEST_F(GoldenEventLog, AsyncFaults) {
  auto engine = base_async();
  engine.faults = hostile_faults();
  engine.max_update_norm = 50.0;
  select::OortSelector selector({});
  expect_golden(run_async(engine, selector, fed_), R"(
{"type":"round","engine":"async","epoch":0,"sim_time_s":0.742886862,"round_duration_s":0.742886862,"deadline_s":0,"accuracy":0.118055556,"loss":2.51972019,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[2,8],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":1,"sim_time_s":1.60829922,"round_duration_s":0.865412363,"deadline_s":0,"accuracy":0.118055556,"loss":2.51972019,"dispatched":4,"aggregated":2,"wasted":2,"downlink_bytes":0,"uplink_bytes":0,"selected":[7,2],"crashed":[3],"late":[],"rejected":[4],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":2,"sim_time_s":2.30345887,"round_duration_s":0.695159642,"deadline_s":0,"accuracy":0.118055556,"loss":2.51972019,"dispatched":4,"aggregated":2,"wasted":2,"downlink_bytes":0,"uplink_bytes":0,"selected":[9,7],"crashed":[10,0],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":3,"sim_time_s":2.94960411,"round_duration_s":0.646145245,"deadline_s":0,"accuracy":0.180555556,"loss":2.20198518,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[8,9],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":4,"sim_time_s":3.79774844,"round_duration_s":0.848144328,"deadline_s":0,"accuracy":0.180555556,"loss":2.20198518,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[11,2],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":5,"sim_time_s":4.8419934,"round_duration_s":1.04424496,"deadline_s":0,"accuracy":0.180555556,"loss":2.20198518,"dispatched":5,"aggregated":2,"wasted":3,"downlink_bytes":0,"uplink_bytes":0,"selected":[7,11],"crashed":[2,9],"late":[],"rejected":[9],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":6,"sim_time_s":5.57549575,"round_duration_s":0.733502358,"deadline_s":0,"accuracy":0.222222222,"loss":2.09674202,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[1,4],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
{"type":"round","engine":"async","epoch":7,"sim_time_s":5.78860812,"round_duration_s":0.213112364,"deadline_s":0,"accuracy":0.180555556,"loss":2.06646258,"dispatched":2,"aggregated":2,"wasted":0,"downlink_bytes":0,"uplink_bytes":0,"selected":[11,6],"crashed":[],"late":[],"rejected":[],"phase_wall_ms":{"selection_ms":0,"dispatch_ms":0,"train_ms":0,"aggregate_ms":0,"evaluate_ms":0}}
final_params_fnv=7733424267477936569
)");
}

}  // namespace
}  // namespace haccs
