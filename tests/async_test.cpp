// Tests for the asynchronous buffered-aggregation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/core/haccs_system.hpp"
#include "src/fl/async_engine.hpp"
#include "src/select/random_selector.hpp"

namespace haccs::fl {
namespace {

data::FederatedDataset make_fed(std::size_t clients = 10,
                                std::uint64_t seed = 7) {
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 4;
  gcfg.height = 8;
  gcfg.width = 8;
  gcfg.noise_stddev = 0.3;
  data::SyntheticImageGenerator gen(gcfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 40;
  pcfg.max_samples = 70;
  pcfg.test_samples = 12;
  Rng rng(seed);
  return data::partition_majority_label(gen, pcfg, rng);
}

AsyncEngineConfig make_config(std::size_t aggregations = 30) {
  AsyncEngineConfig cfg;
  cfg.aggregations = aggregations;
  cfg.max_in_flight = 4;
  cfg.buffer_size = 2;
  cfg.eval_every = 10;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 11;
  return cfg;
}

TEST(AsyncEngine, ValidatesConfig) {
  const auto fed = make_fed(4);
  auto factory = core::default_model_factory(fed, 99);
  {
    auto cfg = make_config();
    cfg.max_in_flight = 0;
    EXPECT_THROW(AsyncFederatedTrainer(fed, factory, cfg),
                 std::invalid_argument);
  }
  {
    auto cfg = make_config();
    cfg.max_in_flight = 5;  // > clients
    EXPECT_THROW(AsyncFederatedTrainer(fed, factory, cfg),
                 std::invalid_argument);
  }
  {
    auto cfg = make_config();
    cfg.buffer_size = 5;  // > max_in_flight
    EXPECT_THROW(AsyncFederatedTrainer(fed, factory, cfg),
                 std::invalid_argument);
  }
  {
    auto cfg = make_config();
    cfg.server_lr = 0.0;
    EXPECT_THROW(AsyncFederatedTrainer(fed, factory, cfg),
                 std::invalid_argument);
  }
  {
    auto cfg = make_config();
    cfg.eval_every = 0;  // would divide by zero at the first aggregation
    EXPECT_THROW(AsyncFederatedTrainer(fed, factory, cfg),
                 std::invalid_argument);
  }
}

TEST(AsyncEngine, DispatchesNothingAfterTheFinalAggregation) {
  // Records the highest aggregation index any dispatch was selected for.
  class Recording final : public ClientSelector {
   public:
    std::vector<std::size_t> select(std::size_t k,
                                    const std::vector<ClientRuntimeInfo>& view,
                                    std::size_t epoch, Rng& rng) override {
      last_epoch = std::max(last_epoch, epoch);
      return inner.select(k, view, epoch, rng);
    }
    std::string name() const override { return "Recording"; }
    select::RandomSelector inner;
    std::size_t last_epoch = 0;
  };
  const auto fed = make_fed();
  const auto cfg = make_config(8);
  AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99), cfg);
  Recording selector;
  const auto history = trainer.run(selector);
  ASSERT_EQ(history.records().size(), cfg.aggregations);
  EXPECT_LT(selector.last_epoch, cfg.aggregations);
}

TEST(AsyncEngine, ProducesOneRecordPerAggregation) {
  const auto fed = make_fed();
  AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                make_config(25));
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  ASSERT_EQ(history.records().size(), 25u);
  double prev = 0.0;
  for (const auto& r : history.records()) {
    EXPECT_GE(r.sim_time_s, prev);
    prev = r.sim_time_s;
    // Each aggregation consumed exactly buffer_size updates.
    EXPECT_EQ(r.selected.size(), 2u);
  }
}

TEST(AsyncEngine, DeterministicAcrossRuns) {
  const auto fed = make_fed();
  AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                make_config(15));
  select::RandomSelector s1, s2;
  const auto h1 = trainer.run(s1);
  const auto h2 = trainer.run(s2);
  ASSERT_EQ(h1.records().size(), h2.records().size());
  for (std::size_t i = 0; i < h1.records().size(); ++i) {
    EXPECT_EQ(h1.records()[i].selected, h2.records()[i].selected);
    EXPECT_DOUBLE_EQ(h1.records()[i].sim_time_s, h2.records()[i].sim_time_s);
    EXPECT_DOUBLE_EQ(h1.records()[i].global_accuracy,
                     h2.records()[i].global_accuracy);
  }
}

TEST(AsyncEngine, LearnsTheTask) {
  const auto fed = make_fed();
  auto cfg = make_config(80);
  AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  EXPECT_GT(history.best_accuracy(), 0.55);
}

TEST(AsyncEngine, MatchesSyncProfilesForSameSeed) {
  const auto fed = make_fed();
  auto async_cfg = make_config();
  EngineConfig sync_cfg;
  sync_cfg.rounds = 5;
  sync_cfg.clients_per_round = 3;
  sync_cfg.seed = async_cfg.seed;
  AsyncFederatedTrainer async_trainer(
      fed, core::default_model_factory(fed, 99), async_cfg);
  FederatedTrainer sync_trainer(fed, core::default_model_factory(fed, 99),
                                sync_cfg);
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    EXPECT_DOUBLE_EQ(async_trainer.population().profiles()[i].bandwidth_mbps,
                     sync_trainer.population().profiles()[i].bandwidth_mbps);
  }
}

TEST(AsyncEngine, RespectsDropout) {
  const auto fed = make_fed(8);
  auto cfg = make_config(15);
  cfg.max_in_flight = 3;
  cfg.buffer_size = 2;
  AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                cfg);
  // Clients 0-3 permanently down: they must never appear in any record.
  const auto schedule = sim::make_group_dropout(
      {0, 0, 0, 0, 1, 1, 1, 1}, {0}, 0);
  select::RandomSelector selector;
  const auto history = trainer.run(selector, *schedule);
  for (const auto& r : history.records()) {
    for (std::size_t id : r.selected) EXPECT_GE(id, 4u);
  }
}

TEST(AsyncEngine, WorksWithHaccsSelector) {
  const auto fed = make_fed(10);
  auto cfg = make_config(30);
  AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                cfg);
  core::HaccsConfig haccs;
  haccs.initial_loss = cfg.initial_loss;
  core::HaccsSelector selector(fed, haccs);
  const auto history = trainer.run(selector);
  EXPECT_EQ(history.records().size(), 30u);
  EXPECT_GT(history.best_accuracy(), 0.3);
}

TEST(AsyncEngine, AggregationsOutpaceSyncRoundsInTime) {
  // With identical hardware and workload, the async engine should complete
  // its aggregations in less simulated time per consumed update than the
  // synchronous engine's straggler-gated rounds.
  const auto fed = make_fed(10, 21);
  auto async_cfg = make_config(20);
  async_cfg.max_in_flight = 5;
  async_cfg.buffer_size = 5;  // one aggregation ~ one 5-client round
  AsyncFederatedTrainer async_trainer(
      fed, core::default_model_factory(fed, 99), async_cfg);
  select::RandomSelector s1;
  const auto async_history = async_trainer.run(s1);

  EngineConfig sync_cfg;
  sync_cfg.rounds = 20;
  sync_cfg.clients_per_round = 5;
  sync_cfg.eval_every = 10;
  sync_cfg.local.sgd.learning_rate = 0.08;
  sync_cfg.seed = async_cfg.seed;
  FederatedTrainer sync_trainer(fed, core::default_model_factory(fed, 99),
                                sync_cfg);
  select::RandomSelector s2;
  const auto sync_history = sync_trainer.run(s2);

  EXPECT_LT(async_history.total_time(), sync_history.total_time());
}

}  // namespace
}  // namespace haccs::fl
