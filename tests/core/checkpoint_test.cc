// Persistence: the arrival statistics and the full framework checkpoint
// must round-trip losslessly — an arrangement service that restarts should
// not forget its learned rhythms or value functions.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/framework.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/harness.h"

namespace crowdrl {
namespace {

TEST(ArrivalModelPersistenceTest, RoundTripPreservesStatistics) {
  ArrivalModel model;
  Rng rng(4);
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.UniformInt(1, 40);
    model.RecordArrival(static_cast<int>(rng.UniformInt(30)), t);
  }
  std::stringstream ss;
  ASSERT_TRUE(model.Save(&ss).ok());

  ArrivalModel restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  EXPECT_EQ(restored.num_arrivals(), model.num_arrivals());
  EXPECT_EQ(restored.last_arrival_time(), model.last_arrival_time());
  EXPECT_DOUBLE_EQ(restored.new_worker_rate(), model.new_worker_rate());
  EXPECT_EQ(restored.seen_workers(), model.seen_workers());
  for (SimTime g : {5, 100, 1440, 5000}) {
    EXPECT_DOUBLE_EQ(restored.SameWorkerReturnProb(g),
                     model.SameWorkerReturnProb(g));
  }
  for (int w : model.seen_workers()) {
    EXPECT_EQ(restored.LastArrivalOf(w), model.LastArrivalOf(w));
  }
  // Both continue identically after more arrivals.
  model.RecordArrival(3, t + 100);
  restored.RecordArrival(3, t + 100);
  EXPECT_DOUBLE_EQ(restored.any_gap().Prob(30), model.any_gap().Prob(30));
}

TEST(ArrivalModelPersistenceTest, FailedLoadLeavesModelUntouched) {
  ArrivalModel source;
  ArrivalModel target;
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    t += 7;
    source.RecordArrival(i % 9, t);
    target.RecordArrival(100 + i % 4, t);
  }
  std::stringstream ss;
  ASSERT_TRUE(source.Save(&ss).ok());
  const std::string bytes = ss.str();
  const std::vector<int> seen = target.seen_workers();
  for (size_t cut : {bytes.size() - 1, bytes.size() - 20, bytes.size() / 2,
                     size_t{9}}) {
    std::stringstream truncated(bytes.substr(0, cut));
    ASSERT_FALSE(target.Load(&truncated).ok()) << cut;
    EXPECT_EQ(target.seen_workers(), seen) << cut;
    EXPECT_EQ(target.num_arrivals(), 50) << cut;
    EXPECT_EQ(target.LastArrivalOf(100), t - 7) << cut;
    EXPECT_EQ(target.LastArrivalOf(0), -1) << cut;
  }
}

TEST(ArrivalModelPersistenceTest, LoadRejectsGarbage) {
  std::stringstream ss;
  ss << "definitely not a checkpoint";
  ArrivalModel model;
  EXPECT_FALSE(model.Load(&ss).ok());
}

class FrameworkCheckpointTest : public ::testing::Test {
 protected:
  static Dataset MakeDataset() {
    SyntheticConfig cfg;
    cfg.scale = 0.06;
    cfg.eval_months = 2;
    cfg.seed = 91;
    return SyntheticGenerator(cfg).Generate();
  }

  static ExperimentConfig MakeConfig() {
    ExperimentConfig cfg;
    cfg.hidden_dim = 16;
    cfg.num_heads = 2;
    cfg.batch_size = 8;
    cfg.learn_every = 4;
    cfg.seed = 13;
    return cfg;
  }
};

TEST_F(FrameworkCheckpointTest, SaveLoadRoundTripsTrainedState) {
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_test.bin";

  // Train a framework over the trace, checkpoint it.
  ReplayHarness harness(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework trained(fc, &harness,
                                   harness.worker_feature_dim(),
                                   harness.task_feature_dim());
  harness.Run(&trained);
  ASSERT_TRUE(trained.SaveState(path).ok());

  // Restore into a freshly-initialized framework; combined scores on a
  // probe observation must match exactly.
  ReplayHarness probe_env(&ds, MakeConfig().harness);
  TaskArrangementFramework restored(fc, &probe_env,
                                    probe_env.worker_feature_dim(),
                                    probe_env.task_feature_dim());
  ASSERT_TRUE(restored.LoadState(path).ok());

  // Build a probe observation from the trained harness's world.
  Observation obs;
  obs.time = ds.InitEndTime() + 100;
  obs.worker = 0;
  obs.worker_quality = 0.5;
  obs.worker_features.assign(probe_env.worker_feature_dim(), 0.1f);
  std::vector<std::vector<float>> feats;
  feats.reserve(4);
  for (int i = 0; i < 4; ++i) {
    feats.push_back(std::vector<float>(probe_env.task_feature_dim(), 0.0f));
    feats.back()[i % probe_env.task_feature_dim()] = 1.0f;
  }
  for (int i = 0; i < 4; ++i) {
    TaskSnapshot snap;
    snap.id = i;
    snap.deadline = obs.time + 10000;
    snap.features = &feats[i];
    snap.quality = 0.2;
    obs.tasks.push_back(snap);
  }
  auto q_trained = trained.CombinedScores(obs);
  auto q_restored = restored.CombinedScores(obs);
  ASSERT_EQ(q_trained.size(), q_restored.size());
  for (size_t i = 0; i < q_trained.size(); ++i) {
    EXPECT_DOUBLE_EQ(q_trained[i], q_restored[i]);
  }
  // Arrival statistics restored too.
  EXPECT_EQ(restored.arrival_model().num_arrivals(),
            trained.arrival_model().num_arrivals());
  std::remove(path.c_str());
}

TEST_F(FrameworkCheckpointTest, TruncatedCheckpointLeavesStateUnchanged) {
  // A checkpoint cut at any byte must fail to load and change nothing:
  // neither net may be installed before the whole file has been read, and
  // the arrival statistics must not be half-replaced.
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_truncated.bin";
  ReplayHarness harness(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework trained(fc, &harness, harness.worker_feature_dim(),
                                   harness.task_feature_dim());
  harness.Run(&trained);
  ASSERT_TRUE(trained.SaveState(path).ok());
  const uintmax_t full_size = std::filesystem::file_size(path);

  ReplayHarness probe_env(&ds, MakeConfig().harness);
  TaskArrangementFramework fresh(fc, &probe_env,
                                 probe_env.worker_feature_dim(),
                                 probe_env.task_feature_dim());
  Observation obs;
  obs.time = ds.InitEndTime() + 100;
  obs.worker = 0;
  obs.worker_quality = 0.5;
  obs.worker_features.assign(probe_env.worker_feature_dim(), 0.1f);
  std::vector<float> feats(probe_env.task_feature_dim(), 0.3f);
  for (int i = 0; i < 3; ++i) {
    TaskSnapshot snap;
    snap.id = i;
    snap.deadline = obs.time + 10000;
    snap.features = &feats;
    snap.quality = 0.1 * i;
    obs.tasks.push_back(snap);
  }
  const std::vector<double> scores = fresh.CombinedScores(obs);
  const ArrivalModel& arrivals = fresh.arrival_model();
  const int64_t num_arrivals = arrivals.num_arrivals();
  const SimTime last_arrival = arrivals.last_arrival_time();
  const double new_rate = arrivals.new_worker_rate();
  const double return_prob = arrivals.SameWorkerReturnProb(100);
  const double gap_prob = arrivals.any_gap().Prob(5);
  const std::vector<int> seen = arrivals.seen_workers();

  // Shrink the file one byte at a time, from full_size − 1 down to empty.
  for (uintmax_t size = full_size; size-- > 0;) {
    std::filesystem::resize_file(path, size);
    ASSERT_FALSE(fresh.LoadState(path).ok()) << "truncated at " << size;
    ASSERT_EQ(fresh.CombinedScores(obs), scores) << "truncated at " << size;
    ASSERT_EQ(arrivals.num_arrivals(), num_arrivals) << size;
    ASSERT_EQ(arrivals.last_arrival_time(), last_arrival) << size;
    ASSERT_EQ(arrivals.new_worker_rate(), new_rate) << size;
    ASSERT_EQ(arrivals.SameWorkerReturnProb(100), return_prob) << size;
    ASSERT_EQ(arrivals.any_gap().Prob(5), gap_prob) << size;
    ASSERT_EQ(arrivals.seen_workers(), seen) << size;
  }

  // The intact file still loads and does change the state.
  ASSERT_TRUE(trained.SaveState(path).ok());
  ASSERT_TRUE(fresh.LoadState(path).ok());
  EXPECT_EQ(fresh.CombinedScores(obs), trained.CombinedScores(obs));
  EXPECT_EQ(arrivals.num_arrivals(), trained.arrival_model().num_arrivals());
  EXPECT_NE(arrivals.num_arrivals(), num_arrivals);
  std::remove(path.c_str());
}

TEST_F(FrameworkCheckpointTest, LoadRejectsObjectiveMismatch) {
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_mismatch.bin";
  ReplayHarness env(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());

  FrameworkConfig worker_only =
      exp.MakeFrameworkConfig(Objective::kWorkerBenefit);
  TaskArrangementFramework a(worker_only, &env, env.worker_feature_dim(),
                             env.task_feature_dim());
  ASSERT_TRUE(a.SaveState(path).ok());

  FrameworkConfig balanced = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework b(balanced, &env, env.worker_feature_dim(),
                             env.task_feature_dim());
  EXPECT_FALSE(b.LoadState(path).ok());
  std::remove(path.c_str());
}

TEST_F(FrameworkCheckpointTest, LoadRejectsMissingFile) {
  Dataset ds = MakeDataset();
  ReplayHarness env(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kWorkerBenefit);
  TaskArrangementFramework fw(fc, &env, env.worker_feature_dim(),
                              env.task_feature_dim());
  EXPECT_FALSE(fw.LoadState("/nonexistent/ckpt.bin").ok());
}

}  // namespace
}  // namespace crowdrl
