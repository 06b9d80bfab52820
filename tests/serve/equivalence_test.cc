// The strongest correctness guarantee of the actor/learner split: a
// service with one actor and inline (synchronous) learning is *bit-for-bit*
// the serial framework. Both are driven through identical replay harnesses
// over the same trace; every ranking, transition, learner step and final
// network parameter must coincide exactly — any divergence in the decision
// primitives (snapshot scoring, transition minting, learner cadence) shows
// up here as a hard failure.
#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/harness.h"
#include "serve/serving_policy.h"
#include "tensor/matrix.h"

namespace crowdrl {
namespace {

SyntheticConfig SmallTrace() {
  SyntheticConfig cfg;
  cfg.scale = 0.05;
  cfg.eval_months = 2;
  cfg.seed = 1234;
  return cfg;
}

FrameworkConfig SmallFrameworkConfig(const ReplayHarness& harness) {
  (void)harness;
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.worker_dqn.net.hidden_dim = 16;
  cfg.worker_dqn.net.num_heads = 2;
  cfg.worker_dqn.batch_size = 8;
  cfg.worker_dqn.replay.capacity = 256;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 8;
  cfg.requester_dqn.replay.capacity = 256;
  cfg.predictor.max_segments = 3;
  cfg.max_failed_stored = 2;
  cfg.warmup_learn_steps = 20;
  cfg.seed = 77;
  return cfg;
}

void ExpectNetsIdentical(const DqnAgent* a, const DqnAgent* b) {
  ASSERT_EQ(a != nullptr, b != nullptr);
  if (a == nullptr) return;
  const auto pa = a->online().Params();
  const auto pb = b->online().Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*pa[i], *pb[i]), 0.0f)
        << "online param " << i << " diverged";
  }
  const auto ta = a->target_net().Params();
  const auto tb = b->target_net().Params();
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*ta[i], *tb[i]), 0.0f)
        << "target param " << i << " diverged";
  }
  EXPECT_EQ(a->stored(), b->stored());
  EXPECT_EQ(a->learn_steps(), b->learn_steps());
}

TEST(ServeEquivalenceTest, OneActorInlineServiceBitMatchesSerialFramework) {
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  ASSERT_TRUE(dataset.Validate().ok());
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;

  // --- serial reference ---
  ReplayHarness serial_harness(&dataset, harness_cfg);
  TaskArrangementFramework serial(
      SmallFrameworkConfig(serial_harness), &serial_harness,
      serial_harness.worker_feature_dim(), serial_harness.task_feature_dim());
  const RunResult serial_result = serial_harness.Run(&serial);

  // --- served run: same trace, same seeds, through the service ---
  ReplayHarness served_harness(&dataset, harness_cfg);
  TaskArrangementFramework served(
      SmallFrameworkConfig(served_harness), &served_harness,
      served_harness.worker_feature_dim(), served_harness.task_feature_dim());
  ServiceConfig service_cfg;
  service_cfg.inline_learning = true;
  service_cfg.publish_every_events = 1;  // snapshot == live nets, always
  ServiceShard service(&served, service_cfg);
  service.Start();
  ServingPolicy policy(&service);
  const RunResult served_result = served_harness.Run(&policy);
  service.Stop();

  // Identical trajectories ⇒ identical realized metrics, to the last bit.
  EXPECT_EQ(serial_result.arrivals_evaluated, served_result.arrivals_evaluated);
  EXPECT_EQ(serial_result.completions, served_result.completions);
  EXPECT_EQ(serial_result.final_metrics.cr, served_result.final_metrics.cr);
  EXPECT_EQ(serial_result.final_metrics.kcr, served_result.final_metrics.kcr);
  EXPECT_EQ(serial_result.final_metrics.ndcg_cr,
            served_result.final_metrics.ndcg_cr);
  EXPECT_EQ(serial_result.final_metrics.qg, served_result.final_metrics.qg);
  EXPECT_EQ(serial_result.final_metrics.kqg, served_result.final_metrics.kqg);
  EXPECT_EQ(serial_result.final_metrics.ndcg_qg,
            served_result.final_metrics.ndcg_qg);

  // Identical learning: same exploration clock, same stored transitions,
  // same gradient steps, same final parameters.
  EXPECT_EQ(serial.explorer().steps(), served.explorer().steps());
  EXPECT_EQ(serial.transitions_stored(), served.transitions_stored());
  ExpectNetsIdentical(serial.worker_agent(), served.worker_agent());
  ExpectNetsIdentical(serial.requester_agent(), served.requester_agent());

  // The served run really went through the async machinery.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, serial_result.arrivals_evaluated);
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_GT(stats.snapshot_version, 1u);
}

TEST(ServeEquivalenceTest, AsyncServiceMatchesTrajectoryWithSingleDriver) {
  // With a dedicated learner thread the single-driver flow is still
  // sequentially consistent (the driver blocks on Rank, and feedback
  // blocks flush in order), but snapshots may lag by the publish cadence —
  // so we assert structural invariants rather than bit equality.
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;
  ReplayHarness harness(&dataset, harness_cfg);
  TaskArrangementFramework framework(
      SmallFrameworkConfig(harness), &harness, harness.worker_feature_dim(),
      harness.task_feature_dim());
  ServiceConfig service_cfg;
  service_cfg.flush_block_events = 2;
  service_cfg.publish_every_events = 4;
  ServiceShard service(&framework, service_cfg);
  service.Start();
  {
    ServingPolicy policy(&service);
    const RunResult result = harness.Run(&policy);
    EXPECT_GT(result.arrivals_evaluated, 0);
    policy.session()->Flush();
  }
  service.Stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_EQ(stats.blocks_dropped, 0);
  EXPECT_GT(framework.transitions_stored(), 0);
}

}  // namespace
}  // namespace crowdrl
