#include "core/dqn_agent.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/thread_pool.h"

namespace crowdrl {
namespace {

DqnAgentConfig SmallConfig(uint64_t seed = 5) {
  DqnAgentConfig cfg;
  cfg.net.input_dim = 6;
  cfg.net.hidden_dim = 16;
  cfg.net.num_heads = 2;
  cfg.batch_size = 8;
  cfg.replay.capacity = 64;
  cfg.gamma = 0.5;
  cfg.target_sync_every = 10;
  cfg.seed = seed;
  return cfg;
}

Matrix RandomState(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Uniform(n, d, &rng);
}

Transition MakeTransition(float reward, uint64_t seed,
                          bool with_future = false) {
  Transition t;
  t.state = RandomState(4, 6, seed);
  t.valid_n = 4;
  t.action_row = static_cast<int>(seed % 4);
  t.reward = reward;
  if (with_future) {
    FutureStateSpec::Branch branch;
    branch.base = RandomState(3, 6, seed ^ 0xF00D);
    branch.segments = {{3, 0.6f}, {1, 0.4f}};
    t.future.branches.push_back(std::move(branch));
  }
  return t;
}

TEST(DqnAgentTest, ScoresMatchOnlineNetwork) {
  DqnAgent agent(SmallConfig());
  Matrix state = RandomState(5, 6, 1);
  auto scores = agent.Scores(state, 5);
  auto direct = agent.online().QValues(state, 5);
  ASSERT_EQ(scores.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(scores[i], direct[i]);
}

TEST(DqnAgentTest, TargetWithoutFutureIsJustReward) {
  DqnAgent agent(SmallConfig());
  FutureStateSpec empty;
  EXPECT_DOUBLE_EQ(agent.ComputeTarget(0.5f, empty), 0.5);
  EXPECT_NEAR(agent.ComputeTarget(0.7f, empty), 0.7, 1e-6);
  EXPECT_DOUBLE_EQ(agent.ComputeFutureValue(empty), 0.0);
}

TEST(DqnAgentTest, TargetIsExpectationOverSegments) {
  DqnAgent agent(SmallConfig());
  Transition t = MakeTransition(1.0f, 3, /*with_future=*/true);
  const auto& branch = t.future.branches[0];

  // Manual double-DQN expectation.
  auto value_of = [&](size_t valid_n) {
    Matrix pool = branch.base.SliceRows(0, valid_n);
    auto online_q = agent.online().QValues(pool, valid_n);
    size_t best = std::max_element(online_q.begin(), online_q.end()) -
                  online_q.begin();
    return agent.target_net().QValues(pool, valid_n)[best];
  };
  const double expected =
      1.0 + 0.5 * (0.6 * value_of(3) + 0.4 * value_of(1));
  EXPECT_NEAR(agent.ComputeTarget(1.0f, t.future), expected, 1e-6);
}

TEST(DqnAgentTest, VanillaDqnUsesTargetMax) {
  DqnAgentConfig cfg = SmallConfig();
  cfg.double_q = false;
  DqnAgent agent(cfg);
  Transition t = MakeTransition(0.0f, 9, true);
  const auto& branch = t.future.branches[0];
  auto value_of = [&](size_t valid_n) {
    Matrix pool = branch.base.SliceRows(0, valid_n);
    auto q = agent.target_net().QValues(pool, valid_n);
    return *std::max_element(q.begin(), q.end());
  };
  const double expected = 0.5 * (0.6 * value_of(3) + 0.4 * value_of(1));
  EXPECT_NEAR(agent.ComputeTarget(0.0f, t.future), expected, 1e-6);
}

TEST(DqnAgentTest, StoreComputesTargetAndFreesFuture) {
  DqnAgent agent(SmallConfig());
  Transition t = MakeTransition(0.5f, 7, true);
  const double expected = agent.ComputeTarget(0.5f, t.future);
  agent.Store(std::move(t));
  EXPECT_EQ(agent.stored(), 1);
  EXPECT_EQ(agent.replay_transitions(), 1u);
  // Future spec was released after the target was computed.
  // (Peek into the stored transition through the public path.)
  EXPECT_NEAR(expected, 0.5 + 0.5 * agent.ComputeFutureValue(
                                        MakeTransition(0, 7, true).future),
              1e-6);
}

TEST(DqnAgentTest, LearnRequiresFullBatch) {
  DqnAgent agent(SmallConfig());
  for (int i = 0; i < 7; ++i) {
    agent.Store(MakeTransition(1.0f, i));
    EXPECT_FALSE(agent.LearnStep()) << "buffer below batch size";
  }
  agent.Store(MakeTransition(1.0f, 99));
  EXPECT_TRUE(agent.LearnStep());
  EXPECT_EQ(agent.learn_steps(), 1);
}

TEST(DqnAgentTest, LearnEveryThrottlesUpdates) {
  DqnAgentConfig cfg = SmallConfig();
  cfg.learn_every = 4;
  DqnAgent agent(cfg);
  for (int i = 0; i < 8; ++i) agent.Store(MakeTransition(1.0f, i));
  int steps = 0;
  for (int i = 0; i < 8; ++i) {
    agent.Store(MakeTransition(0.0f, 100 + i));
    steps += agent.MaybeLearn();
  }
  EXPECT_EQ(steps, 2);  // every 4th store
}

TEST(DqnAgentTest, LearningDrivesQTowardTargets) {
  // All transitions share one state; reward 1 for action 0, 0 for action 1,
  // no future. Q(s,0) should end well above Q(s,1).
  DqnAgentConfig cfg = SmallConfig(11);
  cfg.opt.learning_rate = 3e-3;
  DqnAgent agent(cfg);
  Matrix state = RandomState(2, 6, 21);
  for (int i = 0; i < 32; ++i) {
    Transition t;
    t.state = state;
    t.valid_n = 2;
    t.action_row = i % 2;
    t.reward = t.action_row == 0 ? 1.0f : 0.0f;
    agent.Store(std::move(t));
  }
  for (int i = 0; i < 300; ++i) agent.LearnStep();
  auto q = agent.Scores(state, 2);
  EXPECT_GT(q[0], q[1] + 0.4) << "q0=" << q[0] << " q1=" << q[1];
  EXPECT_NEAR(q[0], 1.0, 0.35);
  EXPECT_NEAR(q[1], 0.0, 0.35);
}

TEST(DqnAgentTest, TargetNetworkSyncsPeriodically) {
  DqnAgentConfig cfg = SmallConfig(13);
  cfg.target_sync_every = 5;
  DqnAgent agent(cfg);
  Matrix probe = RandomState(3, 6, 31);
  for (int i = 0; i < 8; ++i) agent.Store(MakeTransition(1.0f, i));
  // After 4 steps the target still differs from online; after the 5th they
  // coincide.
  for (int i = 0; i < 4; ++i) agent.LearnStep();
  auto online_q = agent.online().QValues(probe, 3);
  auto target_q = agent.target_net().QValues(probe, 3);
  double diff = 0;
  for (size_t r = 0; r < 3; ++r) diff += std::fabs(online_q[r] - target_q[r]);
  EXPECT_GT(diff, 1e-7);
  agent.LearnStep();  // 5th step → sync
  online_q = agent.online().QValues(probe, 3);
  target_q = agent.target_net().QValues(probe, 3);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(online_q[r], target_q[r]);
  }
}

TEST(DqnAgentTest, LossIsFinite) {
  DqnAgent agent(SmallConfig(17));
  for (int i = 0; i < 16; ++i) {
    agent.Store(MakeTransition(static_cast<float>(i % 3), i, i % 2 == 0));
  }
  agent.LearnStep();
  EXPECT_TRUE(std::isfinite(agent.last_loss()));
  EXPECT_GE(agent.last_loss(), 0.0);
}

TEST(DqnAgentTest, RecomputeTargetsKeepsFutureSpecs) {
  DqnAgentConfig cfg = SmallConfig(19);
  cfg.recompute_targets_on_replay = true;
  DqnAgent agent(cfg);
  for (int i = 0; i < 8; ++i) {
    agent.Store(MakeTransition(1.0f, i, true));
  }
  EXPECT_TRUE(agent.LearnStep());
  EXPECT_TRUE(std::isfinite(agent.last_loss()));
}

// ---- the learner's action-row pass vs a dense per-sample reference ----

/// Test-side reference of DqnAgent::LearnStep: the dense per-sample loop
/// (ForwardInto + a one-hot Matrix dq + SetQNetwork::Backward) with the
/// agent's replay sampling, chunk partition, chunk-gradient reduction
/// order, Adam step and target sync.
class DenseReferenceLearner {
 public:
  DenseReferenceLearner(const DqnAgentConfig& cfg, const DqnAgent& agent)
      : cfg_(cfg),
        rng_(cfg.seed),
        online_(agent.online()),
        target_(agent.target_net()),
        optimizer_(online_.Params(), cfg.opt),
        replay_(cfg.replay) {}

  const SetQNetwork& online() const { return online_; }
  const SetQNetwork& target() const { return target_; }

  double Target(const Transition& t) const {
    return static_cast<double>(t.reward) +
           cfg_.gamma *
               FutureValueUnder({&online_, &target_}, t.future, cfg_.double_q);
  }

  void Store(Transition t) {
    if (!cfg_.recompute_targets_on_replay) {
      t.target = Target(t);
      t.future.Clear();
    }
    replay_.Add(std::move(t));
  }

  bool LearnStep() {
    const size_t batch = cfg_.batch_size;
    if (replay_.size() < batch) return false;
    replay_.SampleBatchInto(batch, &rng_, &batch_);
    const size_t chunks = std::max<size_t>(
        1, std::min({ThreadPool::Global().num_threads(), batch,
                     static_cast<size_t>(16)}));
    std::vector<SetQNetwork::Gradients> grads(chunks,
                                              online_.MakeGradients());
    std::vector<double> td(batch);
    for (size_t ci = 0; ci < chunks; ++ci) {
      for (size_t i = ci * batch / chunks; i < (ci + 1) * batch / chunks;
           ++i) {
        const Transition& tr = *batch_.items[i];
        const double y =
            cfg_.recompute_targets_on_replay ? Target(tr) : tr.target;
        SetQNetwork::Cache cache;
        const Matrix& q = online_.ForwardInto(tr.state, tr.valid_n, &cache);
        const double delta = q(tr.action_row, 0) - y;
        td[i] = delta;
        Matrix dq(q.rows(), 1);
        dq(tr.action_row, 0) =
            static_cast<float>(2.0 * batch_.weights[i] * delta);
        online_.Backward(dq, cache, &grads[ci]);
      }
    }
    for (size_t c = 1; c < chunks; ++c) grads[0].Add(grads[c]);
    optimizer_.Step(grads[0].g, 1.0 / static_cast<double>(batch));
    replay_.UpdatePriorities(batch_.slots, td);
    ++learn_steps_;
    if (cfg_.target_sync_every > 0 &&
        learn_steps_ % cfg_.target_sync_every == 0) {
      target_.CopyFrom(online_);
    }
    return true;
  }

 private:
  DqnAgentConfig cfg_;
  Rng rng_;
  SetQNetwork online_;
  SetQNetwork target_;
  Adam optimizer_;
  PrioritizedReplay replay_;
  PrioritizedReplay::Batch batch_;
  int64_t learn_steps_ = 0;
};

/// A transition over a pool of 1–7 tasks, zero-padded to 8 rows every other
/// time, acting on a random valid row, with a two-segment future.
Transition RandomTransition(Rng* rng) {
  Transition t;
  const size_t pool = 1 + static_cast<size_t>(rng->UniformInt(7));
  const size_t rows = rng->UniformInt(2) == 0 ? pool : 8;
  t.state = Matrix(rows, 6);
  for (size_t r = 0; r < pool; ++r) {
    for (size_t c = 0; c < 6; ++c) {
      t.state(r, c) = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  t.valid_n = pool;
  t.action_row = static_cast<int>(rng->UniformInt(pool));
  t.reward = static_cast<float>(rng->Uniform());
  FutureStateSpec::Branch branch;
  branch.base = Matrix::Uniform(5, 6, rng);
  branch.segments = {{5, 0.6f}, {2, 0.4f}};
  t.future.branches.push_back(std::move(branch));
  return t;
}

void ExpectSameParams(const SetQNetwork& a, const SetQNetwork& b,
                      const char* which) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t p = 0; p < pa.size(); ++p) {
    ASSERT_EQ(pa[p]->size(), pb[p]->size());
    for (size_t i = 0; i < pa[p]->size(); ++i) {
      // == on purpose: bit-exact up to the sign of an exact zero.
      ASSERT_EQ(pa[p]->data()[i], pb[p]->data()[i])
          << which << " param " << p << " element " << i;
    }
  }
}

void ExpectLearnerMatchesDenseReference(DqnAgentConfig cfg) {
  cfg.replay.capacity = 96;
  cfg.target_sync_every = 10;
  DqnAgent agent(cfg);
  DenseReferenceLearner reference(cfg, agent);
  Rng rng(cfg.seed ^ 0x5EED);
  int steps = 0;
  for (int i = 0; i < 200 + static_cast<int>(cfg.batch_size); ++i) {
    Transition t = RandomTransition(&rng);
    reference.Store(t);
    agent.Store(std::move(t));
    const bool learned = agent.LearnStep();
    ASSERT_EQ(reference.LearnStep(), learned);
    steps += learned;
  }
  ASSERT_GE(steps, 200);
  ExpectSameParams(agent.online(), reference.online(), "online");
  ExpectSameParams(agent.target_net(), reference.target(), "target");
}

TEST(DqnAgentTest, ActionRowLearnerMatchesDenseReferenceAtOneChunk) {
  DqnAgentConfig cfg = SmallConfig(41);
  cfg.batch_size = 1;  // one sample, so one gradient chunk
  ExpectLearnerMatchesDenseReference(cfg);
}

TEST(DqnAgentTest, ActionRowLearnerMatchesDenseReferenceAcrossChunks) {
  // min(pool threads, batch, 16) chunks: 4 on a host with >= 4 threads.
  DqnAgentConfig cfg = SmallConfig(42);
  cfg.batch_size = 4;
  ExpectLearnerMatchesDenseReference(cfg);
}

TEST(DqnAgentTest, ActionRowLearnerMatchesDenseReferenceWithReplayTargets) {
  // Targets recomputed inside the learner body go through the bootstrap
  // cache while the training workspace holds the sample's pass.
  DqnAgentConfig cfg = SmallConfig(43);
  cfg.batch_size = 4;
  cfg.recompute_targets_on_replay = true;
  ExpectLearnerMatchesDenseReference(cfg);
}

}  // namespace
}  // namespace crowdrl
