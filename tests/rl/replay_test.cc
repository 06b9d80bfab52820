#include <gtest/gtest.h>

#include "rl/prioritized_replay.h"

namespace crowdrl {
namespace {

Transition MakeTransition(float reward) {
  Transition t;
  t.state = Matrix::FromRows({{reward, 0.0f}});
  t.valid_n = 1;
  t.action_row = 0;
  t.reward = reward;
  return t;
}

PrioritizedReplayConfig SmallConfig(size_t capacity) {
  PrioritizedReplayConfig cfg;
  cfg.capacity = capacity;
  cfg.alpha = 1.0;  // proportional exactly to |td|
  cfg.beta0 = 0.4;
  return cfg;
}

TEST(PrioritizedReplayTest, AddAndRetrieve) {
  PrioritizedReplay replay(SmallConfig(4));
  EXPECT_TRUE(replay.empty());
  const size_t slot = replay.Add(MakeTransition(0.5f));
  EXPECT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay.at(slot).reward, 0.5f);
}

TEST(PrioritizedReplayTest, WrapsAtCapacity) {
  PrioritizedReplay replay(SmallConfig(2));
  replay.Add(MakeTransition(0));
  replay.Add(MakeTransition(1));
  const size_t slot = replay.Add(MakeTransition(2));
  EXPECT_EQ(slot, 0u);
  EXPECT_EQ(replay.size(), 2u);
}

TEST(PrioritizedReplayTest, HighPrioritySamplesDominate) {
  PrioritizedReplay replay(SmallConfig(8));
  for (int i = 0; i < 8; ++i) replay.Add(MakeTransition(i));
  // Slot 3 gets a huge TD error; everything else tiny.
  for (int i = 0; i < 8; ++i) replay.UpdatePriority(i, i == 3 ? 10.0 : 0.01);
  Rng rng(2);
  int hits = 0, total = 0;
  for (int round = 0; round < 50; ++round) {
    for (const auto& s : replay.SampleBatch(8, &rng)) {
      hits += s.slot == 3;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.8);
}

TEST(PrioritizedReplayTest, WeightsAreNormalizedToAtMostOne) {
  PrioritizedReplay replay(SmallConfig(8));
  for (int i = 0; i < 8; ++i) replay.Add(MakeTransition(i));
  for (int i = 0; i < 8; ++i) replay.UpdatePriority(i, 0.1 * (i + 1));
  Rng rng(3);
  for (const auto& s : replay.SampleBatch(16, &rng)) {
    EXPECT_GT(s.weight, 0.0f);
    EXPECT_LE(s.weight, 1.0f + 1e-6f);
  }
}

TEST(PrioritizedReplayTest, RareItemsGetLargerWeights) {
  PrioritizedReplay replay(SmallConfig(4));
  for (int i = 0; i < 4; ++i) replay.Add(MakeTransition(i));
  replay.UpdatePriority(0, 10.0);
  for (int i = 1; i < 4; ++i) replay.UpdatePriority(i, 0.1);
  Rng rng(4);
  float common_weight = -1, rare_weight = -1;
  for (int round = 0; round < 20 && (common_weight < 0 || rare_weight < 0);
       ++round) {
    for (const auto& s : replay.SampleBatch(8, &rng)) {
      if (s.slot == 0) common_weight = s.weight;
      if (s.slot != 0) rare_weight = s.weight;
    }
  }
  ASSERT_GE(common_weight, 0);
  ASSERT_GE(rare_weight, 0);
  // The frequently-sampled (high-priority) item is down-weighted.
  EXPECT_LT(common_weight, rare_weight + 1e-6f);
}

TEST(PrioritizedReplayTest, BetaAnnealsTowardOne) {
  PrioritizedReplayConfig cfg = SmallConfig(4);
  cfg.beta_anneal_steps = 100;
  PrioritizedReplay replay(cfg);
  replay.Add(MakeTransition(0));
  const double beta0 = replay.beta();
  Rng rng(5);
  for (int i = 0; i < 30; ++i) replay.SampleBatch(8, &rng);
  EXPECT_GT(replay.beta(), beta0);
  for (int i = 0; i < 100; ++i) replay.SampleBatch(8, &rng);
  EXPECT_NEAR(replay.beta(), 1.0, 1e-9);
}

TEST(PrioritizedReplayTest, UniformFallbackAdvancesBetaSchedule) {
  // Regression: with zero total priority (min_priority == 0 and all TD
  // errors zeroed) the uniform-fallback branch returned without advancing
  // sample_steps_, freezing beta at beta0 while the main path annealed.
  PrioritizedReplayConfig cfg = SmallConfig(4);
  cfg.min_priority = 0.0;
  cfg.beta_anneal_steps = 64;
  PrioritizedReplay degenerate(cfg);
  PrioritizedReplay healthy(cfg);
  for (int i = 0; i < 4; ++i) {
    degenerate.Add(MakeTransition(i));
    healthy.Add(MakeTransition(i));
  }
  for (int i = 0; i < 4; ++i) {
    degenerate.UpdatePriority(i, 0.0);  // total mass collapses to zero
    healthy.UpdatePriority(i, 1.0);
  }
  ASSERT_LE(degenerate.total_priority(), 0.0);
  Rng rng_a(8), rng_b(9);
  for (int i = 0; i < 5; ++i) {
    auto batch = degenerate.SampleBatch(8, &rng_a);
    EXPECT_EQ(batch.size(), 8u);
    for (const auto& s : batch) EXPECT_LT(s.slot, 4u);
    healthy.SampleBatch(8, &rng_b);
  }
  // Both paths must have annealed identically.
  EXPECT_DOUBLE_EQ(degenerate.beta(), healthy.beta());
  EXPECT_GT(degenerate.beta(), cfg.beta0);
}

TEST(PrioritizedReplayTest, MinPriorityPreventsStarvation) {
  PrioritizedReplay replay(SmallConfig(4));
  for (int i = 0; i < 4; ++i) replay.Add(MakeTransition(i));
  for (int i = 0; i < 4; ++i) replay.UpdatePriority(i, 0.0);  // all zero TD
  EXPECT_GT(replay.total_priority(), 0.0);
  Rng rng(6);
  auto batch = replay.SampleBatch(16, &rng);
  EXPECT_EQ(batch.size(), 16u);
}

TEST(PrioritizedReplayTest, NonPowerOfTwoCapacity) {
  PrioritizedReplay replay(SmallConfig(5));
  for (int i = 0; i < 7; ++i) replay.Add(MakeTransition(i));
  EXPECT_EQ(replay.size(), 5u);
  Rng rng(7);
  for (const auto& s : replay.SampleBatch(32, &rng)) {
    EXPECT_LT(s.slot, 5u);
  }
}

}  // namespace
}  // namespace crowdrl
