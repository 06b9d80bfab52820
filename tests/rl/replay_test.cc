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

/// Samples one batch through the buffer's allocation-free entry point.
PrioritizedReplay::Batch Sample(PrioritizedReplay* replay, size_t batch,
                                Rng* rng) {
  PrioritizedReplay::Batch out;
  replay->SampleBatchInto(batch, rng, &out);
  return out;
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
    for (size_t slot : Sample(&replay, 8, &rng).slots) {
      hits += slot == 3;
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
  const PrioritizedReplay::Batch batch = Sample(&replay, 16, &rng);
  ASSERT_EQ(batch.weights.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_GT(batch.weights[i], 0.0f);
    EXPECT_LE(batch.weights[i], 1.0f + 1e-6f);
    // Items point at the sampled slots' resident transitions.
    EXPECT_EQ(batch.items[i], &replay.at(batch.slots[i]));
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
    const PrioritizedReplay::Batch batch = Sample(&replay, 8, &rng);
    for (size_t i = 0; i < 8; ++i) {
      if (batch.slots[i] == 0) common_weight = batch.weights[i];
      if (batch.slots[i] != 0) rare_weight = batch.weights[i];
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
  PrioritizedReplay::Batch batch;
  for (int i = 0; i < 30; ++i) replay.SampleBatchInto(8, &rng, &batch);
  EXPECT_GT(replay.beta(), beta0);
  for (int i = 0; i < 100; ++i) replay.SampleBatchInto(8, &rng, &batch);
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
  PrioritizedReplay::Batch batch;
  for (int round = 0; round < 5; ++round) {
    degenerate.SampleBatchInto(8, &rng_a, &batch);
    EXPECT_EQ(batch.slots.size(), 8u);
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_LT(batch.slots[i], 4u);
      EXPECT_EQ(batch.weights[i], 1.0f);  // uniform fallback
    }
    healthy.SampleBatchInto(8, &rng_b, &batch);
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
  EXPECT_EQ(Sample(&replay, 16, &rng).slots.size(), 16u);
}

TEST(PrioritizedReplayTest, NonPowerOfTwoCapacity) {
  PrioritizedReplay replay(SmallConfig(5));
  for (int i = 0; i < 7; ++i) replay.Add(MakeTransition(i));
  EXPECT_EQ(replay.size(), 5u);
  Rng rng(7);
  for (size_t slot : Sample(&replay, 32, &rng).slots) EXPECT_LT(slot, 5u);
}

TEST(PrioritizedReplayTest, ApproxBytesTracksResidentTransitions) {
  // Overwrite the ring several times over with transitions whose payload
  // changes shape (pool size, future branches): the running byte count
  // must equal the footprint of exactly the resident slots after every add.
  PrioritizedReplay replay(SmallConfig(5));
  EXPECT_EQ(replay.ApproxBytes(), 0u);
  Rng rng(11);
  for (int i = 0; i < 23; ++i) {
    Transition t;
    const size_t pool = 1 + static_cast<size_t>(rng.UniformInt(9));
    t.state = Matrix(pool, 3);
    t.valid_n = pool;
    t.action_row = 0;
    t.future.branches.resize(static_cast<size_t>(rng.UniformInt(4)));
    for (auto& branch : t.future.branches) {
      const size_t rows = 1 + static_cast<size_t>(rng.UniformInt(6));
      branch.base = Matrix(rows, 3);
      branch.segments.assign(rows, {rows, 0.1f});
    }
    replay.Add(std::move(t));
    size_t resident = 0;
    for (size_t slot = 0; slot < replay.size(); ++slot) {
      resident += replay.at(slot).ApproxBytes();
    }
    ASSERT_EQ(replay.ApproxBytes(), resident) << "after add " << i;
  }
}

}  // namespace
}  // namespace crowdrl
