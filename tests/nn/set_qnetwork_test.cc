#include "nn/set_qnetwork.h"

#include <gtest/gtest.h>

#include <string>

#include "nn/grad_check.h"
#include "nn/optimizer.h"

namespace crowdrl {
namespace {

SetQNetwork MakeNet(size_t in, size_t hidden, size_t heads, uint64_t seed,
                    bool mask = true) {
  SetQNetworkConfig cfg;
  cfg.input_dim = in;
  cfg.hidden_dim = hidden;
  cfg.num_heads = heads;
  cfg.masked_attention = mask;
  Rng rng(seed);
  return SetQNetwork(cfg, &rng);
}

TEST(SetQNetworkTest, OutputIsOneQValuePerRow) {
  auto net = MakeNet(6, 16, 4, 1);
  Rng rng(2);
  Matrix x = Matrix::Uniform(7, 6, &rng);
  SetQNetwork::Cache cache;
  Matrix q = net.Forward(x, 7, &cache);
  EXPECT_EQ(q.rows(), 7u);
  EXPECT_EQ(q.cols(), 1u);
  EXPECT_FALSE(q.HasNonFinite());
}

TEST(SetQNetworkTest, QValuesArePermutationInvariant) {
  // The paper's core architectural property: Q(s, t_j) does not depend on
  // the order tasks appear in the state.
  auto net = MakeNet(6, 16, 4, 3);
  Rng rng(4);
  Matrix x = Matrix::Uniform(6, 6, &rng);
  auto q = net.QValues(x, 6);

  std::vector<int> perm = {5, 0, 3, 1, 4, 2};
  Matrix xp(6, 6);
  for (size_t r = 0; r < 6; ++r) xp.SetRow(r, x, perm[r]);
  auto qp = net.QValues(xp, 6);
  for (size_t r = 0; r < 6; ++r) {
    EXPECT_NEAR(qp[r], q[perm[r]], 1e-4) << "row " << r;
  }
}

TEST(SetQNetworkTest, QValuesDependOnTheWholePool) {
  // "Tasks are competitive": removing a task from the pool must change the
  // values of the remaining ones (unlike per-task scoring baselines).
  auto net = MakeNet(6, 16, 4, 5);
  Rng rng(6);
  Matrix x = Matrix::Uniform(5, 6, &rng);
  auto q_full = net.QValues(x, 5);
  Matrix smaller = x.SliceRows(0, 4);
  auto q_small = net.QValues(smaller, 4);
  double diff = 0;
  for (size_t r = 0; r < 4; ++r) diff += std::fabs(q_full[r] - q_small[r]);
  EXPECT_GT(diff, 1e-5);
}

TEST(SetQNetworkTest, TrimmedAndPaddedStatesAgreeUnderMasking) {
  auto net = MakeNet(6, 16, 2, 7);
  Rng rng(8);
  Matrix x = Matrix::Uniform(4, 6, &rng);
  auto q_trim = net.QValues(x, 4);

  Matrix padded(9, 6);  // zero rows beyond 4
  for (size_t r = 0; r < 4; ++r) padded.SetRow(r, x, r);
  auto q_pad = net.QValues(padded, 4);
  for (size_t r = 0; r < 4; ++r) EXPECT_NEAR(q_trim[r], q_pad[r], 1e-5);
}

TEST(SetQNetworkTest, GradientsMatchNumericEndToEnd) {
  // Full-network gradient check against central differences — validates
  // the entire backward chain (out ← attn2 ← rFF3 ← attn1 ← rFF2 ← rFF1,
  // with residual connections).
  auto net = MakeNet(5, 8, 2, 9);
  Rng rng(10);
  Matrix x = Matrix::Uniform(4, 5, &rng, -0.5f, 0.5f);
  const int action_row = 2;
  const double target = 0.7;

  auto loss = [&]() {
    auto q = net.QValues(x, 4);
    const double d = q[action_row] - target;
    return d * d;
  };

  SetQNetwork::Cache cache;
  Matrix q = net.Forward(x, 4, &cache);
  Matrix dq(4, 1);
  dq(action_row, 0) = static_cast<float>(2.0 * (q(action_row, 0) - target));
  auto grads = net.MakeGradients();
  net.Backward(dq, cache, &grads);

  auto params = net.Params();
  ASSERT_EQ(params.size(), grads.g.size());
  for (size_t p = 0; p < params.size(); ++p) {
    auto res = CheckGradient(params[p], grads.g[p], loss, 1e-3f, 24);
    EXPECT_LT(res.max_rel_err, 8e-2f) << "param " << p;
  }
}

// ---- the learner's action-row pass vs the dense reference ----

bool SameGradients(const SetQNetwork::Gradients& a,
                   const SetQNetwork::Gradients& b, std::string* where) {
  if (a.g.size() != b.g.size()) return false;
  for (size_t p = 0; p < a.g.size(); ++p) {
    if (a.g[p].rows() != b.g[p].rows() || a.g[p].cols() != b.g[p].cols()) {
      *where = "shape of param " + std::to_string(p);
      return false;
    }
    for (size_t i = 0; i < a.g[p].size(); ++i) {
      // == on purpose: bit-exact up to the sign of an exact zero.
      if (!(a.g[p].data()[i] == b.g[p].data()[i])) {
        *where = "param " + std::to_string(p) + " element " +
                 std::to_string(i);
        return false;
      }
    }
  }
  return true;
}

TEST(SetQNetworkTest, ActionRowPassMatchesDenseBackwardBitForBit) {
  // ForwardAction + BackwardInto must produce exactly Q(s, a) and the
  // parameter gradients of the dense ForwardInto + Backward with a one-hot
  // upstream gradient — for masked and unmasked attention, attention on and
  // off, exact-size and zero-padded states, every pool size that straddles
  // the kernels' tile edges, and every row as the action.
  const size_t kPaddedRows = 64;  // a pad_to_max-style state: maxT rows
  for (bool use_attention : {true, false}) {
    for (bool mask : {true, false}) {
      SetQNetworkConfig cfg;
      cfg.input_dim = 7;
      cfg.hidden_dim = 16;
      cfg.num_heads = 4;
      cfg.masked_attention = mask;
      cfg.use_attention = use_attention;
      Rng rng(31 + 2 * use_attention + mask);
      const SetQNetwork net(cfg, &rng);
      for (size_t pool : {1, 2, 5, 15, 16, 57}) {
        for (bool padded : {false, true}) {
          const size_t rows = padded ? kPaddedRows : pool;
          Matrix x(rows, cfg.input_dim);  // padding rows stay zero
          for (size_t r = 0; r < pool; ++r) {
            for (size_t c = 0; c < cfg.input_dim; ++c) {
              x(r, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
            }
          }
          // Both passes accumulate onto the same nonzero gradients.
          SetQNetwork::Gradients start = net.MakeGradients();
          for (Matrix& m : start.g) {
            for (size_t i = 0; i < m.size(); ++i) {
              m.data()[i] = static_cast<float>(rng.Uniform(-0.1, 0.1));
            }
          }
          SetQNetwork::Cache dense_cache, action_cache;
          SetQNetwork::BackwardScratch scratch;
          Matrix grad_action(1, 1);
          for (size_t a = 0; a < rows; ++a) {
            SCOPED_TRACE("attention=" + std::to_string(use_attention) +
                         " mask=" + std::to_string(mask) + " pool=" +
                         std::to_string(pool) + " rows=" +
                         std::to_string(rows) + " action=" +
                         std::to_string(a));
            const float g = 0.37f * static_cast<float>(a + 1);
            const Matrix& q = net.ForwardInto(x, pool, &dense_cache);
            const float dense_q = q(a, 0);
            Matrix dq(rows, 1);
            dq(a, 0) = g;
            SetQNetwork::Gradients dense = start;
            net.Backward(dq, dense_cache, &dense);

            const float action_q = net.ForwardAction(x, pool, a, &action_cache);
            grad_action(0, 0) = g;
            SetQNetwork::Gradients action = start;
            net.BackwardInto(grad_action, action_cache, &scratch, &action);

            ASSERT_EQ(action_q, dense_q);
            std::string where;
            ASSERT_TRUE(SameGradients(action, dense, &where)) << where;
          }
        }
      }
    }
  }
}

TEST(SetQNetworkTest, TrainingRegressesToTargets) {
  // A tiny supervised sanity check: the network can fit fixed Q targets.
  auto net = MakeNet(4, 16, 2, 11);
  Rng rng(12);
  Matrix x = Matrix::Uniform(5, 4, &rng);
  std::vector<double> targets = {0.1, 0.9, -0.4, 0.5, 0.0};

  OptimizerConfig opt;
  opt.learning_rate = 5e-3;
  Adam adam(net.Params(), opt);
  auto grads = net.MakeGradients();

  double first_loss = -1, last_loss = -1;
  for (int step = 0; step < 300; ++step) {
    SetQNetwork::Cache cache;
    Matrix q = net.Forward(x, 5, &cache);
    Matrix dq(5, 1);
    double loss = 0;
    for (size_t r = 0; r < 5; ++r) {
      const double d = q(r, 0) - targets[r];
      loss += d * d;
      dq(r, 0) = static_cast<float>(2.0 * d);
    }
    if (step == 0) first_loss = loss;
    last_loss = loss;
    grads.SetZero();
    net.Backward(dq, cache, &grads);
    adam.Step(grads.g);
  }
  EXPECT_LT(last_loss, first_loss * 0.05)
      << "training failed to reduce loss: " << first_loss << " → "
      << last_loss;
}

TEST(SetQNetworkTest, CopyFromMakesNetworksIdentical) {
  auto a = MakeNet(4, 8, 2, 13);
  auto b = MakeNet(4, 8, 2, 14);
  Rng rng(15);
  Matrix x = Matrix::Uniform(3, 4, &rng);
  EXPECT_GT(std::fabs(a.QValues(x, 3)[0] - b.QValues(x, 3)[0]), 1e-7);
  b.CopyFrom(a);
  auto qa = a.QValues(x, 3);
  auto qb = b.QValues(x, 3);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(qa[r], qb[r]);
}

TEST(SetQNetworkTest, SaveLoadPreservesPredictions) {
  auto net = MakeNet(5, 8, 2, 16);
  Rng rng(17);
  Matrix x = Matrix::Uniform(4, 5, &rng);
  auto q_before = net.QValues(x, 4);

  std::stringstream ss;
  ASSERT_TRUE(net.Save(&ss).ok());
  SetQNetwork restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  auto q_after = restored.QValues(x, 4);
  for (size_t r = 0; r < 4; ++r) EXPECT_EQ(q_before[r], q_after[r]);
  EXPECT_EQ(restored.config().hidden_dim, 8u);
}

TEST(SetQNetworkTest, NumParametersAccountsForAllLayers) {
  auto net = MakeNet(5, 8, 2, 18);
  // rFF1 5·8+8, rFF2 8·8+8, attn1 4·64, rFF3 8·8+8, attn2 4·64, out 8+1.
  const size_t expected = (5 * 8 + 8) + (8 * 8 + 8) + 4 * 64 + (8 * 8 + 8) +
                          4 * 64 + (8 * 1 + 1);
  EXPECT_EQ(net.NumParameters(), expected);
}

TEST(SetQNetworkTest, EmptyValidPoolYieldsNoValues) {
  auto net = MakeNet(4, 8, 2, 19);
  Matrix x(3, 4);
  auto q = net.QValues(x, 0);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace crowdrl
