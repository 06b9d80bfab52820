// The hot-path contract of the `*Into` layer: once a thread's workspace
// and destination buffers are warm, a steady-state batched scoring pass —
// StateTransformer::BuildInto + SetQNetwork forwards + aggregation, i.e.
// exactly what the serve micro-batcher runs per request — performs ZERO
// heap allocations, and so do the learner's per-sample training pass and
// its bootstrap-target pass.
//
// Verified with a counting global operator new. The counter is
// thread-local so pool threads idling in the background cannot perturb it;
// the measured section runs entirely on this test's thread.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/aggregator.h"
#include "core/dqn_agent.h"
#include "core/policy.h"
#include "core/state.h"
#include "nn/workspace.h"

namespace {
thread_local long g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace crowdrl {
namespace {

Observation MakeObservation(size_t n_tasks, size_t worker_dim,
                            size_t task_dim,
                            std::vector<std::vector<float>>* feature_store) {
  Observation obs;
  obs.worker_features.assign(worker_dim, 0.25f);
  obs.worker_quality = 0.5;
  feature_store->resize(n_tasks);
  obs.tasks.resize(n_tasks);
  for (size_t i = 0; i < n_tasks; ++i) {
    (*feature_store)[i].assign(task_dim, 0.1f * static_cast<float>(i + 1));
    obs.tasks[i].id = static_cast<TaskId>(i);
    obs.tasks[i].features = &(*feature_store)[i];
    obs.tasks[i].deadline = static_cast<SimTime>(100 + i);
    obs.tasks[i].quality = 0.3;
  }
  return obs;
}

TEST(AllocationFreeTest, SteadyStateQNetworkForwardAllocatesNothing) {
  Rng rng(7);
  SetQNetworkConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dim = 16;
  cfg.num_heads = 4;
  SetQNetwork net(cfg, &rng);

  Matrix x = Matrix::Uniform(10, 12, &rng);
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  // Warm-up: two passes so every buffer reaches steady-state capacity.
  net.QValuesInto(x, 8, &ws.cache, &ws.qw);
  net.QValuesInto(x, 8, &ws.cache, &ws.qw);

  g_allocs = 0;
  for (int i = 0; i < 5; ++i) {
    net.QValuesInto(x, 8, &ws.cache, &ws.qw);
  }
  EXPECT_EQ(g_allocs, 0) << "steady-state forward must not touch the heap";
}

TEST(AllocationFreeTest, SmallerBatchReusesWarmBuffers) {
  // Shrinking valid_n / rows must stay within the warmed capacity.
  Rng rng(8);
  SetQNetworkConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  SetQNetwork net(cfg, &rng);

  Matrix big = Matrix::Uniform(12, 12, &rng);
  Matrix small = Matrix::Uniform(5, 12, &rng);
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  net.QValuesInto(big, 12, &ws.cache, &ws.qw);
  net.QValuesInto(small, 5, &ws.cache, &ws.qw);

  g_allocs = 0;
  net.QValuesInto(small, 5, &ws.cache, &ws.qw);
  net.QValuesInto(big, 12, &ws.cache, &ws.qw);
  EXPECT_EQ(g_allocs, 0);
}

TEST(AllocationFreeTest, SteadyStateScoringPassAllocatesNothing) {
  // The full per-request scoring pass of the serve batcher: rebuild the
  // set-state into a warm BuiltState, forward both Q-networks through the
  // thread workspace, aggregate into a warm score vector.
  Rng rng(9);
  const size_t worker_dim = 4, task_dim = 6, n_tasks = 9;

  StateConfig scfg;
  scfg.max_tasks = 16;
  StateTransformer transformer(scfg, worker_dim, task_dim);

  SetQNetworkConfig ncfg;
  ncfg.input_dim = transformer.input_dim();
  ncfg.hidden_dim = 16;
  ncfg.num_heads = 4;
  SetQNetwork worker_net(ncfg, &rng);
  SetQNetwork requester_net(ncfg, &rng);
  Aggregator aggregator(0.25);

  std::vector<std::vector<float>> features;
  Observation obs = MakeObservation(n_tasks, worker_dim, task_dim, &features);

  BuiltState built;
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  std::vector<double> combined;
  const auto score_once = [&] {
    transformer.BuildInto(obs, &built);
    worker_net.QValuesInto(built.matrix, built.valid_n, &ws.cache, &ws.qw);
    requester_net.QValuesInto(built.matrix, built.valid_n, &ws.cache,
                              &ws.qr);
    aggregator.CombineInto(ws.qw, ws.qr, &combined);
  };
  score_once();
  score_once();

  g_allocs = 0;
  for (int i = 0; i < 10; ++i) score_once();
  EXPECT_EQ(g_allocs, 0)
      << "steady-state batched scoring must not touch the heap";
  EXPECT_EQ(combined.size(), n_tasks);
}

TEST(AllocationFreeTest, TruncatedPoolScoringIsAllocationFreeToo) {
  // maxT truncation path (nth_element + sort over the staged order).
  Rng rng(10);
  const size_t worker_dim = 3, task_dim = 5, n_tasks = 24;
  StateConfig scfg;
  scfg.max_tasks = 8;
  StateTransformer transformer(scfg, worker_dim, task_dim);

  std::vector<std::vector<float>> features;
  Observation obs = MakeObservation(n_tasks, worker_dim, task_dim, &features);

  BuiltState built;
  transformer.BuildInto(obs, &built);
  EXPECT_EQ(built.valid_n, 8u);

  g_allocs = 0;
  for (int i = 0; i < 5; ++i) transformer.BuildInto(obs, &built);
  EXPECT_EQ(g_allocs, 0);
  EXPECT_EQ(built.valid_n, 8u);
}

TEST(AllocationFreeTest, WarmLearnerTrainingPassAllocatesNothing) {
  // The learner's per-sample step: the action-row forward and its backward
  // into the thread's LearnerWorkspace and a persistent gradient store.
  Rng rng(11);
  SetQNetworkConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dim = 16;
  cfg.num_heads = 4;
  SetQNetwork net(cfg, &rng);
  SetQNetwork::Gradients grads = net.MakeGradients();

  Matrix big = Matrix::Uniform(12, 12, &rng);
  Matrix small = Matrix::Uniform(5, 12, &rng);
  LearnerWorkspace& ws = LearnerWorkspace::ThreadLocal();
  ws.grad_q.Resize(1, 1);
  const auto train_once = [&](const Matrix& x, size_t valid_n, size_t row) {
    ws.grad_q(0, 0) = 0.25f * net.ForwardAction(x, valid_n, row, &ws.cache);
    net.BackwardInto(ws.grad_q, ws.cache, &ws.scratch, &grads);
  };
  train_once(big, 10, 3);
  train_once(small, 5, 4);

  g_allocs = 0;
  for (int i = 0; i < 5; ++i) {
    train_once(small, 5, static_cast<size_t>(i));
    train_once(big, 10, static_cast<size_t>(2 * i));
  }
  EXPECT_EQ(g_allocs, 0) << "a warm training pass must not touch the heap";
}

TEST(AllocationFreeTest, WarmBootstrapTargetAllocatesNothing) {
  // FutureValueUnder slices each future pool into a per-thread buffer and
  // scores it through a warm per-thread cache.
  Rng rng(12);
  SetQNetworkConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  SetQNetwork online(cfg, &rng);
  SetQNetwork target(cfg, &rng);
  FutureStateSpec future;
  FutureStateSpec::Branch branch;
  branch.base = Matrix::Uniform(7, 6, &rng);
  branch.segments = {{7, 0.5f}, {3, 0.3f}, {1, 0.2f}};
  future.branches.push_back(std::move(branch));
  const double warm = FutureValueUnder({&online, &target}, future, true);
  FutureValueUnder({&online, &target}, future, false);

  g_allocs = 0;
  double value = 0;
  for (int i = 0; i < 5; ++i) {
    value = FutureValueUnder({&online, &target}, future, true);
    FutureValueUnder({&online, &target}, future, false);
  }
  EXPECT_EQ(g_allocs, 0) << "a warm bootstrap pass must not touch the heap";
  EXPECT_EQ(value, warm);
}

}  // namespace
}  // namespace crowdrl
