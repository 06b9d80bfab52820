#include "core/dqn_agent.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "nn/workspace.h"

namespace crowdrl {

namespace {
/// Builds a SetQNetwork from config with its own derived RNG stream.
SetQNetwork MakeNet(const SetQNetworkConfig& net_config, uint64_t seed) {
  Rng rng(seed);
  return SetQNetwork(net_config, &rng);
}
}  // namespace

DqnAgent::DqnAgent(const DqnAgentConfig& config)
    : config_(config),
      rng_(config.seed),
      online_(MakeNet(config.net, config.seed ^ 0xA5A5A5A5ULL)),
      target_(MakeNet(config.net, config.seed ^ 0xA5A5A5A5ULL)),
      optimizer_(online_.Params(), config.opt),
      replay_(config.replay) {
  // Target starts as an exact copy of the online network.
  target_.CopyFrom(online_);
}

std::vector<double> DqnAgent::Scores(const Matrix& state,
                                     size_t valid_n) const {
  return online_.QValues(state, valid_n);
}

double DqnAgent::ComputeTarget(float reward,
                               const FutureStateSpec& future) const {
  return static_cast<double>(reward) +
         config_.gamma * ComputeFutureValue(future);
}

namespace {

/// Per-thread scratch of the bootstrap-target pass: the sliced pool, a warm
/// forward cache and the Q vector, reused across every (branch, segment).
/// Not the learner's training workspace: with recompute_targets_on_replay
/// the targets are computed inside the learner body.
struct BootstrapWorkspace {
  Matrix pool;
  SetQNetwork::Cache cache;
  std::vector<double> q;

  static BootstrapWorkspace& ThreadLocal() {
    thread_local BootstrapWorkspace ws;
    return ws;
  }
};

}  // namespace

double FutureValueUnder(const QNetView& view, const FutureStateSpec& future,
                        bool double_q) {
  BootstrapWorkspace& ws = BootstrapWorkspace::ThreadLocal();
  double expectation = 0;
  for (const auto& branch : future.branches) {
    for (const auto& [valid_n, prob] : branch.segments) {
      if (valid_n == 0 || prob <= 0) continue;
      CROWDRL_CHECK(valid_n <= branch.base.rows());
      ws.pool.Resize(valid_n, branch.base.cols());
      std::copy(branch.base.data(),
                branch.base.data() + valid_n * branch.base.cols(),
                ws.pool.data());
      double value;
      if (double_q) {
        // Double DQN: online net picks the action, target net scores it.
        view.online->QValuesInto(ws.pool, valid_n, &ws.cache, &ws.q);
        const size_t best =
            std::max_element(ws.q.begin(), ws.q.end()) - ws.q.begin();
        view.target->QValuesInto(ws.pool, valid_n, &ws.cache, &ws.q);
        value = ws.q[best];
      } else {
        view.target->QValuesInto(ws.pool, valid_n, &ws.cache, &ws.q);
        value = *std::max_element(ws.q.begin(), ws.q.end());
      }
      expectation += static_cast<double>(prob) * value;
    }
  }
  return expectation;
}

double DqnAgent::ComputeFutureValue(const FutureStateSpec& future) const {
  return FutureValueUnder(View(), future, config_.double_q);
}

void DqnAgent::Store(Transition t) {
  if (!config_.recompute_targets_on_replay) {
    t.target = ComputeTarget(t.reward, t.future);
    t.future.Clear();  // the spec served its purpose; free the memory
  }
  ++store_count_;
  replay_.Add(std::move(t));
}

void DqnAgent::StorePrepared(Transition t) {
  ++store_count_;
  replay_.Add(std::move(t));
}

bool DqnAgent::MaybeLearn() {
  if (config_.learn_every > 1 &&
      store_count_ % config_.learn_every != 0) {
    return false;
  }
  return LearnStep();
}

bool DqnAgent::LearnStep() {
  const size_t batch = config_.batch_size;
  if (batch == 0 || replay_.size() < batch) return false;  // not warm yet
  replay_.SampleBatchInto(batch, &rng_, &batch_);

  ThreadPool& pool = ThreadPool::Global();
  const size_t chunks = std::max<size_t>(
      1, std::min({pool.num_threads(), batch, static_cast<size_t>(16)}));
  if (chunk_grads_.size() < chunks) {
    chunk_grads_.resize(chunks);
    for (auto& g : chunk_grads_) {
      if (g.g.empty()) g = online_.MakeGradients();
    }
  }
  for (size_t c = 0; c < chunks; ++c) chunk_grads_[c].SetZero();

  td_.resize(batch);
  weighted_sq_.resize(batch);
  pool.ParallelFor(chunks, [&](size_t ci) {
    const size_t lo = ci * batch / chunks;
    const size_t hi = (ci + 1) * batch / chunks;
    // The loss reads Q(s, a) only, so each sample trains through the
    // action-row pass, in this pool thread's warm learner workspace.
    LearnerWorkspace& ws = LearnerWorkspace::ThreadLocal();
    ws.grad_q.Resize(1, 1);
    for (size_t i = lo; i < hi; ++i) {
      const Transition& tr = *batch_.items[i];
      const double weight = batch_.weights[i];
      const double y = config_.recompute_targets_on_replay
                           ? ComputeTarget(tr.reward, tr.future)
                           : tr.target;
      CROWDRL_CHECK(tr.action_row >= 0 &&
                    static_cast<size_t>(tr.action_row) < tr.state.rows());
      const double delta =
          online_.ForwardAction(tr.state, tr.valid_n, tr.action_row,
                                &ws.cache) -
          y;
      td_[i] = delta;
      weighted_sq_[i] = weight * delta * delta;
      // d(w·δ²)/dq = 2·w·δ at the action row.
      ws.grad_q(0, 0) = static_cast<float>(2.0 * weight * delta);
      online_.BackwardInto(ws.grad_q, ws.cache, &ws.scratch,
                           &chunk_grads_[ci]);
    }
  });

  for (size_t c = 1; c < chunks; ++c) chunk_grads_[0].Add(chunk_grads_[c]);
  optimizer_.Step(chunk_grads_[0].g, 1.0 / static_cast<double>(batch));

  replay_.UpdatePriorities(batch_.slots, td_);
  double loss = 0;
  for (size_t i = 0; i < batch; ++i) loss += weighted_sq_[i];
  last_loss_ = loss / static_cast<double>(batch);

  ++learn_steps_;
  ++online_version_;
  if (config_.target_sync_every > 0 &&
      learn_steps_ % config_.target_sync_every == 0) {
    SyncTarget();
  }
  return true;
}

}  // namespace crowdrl
