#ifndef CROWDRL_NN_WORKSPACE_H_
#define CROWDRL_NN_WORKSPACE_H_

#include <vector>

#include "nn/set_qnetwork.h"

namespace crowdrl {

/// \brief Thread-local scratch for the inference hot path.
///
/// One warm SetQNetwork::Cache plus the per-network score vectors: after
/// the first pass on a thread, every buffer has reached its steady-state
/// capacity and subsequent scoring through it performs zero heap
/// allocations (see tests/nn/allocation_free_test.cc). Every decision
/// scoring (TaskArrangementFramework::ScoreDecisionInto, on batcher threads
/// or the serial path) routes through `ThreadLocal()`, so a thread pays the
/// warm-up exactly once regardless of how many decisions it scores.
///
/// The cache is reused across *different* networks (worker vs. requester
/// MDP): that is safe because every member is resized in place on each
/// pass and nothing is read before being written.
struct InferenceWorkspace {
  SetQNetwork::Cache cache;
  std::vector<double> qw;  // worker-MDP Q values
  std::vector<double> qr;  // requester-MDP Q values

  static InferenceWorkspace& ThreadLocal() {
    thread_local InferenceWorkspace ws;
    return ws;
  }
};

/// \brief Thread-local scratch for the learner's per-sample training pass.
///
/// DqnAgent::LearnStep runs SetQNetwork::ForwardAction + BackwardInto for
/// every sampled transition through this workspace on each pool thread;
/// once warm, a training pass performs zero heap allocations (see
/// tests/nn/allocation_free_test.cc). It is kept apart from
/// InferenceWorkspace, so threads that only score never carry the backward
/// scratch, and from the bootstrap-target cache in core/dqn_agent.cc,
/// which replay-time target recomputation uses inside the learner body.
struct LearnerWorkspace {
  SetQNetwork::Cache cache;
  SetQNetwork::BackwardScratch scratch;
  Matrix grad_q;  // 1×1 gradient of Q(s, a)

  static LearnerWorkspace& ThreadLocal() {
    thread_local LearnerWorkspace ws;
    return ws;
  }
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_WORKSPACE_H_
