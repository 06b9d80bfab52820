#ifndef CROWDRL_RL_TRANSITION_H_
#define CROWDRL_RL_TRANSITION_H_

#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace crowdrl {

/// \brief Distribution over *future states* attached to a stored transition.
///
/// The paper replaces the sampled next state of vanilla DQN with an explicit
/// expectation over predicted future states (Eq. 3 / Eq. 6). A future state
/// differs from the current one only in (a) the worker feature component of
/// each row and (b) which tasks have expired by the (stochastic) future
/// timestamp. Because tasks expire monotonically in deadline order, all
/// possible future pools are *prefixes* of a branch's `base` matrix when its
/// rows are sorted by deadline descending. Each (valid_n, prob) segment
/// encodes "with probability `prob`, the future pool is the first `valid_n`
/// rows" — the paper's observation that "the maximum times we compute
/// max Q is maxT".
///
/// Branches capture the next-*worker* uncertainty of MDP(r): the default
/// expectation method uses a single branch whose worker feature is
/// E[f_{w_{i+1}}]; the exact top-K method uses one branch per candidate
/// worker. MDP(w) always has exactly one branch (the same worker returns).
///
/// Σ over all branches/segments of `prob` is ≤ 1: probability mass beyond
/// the gap-distribution support contributes no future term, exactly as the
/// paper truncates φ at one week and ϕ at one hour.
struct FutureStateSpec {
  struct Branch {
    Matrix base;  ///< future-state rows, deadline-descending order
    std::vector<std::pair<size_t, float>> segments;  ///< (valid_n, prob)
  };
  std::vector<Branch> branches;

  bool empty() const { return branches.empty(); }
  /// Releases the (potentially large) state matrices once the Bellman
  /// target has been computed.
  void Clear() { branches.clear(); }
  /// Total probability mass across all segments.
  double TotalMass() const {
    double m = 0;
    for (const auto& b : branches) {
      for (const auto& seg : b.segments) m += seg.second;
    }
    return m;
  }

  /// Approximate heap + inline footprint in bytes. Counts live elements
  /// (size), not reserved capacity.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(branches) + branches.size() * sizeof(Branch);
    for (const auto& b : branches) {
      bytes += b.base.rows() * b.base.cols() * sizeof(float);
      bytes += b.segments.size() * sizeof(std::pair<size_t, float>);
    }
    return bytes;
  }
};

/// \brief One stored experience (s_i, a_i, r_i, future-distribution).
struct Transition {
  Matrix state;        ///< n×d state matrix from the StateTransformer
  size_t valid_n = 0;  ///< number of real (non-padding) task rows
  int action_row = -1; ///< row index of the acted-on task within `state`
  float reward = 0.0f; ///< r_i (completion indicator or quality gain)
  FutureStateSpec future;

  /// Bellman target, computed when the transition is stored (the default)
  /// or refreshed at replay time (config option).
  double target = 0.0;

  /// Approximate memory footprint (struct + owned payload) in bytes —
  /// the unit of the serve stack's `replay_bytes` capacity-planning
  /// counter. Sized on live elements, not vector capacity.
  size_t ApproxBytes() const {
    return sizeof(Transition) + state.rows() * state.cols() * sizeof(float) +
           future.ApproxBytes() - sizeof(FutureStateSpec);
  }
};

}  // namespace crowdrl

#endif  // CROWDRL_RL_TRANSITION_H_
