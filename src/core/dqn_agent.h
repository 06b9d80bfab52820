#ifndef CROWDRL_CORE_DQN_AGENT_H_
#define CROWDRL_CORE_DQN_AGENT_H_

#include <vector>

#include "nn/optimizer.h"
#include "nn/set_qnetwork.h"
#include "rl/prioritized_replay.h"
#include "rl/transition.h"

namespace crowdrl {

/// \brief Read-only (online, target) network pair to score and bootstrap
/// against — either a live agent's current nets or an immutable published
/// snapshot of them (the arrangement service's actors never touch the
/// learner's live parameters).
struct QNetView {
  const SetQNetwork* online = nullptr;
  const SetQNetwork* target = nullptr;
  explicit operator bool() const { return online != nullptr; }
};

/// The expectation-form future value
///   Σ_branch Σ_segment prob × Q̃(s', argmax_{a'} Q(s', a'))
/// evaluated against an explicit network pair. Shared by the live-agent
/// path (DqnAgent::ComputeFutureValue) and the serving path, where targets
/// are computed against a consistent parameter snapshot.
double FutureValueUnder(const QNetView& view, const FutureStateSpec& future,
                        bool double_q);

/// Configuration of one DQN (there are two: Q-network(w) and Q-network(r)).
/// Defaults follow Sec. VII-B1: buffer 1000, target copy every 100
/// iterations, lr 1e-3, batch 64, γ = 0.3 (workers) / 0.5 (requesters).
struct DqnAgentConfig {
  SetQNetworkConfig net;
  OptimizerConfig opt;
  PrioritizedReplayConfig replay;
  double gamma = 0.3;
  size_t batch_size = 64;
  /// Run a learner step every k-th stored transition (1 = paper's
  /// update-per-feedback; >1 trades fidelity for CPU time).
  int learn_every = 1;
  int target_sync_every = 100;
  /// Double DQN action selection (paper uses [27]); false = vanilla DQN
  /// (max over the target network) for the ablation bench.
  bool double_q = true;
  /// Recompute Bellman targets at replay time instead of once at store
  /// time. More faithful to textbook DQN but ~an order of magnitude more
  /// compute per learner step; requires keeping future specs in memory.
  bool recompute_targets_on_replay = false;
  uint64_t seed = 1234;
};

/// \brief One Deep Q-Network learner (the "Q-Network + Memory + Learner +
/// Future-State-Predictor output" column of Fig. 2).
///
/// Differences from textbook DQN, per the paper:
///  * the Bellman target is an *expectation over predicted future states*
///    (Eq. 3 / Eq. 6) — the attached FutureStateSpec enumerates (pool,
///    probability) outcomes, and the target sums prob × Q̃(s', argmax_a Q);
///  * double Q-learning decouples action selection (online net) from
///    evaluation (target net);
///  * prioritized experience replay with importance-sampling correction.
///
/// Learner steps are parallelized across CPU cores: each worker thread
/// trains a slice of the minibatch against the shared (read-only) network
/// and accumulates into its own gradient store; gradients are then reduced
/// in chunk order and applied with Adam. Since the loss reads only
/// Q(s, a), each sample trains through SetQNetwork's action-row pass
/// (ForwardAction + BackwardInto) in a thread-local LearnerWorkspace, which
/// allocates nothing once warm. That pass runs the dense pass's float
/// operations minus the ones spent on zero-gradient rows, so on the
/// portable build it is bit-exact with a dense per-sample ForwardInto +
/// Backward loop (the test reference in tests/core/dqn_agent_test.cc) —
/// the learner must stay bit-exact because perfbench replays recorded
/// quality rows bit for bit.
class DqnAgent {
 public:
  explicit DqnAgent(const DqnAgentConfig& config);

  const DqnAgentConfig& config() const { return config_; }

  /// Q values of the first `valid_n` rows of `state` under the online net.
  std::vector<double> Scores(const Matrix& state, size_t valid_n) const;

  /// The future-value expectation
  ///   Σ_branch Σ_segment prob × Q̃(s', argmax_{a'} Q(s', a')).
  /// Exposed separately because all transitions stored from one feedback
  /// event share the same future spec — the framework evaluates it once
  /// and derives each target as r_i + γ·value.
  double ComputeFutureValue(const FutureStateSpec& future) const;

  /// Expectation-form Bellman target:
  ///   y = r + γ Σ_branch Σ_segment prob × Q̃(s', argmax_{a'} Q(s', a')).
  double ComputeTarget(float reward, const FutureStateSpec& future) const;

  /// Stores a transition: computes its target (unless replay-recompute is
  /// on), assigns max priority, and releases the future spec if it is no
  /// longer needed.
  void Store(Transition t);

  /// Stores a transition whose target (or retained future spec, in
  /// replay-recompute mode) was already prepared by the caller — the
  /// learner-side half of the actor/learner split, where actors mint
  /// transitions with snapshot-computed targets and the learner only
  /// buffers and trains.
  void StorePrepared(Transition t);

  /// View of the current (online, target) parameters for const scoring.
  QNetView View() const { return {&online_, &target_}; }

  /// Runs a learner step when the learn_every counter fires and the buffer
  /// has at least one batch. Returns whether a gradient step happened.
  bool MaybeLearn();

  /// Forces one minibatch gradient step (if the buffer allows).
  bool LearnStep();

  /// Mutable access to the online net (tests, ablations). Direct mutation
  /// bypasses the version counters below, so snapshot delta-publication
  /// must not be combined with out-of-band parameter writes.
  SetQNetwork& online() { return online_; }
  const SetQNetwork& online() const { return online_; }
  const SetQNetwork& target_net() const { return target_; }

  /// Hard-copies θ̃ ← θ immediately (used after restoring a checkpoint).
  void SyncTarget() {
    target_.CopyFrom(online_);
    ++target_version_;
  }

  /// Restores θ from a checkpointed copy and hard-syncs θ̃ — the one
  /// sanctioned external parameter write (TaskArrangementFramework::
  /// LoadState), so both version counters advance.
  void RestoreOnline(const SetQNetwork& net) {
    online_.CopyFrom(net);
    ++online_version_;
    SyncTarget();
  }

  /// Mutation counters of the two parameter sets: online bumps on every
  /// applied gradient step, target on every hard sync. They let a snapshot
  /// publisher reuse the previous immutable copy of any net that has not
  /// changed since the last publish (delta-publication) instead of deep-
  /// copying every network on every publish.
  uint64_t online_version() const { return online_version_; }
  uint64_t target_version() const { return target_version_; }

  int64_t learn_steps() const { return learn_steps_; }
  int64_t stored() const { return store_count_; }
  /// Mean weighted squared TD error of the last learner step.
  double last_loss() const { return last_loss_; }

  /// Replay capacity-planning counters (atomic-backed; safe to read from
  /// a stats thread while the learner trains).
  size_t replay_transitions() const { return replay_.size(); }
  size_t replay_bytes() const { return replay_.ApproxBytes(); }

 private:
  DqnAgentConfig config_;
  Rng rng_;
  SetQNetwork online_;
  SetQNetwork target_;
  Adam optimizer_;
  PrioritizedReplay replay_;
  PrioritizedReplay::Batch batch_;
  int64_t store_count_ = 0;
  int64_t learn_steps_ = 0;
  uint64_t online_version_ = 0;
  uint64_t target_version_ = 0;
  double last_loss_ = 0;
  /// Persistent per-chunk gradient stores (avoids re-allocating ~MBs of
  /// gradient buffers every learner step).
  std::vector<SetQNetwork::Gradients> chunk_grads_;
  /// Per-sample TD errors and weighted squared errors of the current step,
  /// reused across steps.
  std::vector<double> td_;
  std::vector<double> weighted_sq_;
};

}  // namespace crowdrl

#endif  // CROWDRL_CORE_DQN_AGENT_H_
