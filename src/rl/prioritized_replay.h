#ifndef CROWDRL_RL_PRIORITIZED_REPLAY_H_
#define CROWDRL_RL_PRIORITIZED_REPLAY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rl/transition.h"

namespace crowdrl {

/// Hyper-parameters of proportional prioritized replay (Schaul et al. [25]).
struct PrioritizedReplayConfig {
  size_t capacity = 1000;  ///< paper: "buffer size for DDQN is 1000"
  double alpha = 0.6;      ///< priority exponent
  double beta0 = 0.4;      ///< initial importance-sampling exponent
  double beta_anneal_steps = 20000;  ///< linear β → 1 over this many samples
  double min_priority = 1e-3;        ///< floor so nothing starves
};

/// \brief Proportional prioritized experience replay backed by a sum tree —
/// the learner's one production buffer.
///
/// Priorities are |TD error|^α; sampling is stratified over the cumulative
/// mass; importance-sampling weights (N·P(i))^{−β} / max_j w_j correct the
/// induced bias, with β annealed toward 1. Transitions are stored boxed in
/// a ring of `capacity` slots.
///
/// Not internally synchronized: its one owner (a DqnAgent) adds, samples
/// and re-prioritizes on the serial framework's thread or under the serving
/// shard's learner lock. Only `size()` and `ApproxBytes()` are atomic, so a
/// stats reader may poll them while the learner trains.
class PrioritizedReplay {
 public:
  explicit PrioritizedReplay(const PrioritizedReplayConfig& config);

  PrioritizedReplay(const PrioritizedReplay&) = delete;
  PrioritizedReplay& operator=(const PrioritizedReplay&) = delete;

  /// One sampled minibatch. The learner keeps one across steps, so its
  /// vectors reach a steady capacity and sampling allocates nothing.
  struct Batch {
    std::vector<size_t> slots;
    std::vector<float> weights;  ///< normalized IS weights in (0, 1]
    /// The sampled transitions, pointing into the buffer's slots: valid
    /// until the next Add.
    std::vector<const Transition*> items;
  };

  /// Stores `t` in the next ring slot with max-seen priority (new
  /// experiences replay at least once) and returns the slot.
  size_t Add(Transition t);

  /// Stratified sample of `batch` slots into `*out` (resized to `batch`).
  /// Requires a non-empty buffer. When the total mass is zero it falls
  /// back to uniform draws with all weights 1. Advances the β annealing
  /// clock either way.
  void SampleBatchInto(size_t batch, Rng* rng, Batch* out);

  /// Re-prioritizes a slot after its TD error was re-evaluated.
  void UpdatePriority(size_t slot, double td_error);
  /// Re-prioritizes `slots[i]` with TD error `td_errors[i]`, in order.
  void UpdatePriorities(const std::vector<size_t>& slots,
                        const std::vector<double>& td_errors);

  const Transition& at(size_t slot) const { return items_[slot]; }

  /// Transitions resident in the buffer.
  size_t size() const { return size_.load(std::memory_order_acquire); }
  /// Sum of `Transition::ApproxBytes()` over the resident transitions.
  size_t ApproxBytes() const {
    return approx_bytes_.load(std::memory_order_acquire);
  }
  size_t capacity() const { return config_.capacity; }
  bool empty() const { return size() == 0; }
  double total_priority() const { return tree_[1]; }
  double beta() const;

 private:
  void SetLeaf(size_t leaf, double value);
  size_t FindPrefix(double mass) const;

  PrioritizedReplayConfig config_;
  size_t leaves_;              // power-of-two leaf count
  std::vector<double> tree_;   // 1-indexed implicit binary tree
  std::vector<Transition> items_;
  size_t next_ = 0;
  double max_priority_ = 1.0;
  int64_t sample_steps_ = 0;
  std::vector<double> raw_weights_;  // SampleBatchInto scratch: (N·P)^{−β}
  std::atomic<size_t> size_{0};
  std::atomic<size_t> approx_bytes_{0};
};

}  // namespace crowdrl

#endif  // CROWDRL_RL_PRIORITIZED_REPLAY_H_
