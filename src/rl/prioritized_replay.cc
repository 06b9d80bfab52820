#include "rl/prioritized_replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace crowdrl {

PrioritizedReplay::PrioritizedReplay(const PrioritizedReplayConfig& config)
    : config_(config) {
  CROWDRL_CHECK(config.capacity > 0);
  leaves_ = 1;
  while (leaves_ < config.capacity) leaves_ <<= 1;
  tree_.assign(2 * leaves_, 0.0);
  items_.resize(config.capacity);
}

void PrioritizedReplay::SetLeaf(size_t leaf, double value) {
  size_t node = leaves_ + leaf;
  tree_[node] = value;
  for (node >>= 1; node >= 1; node >>= 1) {
    tree_[node] = tree_[2 * node] + tree_[2 * node + 1];
    if (node == 1) break;
  }
}

size_t PrioritizedReplay::FindPrefix(double mass) const {
  size_t node = 1;
  while (node < leaves_) {
    const double left = tree_[2 * node];
    if (mass < left) {
      node = 2 * node;
    } else {
      mass -= left;
      node = 2 * node + 1;
    }
  }
  size_t leaf = node - leaves_;
  // Guard against floating-point drift selecting an empty slot.
  const size_t n = size();
  if (leaf >= n) leaf = n == 0 ? 0 : n - 1;
  return leaf;
}

size_t PrioritizedReplay::Add(Transition t) {
  const size_t slot = next_;
  SetLeaf(slot, std::pow(max_priority_, config_.alpha));
  next_ = (next_ + 1) % config_.capacity;
  // Slots fill in ring order, so the claimed slot holds an occupant
  // exactly when the buffer is already full.
  const size_t n = size();
  size_t bytes = approx_bytes_.load(std::memory_order_relaxed);
  if (n == config_.capacity) bytes -= items_[slot].ApproxBytes();
  bytes += t.ApproxBytes();
  items_[slot] = std::move(t);
  approx_bytes_.store(bytes, std::memory_order_release);
  size_.store(std::min(n + 1, config_.capacity), std::memory_order_release);
  return slot;
}

double PrioritizedReplay::beta() const {
  const double frac =
      std::min(1.0, static_cast<double>(sample_steps_) /
                        std::max(1.0, config_.beta_anneal_steps));
  return config_.beta0 + (1.0 - config_.beta0) * frac;
}

void PrioritizedReplay::SampleBatchInto(size_t batch, Rng* rng, Batch* out) {
  const size_t n = size();
  CROWDRL_CHECK(n > 0);
  out->slots.resize(batch);
  out->weights.resize(batch);
  out->items.resize(batch);
  const double total = tree_[1];
  // Both branches must advance the annealing clock: the uniform fallback
  // used to skip it, silently stalling the beta schedule whenever the tree
  // mass hit zero (e.g. min_priority == 0 with all-zero TD errors).
  const double b = beta();
  sample_steps_ += static_cast<int64_t>(batch);
  if (total <= 0) {
    for (size_t i = 0; i < batch; ++i) {
      out->slots[i] = rng->UniformInt(n);
      out->weights[i] = 1.0f;
    }
  } else {
    raw_weights_.resize(batch);
    const double segment = total / static_cast<double>(batch);
    double max_weight = 0.0;
    for (size_t i = 0; i < batch; ++i) {
      // Stratified: one draw per equal-mass segment.
      const double mass = (static_cast<double>(i) + rng->Uniform()) * segment;
      const size_t slot = FindPrefix(std::min(mass, total * (1.0 - 1e-12)));
      const double prob = tree_[leaves_ + slot] / total;
      const double w =
          std::pow(static_cast<double>(n) * std::max(prob, 1e-12), -b);
      out->slots[i] = slot;
      raw_weights_[i] = w;
      max_weight = std::max(max_weight, w);
    }
    for (size_t i = 0; i < batch; ++i) {
      out->weights[i] = static_cast<float>(raw_weights_[i] / max_weight);
    }
  }
  for (size_t i = 0; i < batch; ++i) out->items[i] = &items_[out->slots[i]];
}

void PrioritizedReplay::UpdatePriority(size_t slot, double td_error) {
  CROWDRL_CHECK(slot < config_.capacity);
  const double p = std::max(std::fabs(td_error), config_.min_priority);
  max_priority_ = std::max(max_priority_, p);
  SetLeaf(slot, std::pow(p, config_.alpha));
}

void PrioritizedReplay::UpdatePriorities(const std::vector<size_t>& slots,
                                         const std::vector<double>& td_errors) {
  CROWDRL_CHECK(slots.size() == td_errors.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    UpdatePriority(slots[i], td_errors[i]);
  }
}

}  // namespace crowdrl
