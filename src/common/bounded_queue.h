#ifndef CROWDRL_COMMON_BOUNDED_QUEUE_H_
#define CROWDRL_COMMON_BOUNDED_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <vector>

#include "common/mutex.h"

namespace crowdrl {

/// \brief Bounded multi-producer/multi-consumer queue — the hand-off
/// primitive of the asynchronous arrangement service (actor threads push
/// rank requests and transition blocks; the batcher and learner threads
/// drain them).
///
/// The bound is the service's backpressure mechanism: when the learner
/// falls behind, producers block in Push instead of growing an unbounded
/// backlog. Close() releases everyone — blocked producers return false,
/// consumers drain whatever is left and then receive "empty". TryPushFor
/// adds the admission-control variant: a producer with a latency budget
/// waits only that long for space and learns *why* it failed (closed vs
/// timed out), which is what lets a service shed instead of block.
///
/// Thread-safety is machine-checked: `items_`/`closed_` are
/// CROWDRL_GUARDED_BY(mu_) and every wait is an explicit condition loop in
/// the analyzed, lock-holding scope (see common/mutex.h).
template <typename T>
class BoundedQueue {
 public:
  /// Outcome of a bounded-wait push.
  enum class PushResult {
    kOk,       ///< item enqueued
    kClosed,   ///< queue closed (item dropped)
    kTimeout,  ///< budget elapsed with the queue still full (item dropped)
  };

  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false iff the queue was
  /// closed (the item is dropped).
  bool Push(T item) {
    {
      MutexLock lk(mu_);
      while (items_.size() >= capacity_ && !closed_) {
        not_full_.Wait(mu_, lk);
      }
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Deadline-aware Push: waits at most `budget_us` microseconds for queue
  /// space (0 = try once, no wait). The item is dropped unless kOk is
  /// returned. Close() wakes waiters immediately with kClosed, even
  /// mid-budget — the admission-control path must never outlive shutdown.
  PushResult TryPushFor(T item, int64_t budget_us) {
    {
      MutexLock lk(mu_);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(budget_us < 0 ? 0 : budget_us);
      while (items_.size() >= capacity_ && !closed_) {
        if (!not_full_.WaitUntil(mu_, lk, deadline)) break;  // budget spent
      }
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kTimeout;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return PushResult::kOk;
  }

  /// Blocks while the queue is empty. Returns nullopt iff the queue was
  /// closed and fully drained.
  std::optional<T> Pop() {
    MutexLock lk(mu_);
    while (items_.empty() && !closed_) {
      not_empty_.Wait(mu_, lk);
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.Unlock();
    not_full_.NotifyOne();
    return item;
  }

  /// Micro-batching pop: blocks until at least one item is available (or
  /// the queue is closed and drained), then keeps draining up to
  /// `max_items`, waiting at most `coalesce_us` microseconds for
  /// stragglers to join the batch. Appends to `*out`; returns the number
  /// of items appended (0 iff closed and drained).
  ///
  /// `producers`, when given, counts the producers that can each have at
  /// most one item in the queue at a time (they block until their item is
  /// answered). Once the batch holds that many items no straggler can
  /// arrive, so the window closes early. The count is re-read on every
  /// wake, so a producer that appears mid-window is still waited for, and
  /// it is clamped to at least 1 so an open queue never yields an empty
  /// batch.
  size_t PopBatch(std::vector<T>* out, size_t max_items, int64_t coalesce_us,
                  const std::atomic<size_t>* producers = nullptr) {
    const size_t before = out->size();
    MutexLock lk(mu_);
    while (items_.empty() && !closed_) {
      not_empty_.Wait(mu_, lk);
    }
    if (items_.empty()) return 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(coalesce_us);
    for (;;) {
      while (!items_.empty() && out->size() - before < max_items) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
      const size_t taken = out->size() - before;
      if (taken >= max_items || closed_ || coalesce_us <= 0 ||
          (producers != nullptr &&
           taken >= std::max<size_t>(1, producers->load()))) {
        break;
      }
      bool window_elapsed = false;
      while (items_.empty() && !closed_) {
        if (!not_empty_.WaitUntil(mu_, lk, deadline)) {
          window_elapsed = true;  // coalescing window elapsed
          break;
        }
      }
      if (window_elapsed) break;
      if (items_.empty()) break;  // woken by Close with nothing left
    }
    lk.Unlock();
    not_full_.NotifyAll();
    return out->size() - before;
  }

  /// Wakes every blocked producer (returns false) and consumer (drains,
  /// then empty). Idempotent.
  void Close() {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const {
    MutexLock lk(mu_);
    return closed_;
  }

  size_t size() const {
    MutexLock lk(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ CROWDRL_GUARDED_BY(mu_);
  bool closed_ CROWDRL_GUARDED_BY(mu_) = false;
};

}  // namespace crowdrl

#endif  // CROWDRL_COMMON_BOUNDED_QUEUE_H_
