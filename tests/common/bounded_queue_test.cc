#include "common/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/stopwatch.h"

namespace crowdrl {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, CapacityBlocksProducerUntilConsumed) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(3));  // must block until a Pop frees a slot
    third_pushed = true;
  });
  // The producer cannot complete while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEmpty) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.Push(7));
  q.Close();
  EXPECT_FALSE(q.Push(8));  // rejected after close
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.Pop().has_value());  // drained
}

TEST(BoundedQueueTest, CloseReleasesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, PopBatchCoalescesUpToMax) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 3, /*coalesce_us=*/0), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.PopBatch(&out, 8, /*coalesce_us=*/0), 2u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(BoundedQueueTest, PopBatchWaitsWithinWindowForStragglers) {
  BoundedQueue<int> q(16);
  ASSERT_TRUE(q.Push(1));
  std::thread straggler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(q.Push(2));
  });
  std::vector<int> out;
  // Generous window: the straggler lands inside it and joins the batch.
  const size_t n = q.PopBatch(&out, 4, /*coalesce_us=*/500000);
  straggler.join();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

// ---- producer bound: each producer has at most one item queued ----

TEST(BoundedQueueTest, PopBatchClosesOnceEveryProducerHasAnItem) {
  BoundedQueue<int> q(16);
  std::atomic<size_t> producers{2};
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::vector<int> out;
  Stopwatch sw;
  // No third item can come, so the 500 ms window must not be waited out.
  EXPECT_EQ(q.PopBatch(&out, 8, /*coalesce_us=*/500000, &producers), 2u);
  EXPECT_LT(sw.ElapsedSeconds(), 0.25);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BoundedQueueTest, PopBatchBelowTheProducerBoundWaitsForStraggler) {
  BoundedQueue<int> q(16);
  std::atomic<size_t> producers{2};
  ASSERT_TRUE(q.Push(1));
  std::thread straggler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(q.Push(2));
  });
  std::vector<int> out;
  Stopwatch sw;
  const size_t n = q.PopBatch(&out, 8, /*coalesce_us=*/500000, &producers);
  straggler.join();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  // ...and closes as soon as the straggler made the batch full.
  EXPECT_LT(sw.ElapsedSeconds(), 0.25);
}

TEST(BoundedQueueTest, PopBatchRereadsARisingProducerBound) {
  BoundedQueue<int> q(16);
  std::atomic<size_t> producers{2};
  ASSERT_TRUE(q.Push(1));
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    producers.fetch_add(1);  // a third producer joins mid-window
    ASSERT_TRUE(q.Push(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(q.Push(3));
  });
  std::vector<int> out;
  const size_t n = q.PopBatch(&out, 8, /*coalesce_us=*/500000, &producers);
  late.join();
  // A bound read once at entry (2) would have closed after item 2.
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedQueueTest, PopBatchZeroProducerBoundNeverYieldsEmptyBatch) {
  BoundedQueue<int> q(16);
  std::atomic<size_t> producers{0};
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(q.Push(7));
  });
  std::vector<int> out;
  Stopwatch sw;
  // The bound clamps to 1: block for the first item, then return it.
  EXPECT_EQ(q.PopBatch(&out, 8, /*coalesce_us=*/500000, &producers), 1u);
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_LT(sw.ElapsedSeconds(), 0.25);
}

TEST(BoundedQueueTest, PopBatchReturnsZeroWhenClosedAndDrained) {
  BoundedQueue<int> q(4);
  q.Close();
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 4, 1000), 0u);
}

TEST(BoundedQueueTest, ConcurrentProducersConsumersConserveItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(16);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        ++popped;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---- TryPushFor: the admission-control push ----

using PushResult = BoundedQueue<int>::PushResult;

TEST(BoundedQueueTest, TryPushForEnqueuesWhenSpaceIsFree) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.TryPushFor(1, /*budget_us=*/0), PushResult::kOk);
  EXPECT_EQ(q.TryPushFor(2, /*budget_us=*/0), PushResult::kOk);
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, TryPushForTimesOutOnFullQueue) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(7));
  // Zero budget: a single full check, no wait.
  EXPECT_EQ(q.TryPushFor(8, /*budget_us=*/0), PushResult::kTimeout);
  // Small budget with no consumer: the deadline elapses.
  EXPECT_EQ(q.TryPushFor(8, /*budget_us=*/2000), PushResult::kTimeout);
  EXPECT_EQ(q.size(), 1u);  // the timed-out items were dropped
  EXPECT_EQ(*q.Pop(), 7);
}

TEST(BoundedQueueTest, TryPushForSucceedsWhenConsumerFreesSpaceInBudget) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(7));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(*q.Pop(), 7);
  });
  // Generous budget: the push must latch on as soon as the pop frees a
  // slot, well before the deadline.
  EXPECT_EQ(q.TryPushFor(8, /*budget_us=*/2000000), PushResult::kOk);
  consumer.join();
  EXPECT_EQ(*q.Pop(), 8);
}

TEST(BoundedQueueTest, TryPushForOnClosedQueueReportsClosed) {
  BoundedQueue<int> q(4);
  q.Close();
  EXPECT_EQ(q.TryPushFor(1, /*budget_us=*/0), PushResult::kClosed);
  EXPECT_EQ(q.TryPushFor(1, /*budget_us=*/1000), PushResult::kClosed);
}

TEST(BoundedQueueTest, CloseWakesBlockedTryPushForWithClosed) {
  // The close/TryPushFor race: a producer parked mid-budget on a full
  // queue must be released by Close with kClosed (not left to ride out
  // its budget, and never reported as a mere timeout after shutdown).
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] {
    const Stopwatch wait;
    EXPECT_EQ(q.TryPushFor(2, /*budget_us=*/30000000),  // 30 s budget
              PushResult::kClosed);
    EXPECT_LT(wait.ElapsedSeconds(), 10.0);  // released by Close, not budget
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
}

TEST(BoundedQueueTest, ConcurrentTryPushForAndCloseNeverLosesAccounting) {
  // Hammer the race from many sides: every TryPushFor outcome must be
  // kOk, kTimeout or kClosed, and exactly the kOk items may be drained.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> q(2);
  std::atomic<int> ok{0}, timeout{0}, closed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        switch (q.TryPushFor(i, /*budget_us=*/50)) {
          case PushResult::kOk: ++ok; break;
          case PushResult::kTimeout: ++timeout; break;
          case PushResult::kClosed: ++closed; break;
        }
      }
    });
  }
  std::atomic<int> drained{0};
  std::thread consumer([&] {
    while (q.Pop()) ++drained;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.Close();
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(ok + timeout + closed, kProducers * kPerProducer);
  EXPECT_EQ(drained.load(), ok.load());
}

}  // namespace
}  // namespace crowdrl
