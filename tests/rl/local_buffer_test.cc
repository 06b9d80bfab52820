#include "rl/local_buffer.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/bounded_queue.h"

namespace crowdrl {
namespace {

TEST(LocalBufferTest, FlushesFullBlocksAutomatically) {
  std::vector<std::vector<int>> received;
  LocalBuffer<int> buf(
      [&](std::vector<int>&& block) {
        received.push_back(std::move(block));
        return true;
      },
      /*block_size=*/3);

  for (int i = 0; i < 7; ++i) buf.Add(i);
  ASSERT_EQ(received.size(), 2u);  // two full blocks
  EXPECT_EQ(received[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(received[1], (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(buf.pending(), 1u);

  EXPECT_TRUE(buf.Flush());  // partial block on demand
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[2], (std::vector<int>{6}));
  EXPECT_EQ(buf.pending(), 0u);
  EXPECT_TRUE(buf.Flush());  // nothing left: trivially true

  EXPECT_EQ(buf.added(), 7);
  EXPECT_EQ(buf.flushed_blocks(), 3);
  EXPECT_EQ(buf.flushed_items(), 7);
  EXPECT_EQ(buf.dropped_blocks(), 0);
}

TEST(LocalBufferTest, RejectedBlocksAreDroppedAndCounted) {
  LocalBuffer<int> buf([](std::vector<int>&&) { return false; },
                       /*block_size=*/2);
  buf.Add(1);
  buf.Add(2);  // triggers a flush that the sink rejects
  EXPECT_EQ(buf.pending(), 0u);  // dropped, not retried
  EXPECT_EQ(buf.dropped_blocks(), 1);
  EXPECT_EQ(buf.dropped_items(), 2);
  EXPECT_EQ(buf.flushed_blocks(), 0);
}

TEST(LocalBufferTest, PerProducerBuffersFeedOneSharedQueue) {
  // The serve-pipeline shape: one LocalBuffer per producer thread, all
  // flushing blocks into a shared bounded queue drained by one consumer.
  constexpr int kProducers = 4;
  constexpr int kItems = 200;
  BoundedQueue<std::vector<int>> queue(8);

  long long sum = 0;
  int items = 0;
  std::thread consumer([&] {
    while (auto block = queue.Pop()) {
      for (int v : *block) {
        sum += v;
        ++items;
      }
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      LocalBuffer<int> buf(
          [&queue](std::vector<int>&& block) {
            return queue.Push(std::move(block));
          },
          /*block_size=*/7);
      for (int i = 0; i < kItems; ++i) buf.Add(p * kItems + i);
      EXPECT_TRUE(buf.Flush());
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  consumer.join();

  const long long n = kProducers * kItems;
  EXPECT_EQ(items, n);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

}  // namespace
}  // namespace crowdrl
