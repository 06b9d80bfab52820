#include "serve/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "serve/workload.h"

namespace crowdrl {
namespace {

ServeWorkloadConfig SmallWorkloadConfig() {
  ServeWorkloadConfig cfg;
  cfg.num_workers = 16;
  cfg.num_tasks = 24;
  cfg.pool_size = 6;
  cfg.warm_completions = 64;
  cfg.seed = 11;
  return cfg;
}

FrameworkConfig SmallFrameworkConfig() {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.worker_dqn.net.hidden_dim = 16;
  cfg.worker_dqn.net.num_heads = 2;
  cfg.worker_dqn.batch_size = 8;
  cfg.worker_dqn.replay.capacity = 128;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 8;
  cfg.requester_dqn.replay.capacity = 128;
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 1;
  cfg.learn_from_history = false;
  cfg.seed = 21;
  return cfg;
}

bool IsPermutation(const std::vector<int>& ranking, size_t n) {
  if (ranking.size() != n) return false;
  std::vector<uint8_t> seen(n, 0);
  for (int idx : ranking) {
    if (idx < 0 || static_cast<size_t>(idx) >= n || seen[idx]) return false;
    seen[idx] = 1;
  }
  return true;
}

/// Drives `actors` concurrent sessions through `events_per_actor` full
/// rank→feedback interactions and returns the service stats after a clean
/// flush + stop.
ServiceStats DriveConcurrently(const ServeWorkload& workload,
                               ServiceShard* service, int actors,
                               int events_per_actor) {
  std::atomic<int64_t> arrival_counter{0};
  std::atomic<int> bad_rankings{0};
  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(1000 + a);
      auto session = service->NewSession();
      for (int i = 0; i < events_per_actor; ++i) {
        const int64_t index = arrival_counter.fetch_add(1);
        const Observation obs = workload.MakeObservation(index, &rng);
        service->RecordArrival(obs);
        ServiceShard::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        if (!IsPermutation(ranking, obs.tasks.size())) ++bad_rankings;
        const Feedback feedback =
            workload.SimulateFeedback(obs, ranking, &rng);
        session->Feedback(obs, ticket, ranking, feedback);
      }
      EXPECT_TRUE(session->Flush());
    });
  }
  for (auto& t : threads) t.join();
  service->Stop();  // drains: every flushed block is learned
  EXPECT_EQ(bad_rankings.load(), 0);
  return service->stats();
}

TEST(ArrangementServiceTest, ServesConcurrentActorsAndLearnsEverything) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window_us = 200;
  cfg.flush_block_events = 3;
  cfg.publish_every_events = 4;
  ServiceShard service(&framework, cfg);
  service.Start();

  constexpr int kActors = 4;
  constexpr int kEvents = 60;
  const ServiceStats stats =
      DriveConcurrently(workload, &service, kActors, kEvents);

  EXPECT_EQ(stats.requests, kActors * kEvents);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.events_submitted, kActors * kEvents);
  // Stop() drains the learner queue: nothing flushed goes unlearned.
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_EQ(stats.blocks_dropped, 0);
  EXPECT_GT(stats.batches, 0);
  EXPECT_GE(stats.mean_batch_size, 1.0);
  // Learner published along the way (initial snapshot is version 1).
  EXPECT_GT(stats.snapshot_version, 1u);
  // Latency percentiles are populated and ordered.
  EXPECT_EQ(stats.rank_count, kActors * kEvents);
  EXPECT_GT(stats.rank_latency_p50_ms, 0.0);
  EXPECT_LE(stats.rank_latency_p50_ms, stats.rank_latency_p95_ms);
  EXPECT_LE(stats.rank_latency_p95_ms, stats.rank_latency_p99_ms);
  EXPECT_LE(stats.rank_latency_p99_ms, stats.rank_latency_max_ms);
  // And the framework actually trained.
  EXPECT_GT(framework.transitions_stored(), 0);
}

TEST(ArrangementServiceTest, InlineLearningProcessesSynchronously) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.inline_learning = true;
  cfg.publish_every_events = 1;
  ServiceShard service(&framework, cfg);
  service.Start();

  Rng rng(5);
  auto session = service.NewSession();
  for (int i = 0; i < 10; ++i) {
    const Observation obs = workload.MakeObservation(i, &rng);
    service.RecordArrival(obs);
    ServiceShard::Ticket ticket;
    const std::vector<int> ranking = session->Rank(obs, &ticket);
    ASSERT_TRUE(IsPermutation(ranking, obs.tasks.size()));
    session->Feedback(obs, ticket,
                      ranking, workload.SimulateFeedback(obs, ranking, &rng));
    // Inline learning with block size 1: learned before Feedback returns.
    EXPECT_EQ(service.stats().events_processed, i + 1);
    // Per-event publication: initial snapshot + one per event.
    EXPECT_EQ(service.stats().snapshot_version,
              static_cast<uint64_t>(i) + 2);
  }
  session.reset();
  service.Stop();
}

TEST(ArrangementServiceTest, SnapshotVersionsAdvanceAndViewsAreConsistent) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();
  const auto snap1 = service.CurrentSnapshot();
  EXPECT_EQ(snap1->version, 1u);
  ASSERT_TRUE(snap1->worker.has_value());
  ASSERT_TRUE(snap1->requester.has_value());

  service.PublishNow();
  const auto snap2 = service.CurrentSnapshot();
  EXPECT_EQ(snap2->version, 2u);
  // The old snapshot stays alive and unchanged for holders of the ref.
  EXPECT_EQ(snap1->version, 1u);

  const ScoringView view = snap2->View();
  EXPECT_TRUE(static_cast<bool>(view.worker));
  EXPECT_TRUE(static_cast<bool>(view.requester));
  service.Stop();
}

TEST(ArrangementServiceTest, RankAfterStopDegradesToObservationOrder) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();
  service.Stop();

  Rng rng(9);
  auto session = service.NewSession();
  const Observation obs = workload.MakeObservation(0, &rng);
  ServiceShard::Ticket ticket;
  const std::vector<int> ranking = session->Rank(obs, &ticket);
  ASSERT_TRUE(IsPermutation(ranking, obs.tasks.size()));
  // Degraded mode returns the unpersonalized observation order.
  for (size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(ranking[i], static_cast<int>(i));
  }
  EXPECT_EQ(service.stats().rejected, 1);
}

TEST(ArrangementServiceTest, EmptyPoolShortCircuits) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();
  auto session = service.NewSession();
  Observation obs;
  obs.worker = 0;
  obs.worker_features.resize(workload.worker_feature_dim(), 0.0f);
  ServiceShard::Ticket ticket;
  EXPECT_TRUE(session->Rank(obs, &ticket).empty());
  EXPECT_EQ(service.stats().requests, 0);
  service.Stop();
}

// ---- micro-batch close rule ----

TEST(ArrangementServiceTest, LoneSessionDoesNotWaitOutTheBatchWindow) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.batch_window_us = 1000000;  // 1 s: waiting it out would take 20 s
  ServiceShard service(&framework, cfg);
  service.Start();
  constexpr int kRanks = 20;
  Rng rng(4);
  auto session = service.NewSession();
  Stopwatch sw;
  for (int i = 0; i < kRanks; ++i) {
    const Observation obs = workload.MakeObservation(i, &rng);
    ServiceShard::Ticket ticket;
    ASSERT_TRUE(IsPermutation(session->Rank(obs, &ticket), obs.tasks.size()));
  }
  // The only live session is blocked in Rank, so no request can join a
  // batch: each batch closes at once instead of after the window.
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  session.reset();
  service.Stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kRanks);
  EXPECT_EQ(stats.batches, kRanks);
}

TEST(ArrangementServiceTest, ConcurrentSessionsStillCoalesce) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_window_us = 100000;  // long: the batch waits for every session
  ServiceShard service(&framework, cfg);
  service.Start();
  constexpr int kActors = 4;
  constexpr int kEvents = 20;
  const ServiceStats stats =
      DriveConcurrently(workload, &service, kActors, kEvents);
  EXPECT_EQ(stats.requests, kActors * kEvents);
  EXPECT_GT(stats.mean_batch_size, 1.0);
  EXPECT_LE(stats.mean_batch_size, static_cast<double>(kActors));
}

TEST(ArrangementServiceTest, BackpressureBoundsTheLearnerQueue) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.learner_queue_capacity = 2;  // tiny: actors must block, not balloon
  cfg.flush_block_events = 1;
  ServiceShard service(&framework, cfg);
  service.Start();
  const ServiceStats stats =
      DriveConcurrently(workload, &service, /*actors=*/3,
                        /*events_per_actor=*/30);
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_EQ(stats.blocks_dropped, 0);
}

}  // namespace
}  // namespace crowdrl
