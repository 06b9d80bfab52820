// Checkpointing under concurrency: SaveState/LoadState must round-trip
// while actor threads keep ranking and the learner keeps training. The
// save runs in learner context between gradient steps, so it can never
// observe a half-updated network or a torn arrival statistic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/shard.h"
#include "serve/workload.h"
#include "tensor/matrix.h"

namespace crowdrl {
namespace {

ServeWorkloadConfig WorkloadConfig() {
  ServeWorkloadConfig cfg;
  cfg.num_workers = 16;
  cfg.num_tasks = 24;
  cfg.pool_size = 6;
  cfg.warm_completions = 64;
  cfg.seed = 31;
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
  cfg.seed = 41;
  return cfg;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ServeCheckpointTest, SaveLoadRoundTripsWhileLearnerIsMidTraining) {
  const ServeWorkload workload(WorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.flush_block_events = 1;  // keep the learner continuously busy
  cfg.publish_every_events = 2;
  ServiceShard service(&framework, cfg);
  service.Start();

  constexpr int kActors = 3;
  constexpr int kEvents = 40;
  const std::string path = TempPath("serve_ckpt_mid_training.bin");

  std::atomic<int64_t> arrival_counter{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> actors;
  for (int a = 0; a < kActors; ++a) {
    actors.emplace_back([&, a] {
      Rng rng(500 + a);
      auto session = service.NewSession();
      for (int i = 0; i < kEvents; ++i) {
        const Observation obs =
            workload.MakeObservation(arrival_counter.fetch_add(1), &rng);
        service.RecordArrival(obs);
        ServiceShard::Ticket ticket;
        const auto ranking = session->Rank(obs, &ticket);
        session->Feedback(obs, ticket, ranking,
                          workload.SimulateFeedback(obs, ranking, &rng));
      }
      EXPECT_TRUE(session->Flush());
    });
  }
  // Checkpoint repeatedly while the pipeline is hot.
  std::thread checkpointer([&] {
    int saves = 0;
    while (!done.load() || saves == 0) {
      const Status st = service.SaveState(path);
      EXPECT_TRUE(st.ok()) << st.ToString();
      ++saves;
    }
    EXPECT_GT(saves, 0);
  });
  for (auto& t : actors) t.join();
  done = true;
  checkpointer.join();

  // Restore into the *running* service: publishes the restored parameters.
  const uint64_t version_before = service.stats().snapshot_version;
  const Status load_st = service.LoadState(path);
  EXPECT_TRUE(load_st.ok()) << load_st.ToString();
  EXPECT_GT(service.stats().snapshot_version, version_before);
  service.Stop();

  // The final checkpoint also restores into a fresh framework, and its
  // parameters match the file (round-trip fidelity).
  TaskArrangementFramework restored(SmallFrameworkConfig(), &workload,
                                    workload.worker_feature_dim(),
                                    workload.task_feature_dim());
  const Status st = restored.LoadState(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const auto pa = framework.worker_agent()->online().Params();
  const auto pb = restored.worker_agent()->online().Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*pa[i], *pb[i]), 0.0f);
  }
  std::remove(path.c_str());
}

TEST(ServeCheckpointTest, LoadPublishesRestoredParametersToActors) {
  const ServeWorkload workload(WorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();

  const std::string path = TempPath("serve_ckpt_publish.bin");
  ASSERT_TRUE(service.SaveState(path).ok());

  // Train a little so live parameters drift from the checkpoint.
  Rng rng(3);
  auto session = service.NewSession();
  for (int i = 0; i < 20; ++i) {
    const Observation obs = workload.MakeObservation(i, &rng);
    service.RecordArrival(obs);
    ServiceShard::Ticket ticket;
    const auto ranking = session->Rank(obs, &ticket);
    session->Feedback(obs, ticket, ranking,
                      workload.SimulateFeedback(obs, ranking, &rng));
  }
  session->Flush();

  ASSERT_TRUE(service.LoadState(path).ok());
  // The newest snapshot now carries the restored (pre-training) nets:
  // its online parameters equal its target parameters, as after any
  // checkpoint restore (LoadState hard-syncs the target).
  const auto snap = service.CurrentSnapshot();
  ASSERT_TRUE(snap->worker.has_value());
  const auto po = snap->worker.online->Params();
  const auto pt = snap->worker.target->Params();
  for (size_t i = 0; i < po.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*po[i], *pt[i]), 0.0f);
  }
  session.reset();
  service.Stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crowdrl
