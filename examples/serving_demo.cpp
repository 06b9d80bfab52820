// Quickstart for the asynchronous arrangement service (src/serve/):
// several concurrent worker sessions are served by one continuously-
// learning DDQN framework — actors rank against lock-free parameter
// snapshots while a dedicated learner thread trains and republishes.
//
//   ./build/examples/serving_demo                 # 4 actors, 2000 arrivals
//   ./build/examples/serving_demo --actors=8 --arrivals=10000
//   ./build/examples/serving_demo --help          # the full flag surface
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "serve/shard.h"
#include "serve/workload.h"

using namespace crowdrl;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const int actors = static_cast<int>(
      flags.GetInt("actors", 4, "concurrent worker sessions (actor threads)"));
  const int64_t arrivals = flags.GetInt(
      "arrivals", 2000, "total arrivals to serve across all actors");
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7, "master seed"));
  const int64_t publish_every = flags.GetInt(
      "publish_every", 4, "snapshot publication cadence (feedback events)");
  if (flags.HelpRequested()) {
    flags.PrintHelp();
    return 0;
  }

  // 1. A frozen-clock workload: fixed population, physically immutable
  //    observable state — safe to share across actor threads lock-free.
  ServeWorkloadConfig workload_cfg;
  workload_cfg.seed = seed;
  const ServeWorkload workload(workload_cfg);

  // 2. The paper's framework, sized to serve briskly on CPU.
  FrameworkConfig fw_cfg = FrameworkConfig::Defaults();
  fw_cfg.worker_dqn.net.hidden_dim = 32;
  fw_cfg.requester_dqn.net.hidden_dim = 32;
  fw_cfg.worker_dqn.learn_every = 8;
  fw_cfg.requester_dqn.learn_every = 8;
  fw_cfg.predictor.max_segments = 2;
  fw_cfg.max_failed_stored = 1;
  fw_cfg.learn_from_history = false;
  fw_cfg.seed = seed;
  TaskArrangementFramework framework(fw_cfg, &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());

  // 3. The service: micro-batched inference + actor/learner split.
  ServiceConfig service_cfg;
  service_cfg.publish_every_events = publish_every;
  ServiceShard service(&framework, service_cfg);
  service.Start();

  std::printf("serving %lld arrivals across %d actor sessions...\n",
              static_cast<long long>(arrivals), actors);
  std::atomic<int64_t> ticket_counter{0};
  std::atomic<int64_t> completions{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(seed ^ (0xABCDULL + static_cast<uint64_t>(a) * 7919));
      auto session = service.NewSession();
      while (true) {
        const int64_t i = ticket_counter.fetch_add(1);
        if (i >= arrivals) break;
        const Observation obs = workload.MakeObservation(i, &rng);
        service.RecordArrival(obs);
        ServiceShard::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        const Feedback fb = workload.SimulateFeedback(obs, ranking, &rng);
        if (fb.completed_pos >= 0) completions.fetch_add(1);
        session->Feedback(obs, ticket, ranking, fb);
      }
      session->Flush();
    });
  }
  for (auto& t : threads) t.join();
  service.Stop();
  const double wall_s = wall.ElapsedSeconds();

  const ServiceStats stats = service.stats();
  std::printf("\n-- served --\n");
  std::printf("throughput        %.1f arrivals/s (%.2f s wall)\n",
              arrivals / wall_s, wall_s);
  std::printf("completions       %lld / %lld\n",
              static_cast<long long>(completions.load()),
              static_cast<long long>(arrivals));
  std::printf("rank latency      p50 %.3f ms   p95 %.3f ms   p99 %.3f ms\n",
              stats.rank_latency_p50_ms, stats.rank_latency_p95_ms,
              stats.rank_latency_p99_ms);
  std::printf("micro-batching    %lld batches, %.2f requests/batch\n",
              static_cast<long long>(stats.batches), stats.mean_batch_size);
  std::printf("learning          %lld feedback events, %lld transitions, "
              "snapshot v%llu\n",
              static_cast<long long>(stats.events_processed),
              static_cast<long long>(framework.transitions_stored()),
              static_cast<unsigned long long>(stats.snapshot_version));
  std::printf("\nEvery flushed event was learned (%lld == %lld): the learner "
              "drains on Stop().\n",
              static_cast<long long>(stats.events_processed),
              static_cast<long long>(stats.events_submitted));
  return 0;
}
