// Load-generates the arrangement service: N actor threads drive full
// rank→feedback interactions against S learner/replica shards behind the
// worker router, reporting aggregate and per-shard QPS and p50/p95/p99
// rank latency per (actors, shards) point.
//
// This is the platform benchmark of the serving stack: the serial
// framework serves exactly one worker at a time and its rank latency pays
// for every gradient step; here ranking rides on published parameter
// snapshots while each shard's learner trails behind on its own thread,
// and S shards learn from S disjoint worker partitions in parallel. With
// --budget_us >= 0 the rank queues shed over-budget requests instead of
// blocking (admission control) — shed requests are answered with the
// fallback ranking and counted, never silently dropped.
// With --transport=uds the same sweep runs across a process-shaped
// boundary: the service is wrapped in a LearnerDaemon on a loopback
// UNIX-domain socket and every actor drives it through an ActorClient —
// one wire round trip per rank and per feedback — so the inproc/uds pair
// A/Bs the serving stack against the full transport (frame encode/decode,
// socket syscalls, per-connection handler threads). --transport=shm keeps
// the same daemon + clients but upgrades every connection onto a
// per-connection shared-memory ring pair (zero per-frame syscalls), so the
// uds/shm pair isolates exactly the syscall + frame-copy cost of the
// socket path. Every point also reports the rank round trip as the actor
// sees it (client_rank_*: timed around Session::Rank / ActorClient::Rank),
// which, unlike the shard's rank_latency_*, includes the transport.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "net/actor_client.h"
#include "net/learner_daemon.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"

namespace crowdrl {
namespace {

struct SweepPoint {
  int actors = 0;
  int shards = 0;
  int64_t arrivals = 0;
  double wall_s = 0;
  ShardedServiceStats stats;
  PercentileAccumulator client_rank_ms;  ///< Rank round trip at the actor
};

/// Every tunable of one sweep point, read from flags up front so the
/// --help gate sees the complete registered surface.
struct PointConfig {
  size_t hidden = 32;
  int learn_every = 16;
  ServiceConfig service;

  static PointConfig FromFlags(const CliFlags& flags) {
    PointConfig cfg;
    cfg.hidden = static_cast<size_t>(flags.GetInt(
        "hidden", 32, "Q-network hidden width (serving-lean default)"));
    cfg.learn_every = static_cast<int>(flags.GetInt(
        "learn_every", 16, "learner step cadence in stored transitions"));
    cfg.service.max_batch = static_cast<size_t>(flags.GetInt(
        "max_batch", 16, "micro-batcher: max coalesced rank requests"));
    cfg.service.batch_window_us = flags.GetInt(
        "window_us", 200, "micro-batcher coalescing window (µs)");
    cfg.service.flush_block_events = static_cast<size_t>(flags.GetInt(
        "flush_block", 4, "feedback events per local-buffer flush block"));
    cfg.service.publish_every_events = flags.GetInt(
        "publish_every", 8, "snapshot publication cadence (feedback events)");
    cfg.service.request_queue_capacity = static_cast<size_t>(flags.GetInt(
        "queue_cap", 1024, "per-shard rank request queue capacity"));
    cfg.service.enqueue_budget_us = flags.GetInt(
        "budget_us", -1,
        "per-request enqueue budget in µs; <0 blocks (no shedding), "
        ">=0 sheds over-budget requests to the fallback ranking");
    cfg.service.snapshot_delta = flags.GetInt(
        "snapshot_delta", 1, "reuse unchanged nets across publishes") != 0;
    return cfg;
  }
};

FrameworkConfig ServingFrameworkConfig(const PointConfig& point,
                                       uint64_t seed) {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  for (DqnAgentConfig* dqn : {&cfg.worker_dqn, &cfg.requester_dqn}) {
    dqn->net.hidden_dim = point.hidden;
    dqn->net.num_heads = 4;
    dqn->batch_size = 32;
    dqn->learn_every = point.learn_every;
    dqn->replay.capacity = 1000;
  }
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 0;  // one transition per MDP per feedback
  cfg.learn_from_history = false;
  cfg.seed = seed;
  return cfg;
}

SweepPoint RunPoint(const PointConfig& point, const ServeWorkload& workload,
                    int actors, int shards, int64_t arrivals, uint64_t seed,
                    const net::ActorClient::TransportOptions* wire) {
  const bool over_wire = wire != nullptr;
  auto service_owner = ShardedArrangementService::Create(
      ServingFrameworkConfig(point, seed), &workload,
      workload.worker_feature_dim(), workload.task_feature_dim(), shards,
      point.service);
  ShardedArrangementService& service = *service_owner;
  service.Start();

  std::unique_ptr<net::LearnerDaemon> daemon;
  if (over_wire) {
    daemon = std::make_unique<net::LearnerDaemon>(
        &service, "/tmp/crowdrl_bench_serve_" +
                      std::to_string(::getpid()) + ".sock");
    CROWDRL_CHECK(daemon->Start().ok());
  }

  std::atomic<int64_t> arrival_counter{0};
  std::atomic<int64_t> next_ticket{0};
  // One accumulator per actor thread, merged after the join.
  std::vector<PercentileAccumulator> client_rank_ms(actors);
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(a + 1)));
      PercentileAccumulator& rank_ms = client_rank_ms[a];
      if (over_wire) {
        // The wire path: every actor is its own client connection driving
        // one rank + one feedback round trip per arrival; the daemon holds
        // the decision context, exactly like a remote thin actor. Under
        // --transport=shm the connection is upgraded onto a per-connection
        // shared-memory ring pair right after connect.
        Result<std::unique_ptr<net::ActorClient>> client =
            net::ActorClient::Connect(daemon->socket_path(), *wire);
        CROWDRL_CHECK(client.ok());
        while (true) {
          const int64_t i = next_ticket.fetch_add(1);
          if (i >= arrivals) break;
          const Observation obs =
              workload.MakeObservation(arrival_counter.fetch_add(1), &rng);
          net::DecodedRankResponse rank;
          const Stopwatch rank_watch;
          CROWDRL_CHECK(
              client.value()->Rank(obs, /*record_arrival=*/true, &rank).ok());
          rank_ms.Add(rank_watch.ElapsedMillis());
          net::FeedbackResponseHead fb;
          CROWDRL_CHECK(client.value()
                            ->Feedback(obs.arrival_index, obs.worker,
                                       workload.SimulateFeedback(
                                           obs, rank.ranking, &rng),
                                       &fb)
                            .ok());
        }
        return;
      }
      auto session = service.NewSession();
      while (true) {
        const int64_t i = next_ticket.fetch_add(1);
        if (i >= arrivals) break;
        const Observation obs =
            workload.MakeObservation(arrival_counter.fetch_add(1), &rng);
        service.RecordArrival(obs);
        ShardedArrangementService::Ticket ticket;
        const Stopwatch rank_watch;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        rank_ms.Add(rank_watch.ElapsedMillis());
        session->Feedback(obs, ticket, ranking,
                          workload.SimulateFeedback(obs, ranking, &rng));
      }
      session->Flush();
    });
  }
  for (auto& t : threads) t.join();
  if (daemon != nullptr) daemon->Stop();
  service.Stop();  // drains every shard's learner

  SweepPoint result;
  result.actors = actors;
  result.shards = shards;
  result.arrivals = arrivals;
  result.wall_s = wall.ElapsedSeconds();
  result.stats = service.stats();
  for (const PercentileAccumulator& acc : client_rank_ms) {
    result.client_rank_ms.Merge(acc);
  }
  if (daemon != nullptr) {
    // The daemon's view of the aggregate adds the live transport counters
    // (per-shard rows keep their zeros: shards never touch a socket).
    result.stats.aggregate = daemon->Stats();
  }
  return result;
}

std::vector<int> ParseCountList(const std::string& csv) {
  std::vector<int> out;
  for (size_t pos = 0; pos < csv.size();) {
    const size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const int n = std::atoi(tok.c_str());
    if (n > 0) out.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void EmitStats(JsonWriter* json, const ServiceStats& s, double wall_s) {
  json->KV("requests", s.requests);
  json->KV("shed", s.shed);
  json->KV("rejected", s.rejected);
  json->KV("qps_served",
           wall_s > 0 ? static_cast<double>(s.requests) / wall_s : 0.0);
  json->KV("rank_latency_mean_ms", s.rank_latency_mean_ms);
  json->KV("rank_latency_p50_ms", s.rank_latency_p50_ms);
  json->KV("rank_latency_p95_ms", s.rank_latency_p95_ms);
  json->KV("rank_latency_p99_ms", s.rank_latency_p99_ms);
  json->KV("rank_latency_max_ms", s.rank_latency_max_ms);
  json->KV("batches", s.batches);
  json->KV("mean_batch_size", s.mean_batch_size);
  json->KV("events_submitted", s.events_submitted);
  json->KV("events_processed", s.events_processed);
  json->KV("replay_transitions", s.replay_transitions);
  json->KV("replay_bytes", s.replay_bytes);
  json->KV("snapshot_version", s.snapshot_version);
  json->KV("snapshot_nets_copied", s.snapshot_nets_copied);
  json->KV("snapshot_nets_shared", s.snapshot_nets_shared);
  json->KV("transport_connections", s.transport_connections);
  json->KV("transport_connections_dropped", s.transport_connections_dropped);
  json->KV("transport_frames_in", s.transport_frames_in);
  json->KV("transport_frames_out", s.transport_frames_out);
  json->KV("transport_bytes_in", s.transport_bytes_in);
  json->KV("transport_bytes_out", s.transport_bytes_out);
  json->KV("transport_snapshot_fetches", s.transport_snapshot_fetches);
  json->KV("transport_remote_transitions", s.transport_remote_transitions);
  json->KV("transport_shm_connections", s.transport_shm_connections);
  json->KV("transport_ring_capacity", s.transport_ring_capacity);
  json->KV("transport_ring_stalls", s.transport_ring_stalls);
  json->KV("transport_ring_wait_syscalls", s.transport_ring_wait_syscalls);
}

int Main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const int64_t arrivals = flags.GetInt(
      "arrivals", 100000, "arrivals driven through the service per point");
  const std::string actors_csv = flags.GetString(
      "actors", "4", "comma-separated actor-thread counts to sweep");
  const std::string shards_csv = flags.GetString(
      "shards", "1", "comma-separated shard counts to sweep (e.g. 1,2,4)");
  const uint64_t seed = static_cast<uint64_t>(
      flags.GetInt("seed", 17, "master seed"));
  const std::string out_dir =
      flags.GetString("out", "results", "artifact output directory");
  const std::string transport = flags.GetString(
      "transport", "inproc",
      "inproc = actors call the service directly; uds = actors are "
      "ActorClients over a loopback UNIX-domain LearnerDaemon; shm = same "
      "daemon, but each connection upgrades onto a shared-memory ring pair");
  const int64_t ring_kb = flags.GetInt(
      "ring_kb", static_cast<int64_t>(net::kDefaultShmRingCapacity >> 10),
      "per-direction shm ring capacity in KiB (power of two; shm only)");

  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = static_cast<int>(
      flags.GetInt("workers", 64, "worker population of the workload"));
  wl_cfg.num_tasks = static_cast<int>(
      flags.GetInt("tasks", 64, "task population of the workload"));
  wl_cfg.pool_size = static_cast<int>(flags.GetInt(
      "pool", 12, "available tasks per arrival (|T_i|)"));
  wl_cfg.seed = seed ^ 0x5EEDULL;
  const PointConfig point = PointConfig::FromFlags(flags);

  const std::vector<int> actor_counts = ParseCountList(actors_csv);
  const std::vector<int> shard_counts = ParseCountList(shards_csv);
  if (flags.HelpRequested()) {
    flags.PrintHelp();
    return 0;
  }
  if (actor_counts.empty()) {
    std::fprintf(stderr, "--actors must name at least one positive count\n");
    return 2;
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards must name at least one positive count\n");
    return 2;
  }
  if (transport != "inproc" && transport != "uds" && transport != "shm") {
    std::fprintf(stderr, "--transport must be inproc, uds or shm\n");
    return 2;
  }
  net::ActorClient::TransportOptions wire_opts;
  wire_opts.kind = transport == "shm"
                       ? net::ActorClient::TransportOptions::Kind::kShm
                       : net::ActorClient::TransportOptions::Kind::kUds;
  wire_opts.ring_capacity = static_cast<uint64_t>(ring_kb) << 10;
  const net::ActorClient::TransportOptions* wire =
      transport == "inproc" ? nullptr : &wire_opts;

  std::printf(
      "serve_throughput: arrivals=%lld actors={%s} shards={%s} pool=%d "
      "seed=%llu budget_us=%lld transport=%s\n",
      static_cast<long long>(arrivals), actors_csv.c_str(),
      shards_csv.c_str(), wl_cfg.pool_size,
      static_cast<unsigned long long>(seed),
      static_cast<long long>(point.service.enqueue_budget_us),
      transport.c_str());
  const ServeWorkload workload(wl_cfg);

  bench::BenchSetup setup;
  setup.out_dir = out_dir;
  Table t({"actors", "shards", "arrivals", "wall_s", "qps", "p50_ms",
           "p95_ms", "p99_ms", "max_ms", "client_p50_ms", "client_p99_ms",
           "mean_batch", "shed", "events_learned"});
  JsonWriter json;
  json.BeginObject();
  // v6: per-point client_rank_p50_ms/p99_ms (the rank round trip timed at
  // the actor); the replay-mode keys are gone (one replay buffer).
  json.KV("schema", "crowdrl.serve_throughput.v6");
  json.KV("transport", transport);
  json.KV("ring_capacity_bytes",
          transport == "shm" ? static_cast<int64_t>(wire_opts.ring_capacity)
                             : int64_t{0});
  json.KV("arrivals_per_point", arrivals);
  json.KV("pool_size", static_cast<int64_t>(wl_cfg.pool_size));
  json.KV("seed", seed);
  json.KV("enqueue_budget_us", point.service.enqueue_budget_us);
  json.Key("points").BeginArray();

  for (int shards : shard_counts) {
    for (int actors : actor_counts) {
      std::printf("... actors=%d shards=%d\n", actors, shards);
      std::fflush(stdout);
      const SweepPoint p =
          RunPoint(point, workload, actors, shards, arrivals, seed, wire);
      // Aggregate QPS counts every answered arrival (served + degraded);
      // per-shard and aggregate qps_served count batcher-served ranks only.
      const double qps =
          p.wall_s > 0 ? static_cast<double>(p.arrivals) / p.wall_s : 0.0;
      const ServiceStats& agg = p.stats.aggregate;
      const std::vector<double> client =
          p.client_rank_ms.Percentiles({50, 99});
      t.AddRow({std::to_string(p.actors), std::to_string(p.shards),
                std::to_string(p.arrivals), Table::Num(p.wall_s, 2),
                Table::Num(qps, 1), Table::Num(agg.rank_latency_p50_ms, 3),
                Table::Num(agg.rank_latency_p95_ms, 3),
                Table::Num(agg.rank_latency_p99_ms, 3),
                Table::Num(agg.rank_latency_max_ms, 3),
                Table::Num(client[0], 3), Table::Num(client[1], 3),
                Table::Num(agg.mean_batch_size, 2),
                std::to_string(agg.shed),
                std::to_string(agg.events_processed)});
      json.BeginObject();
      json.KV("actors", static_cast<int64_t>(p.actors));
      json.KV("shards", static_cast<int64_t>(p.shards));
      json.KV("arrivals", p.arrivals);
      json.KV("wall_s", p.wall_s);
      json.KV("qps", qps);
      json.KV("client_rank_p50_ms", client[0]);
      json.KV("client_rank_p99_ms", client[1]);
      json.Key("aggregate").BeginObject();
      EmitStats(&json, agg, p.wall_s);
      json.EndObject();
      json.Key("per_shard").BeginArray();
      for (size_t s = 0; s < p.stats.per_shard.size(); ++s) {
        json.BeginObject();
        json.KV("shard", static_cast<int64_t>(s));
        EmitStats(&json, p.stats.per_shard[s], p.wall_s);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();

  t.Print("serve_throughput: QPS and rank-latency tail vs actors x shards");
  bench::EmitJson(json.str(), setup, "serve_throughput.json");
  return 0;
}

}  // namespace
}  // namespace crowdrl

int main(int argc, char** argv) { return crowdrl::Main(argc, argv); }
