#ifndef CROWDRL_SERVE_SHARD_H_
#define CROWDRL_SERVE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/framework.h"
#include "rl/local_buffer.h"
#include "serve/snapshot.h"

namespace crowdrl {

/// Degraded-mode ranking for requests the shard cannot serve through the
/// batcher — shed by admission control or arriving after shutdown. The
/// caller always receives a full valid permutation either way.
enum class RankFallback {
  /// The unpersonalized observation order (a valid permutation, zero cost).
  kObservationOrder,
  /// Score-policy order: tasks sorted by current quality, descending with
  /// stable ties — the greedy static ranking the score baselines use, a
  /// strictly better degraded answer than raw observation order.
  kTaskQuality,
};

/// Tuning knobs of one arrangement-service shard.
struct ServiceConfig {
  /// Micro-batcher: up to `max_batch` concurrent Rank requests are
  /// coalesced (waiting at most `batch_window_us` for stragglers) and
  /// scored against a single snapshot in one batched inference pass. A
  /// batch stops waiting as soon as it holds one request from every live
  /// Session: each Session has at most one request in flight, so no
  /// straggler can come.
  size_t max_batch = 16;
  int64_t batch_window_us = 200;
  /// Bound on queued rank requests (backpressure on actors).
  size_t request_queue_capacity = 1024;
  /// Bound on queued transition blocks awaiting the learner.
  size_t learner_queue_capacity = 256;
  /// Per-session local buffer: feedback events accumulate locally and
  /// flush to the learner in blocks of this many events.
  size_t flush_block_events = 4;
  /// Publish a fresh parameter snapshot every this many learned feedback
  /// events (1 = after every event, the paper's per-feedback cadence).
  int64_t publish_every_events = 1;
  /// Synchronous learning: feedback is learned on the calling thread
  /// (under the learner lock) instead of a dedicated learner thread.
  /// With one actor this reproduces the serial framework bit-for-bit —
  /// the equivalence tests rely on it.
  bool inline_learning = false;

  // ---- admission control / load shedding ----
  /// Per-request enqueue budget in microseconds: a Rank waits at most this
  /// long for request-queue space, then is *shed* — answered immediately
  /// with the fallback ranking and counted in ServiceStats::shed, never
  /// silently dropped. Negative (default) = block until space (pure
  /// backpressure, the pre-admission-control behaviour); 0 = shed on the
  /// first full check.
  int64_t enqueue_budget_us = -1;
  /// Ranking served to shed and post-shutdown requests.
  RankFallback shed_fallback = RankFallback::kObservationOrder;

  // ---- snapshot publication ----
  /// Delta-publication: reuse the previous snapshot's immutable copy of
  /// every net whose parameters did not change since the last publish
  /// (copy-on-write; see SnapshotBuilder). Identical published values
  /// either way — this is purely a publish-cost knob, so it defaults on.
  bool snapshot_delta = true;
};

/// Shard-level counters and latency percentiles (see stats()).
struct ServiceStats {
  int64_t requests = 0;        ///< rank requests served through the batcher
  int64_t rejected = 0;        ///< rank requests after shutdown (fallback)
  int64_t shed = 0;            ///< rank requests shed by admission control
  int64_t batches = 0;         ///< micro-batches executed
  double mean_batch_size = 0;  ///< requests / batches
  int64_t events_submitted = 0;  ///< feedback events entering the pipeline
  int64_t events_processed = 0;  ///< feedback events learned
  int64_t blocks_dropped = 0;    ///< flush blocks rejected after shutdown
  /// Replay capacity planning: transitions resident in (and approximate
  /// bytes held by) the agents' replay buffers, summed over both MDPs.
  int64_t replay_transitions = 0;
  int64_t replay_bytes = 0;
  uint64_t snapshot_version = 0;
  int64_t snapshot_nets_copied = 0;  ///< nets deep-copied by publication
  int64_t snapshot_nets_shared = 0;  ///< nets reused via delta-publication
  int64_t rank_count = 0;
  double rank_latency_mean_ms = 0;
  double rank_latency_p50_ms = 0;
  double rank_latency_p95_ms = 0;
  double rank_latency_p99_ms = 0;
  double rank_latency_max_ms = 0;

  // ---- transport (filled by the net-layer daemon; zero for in-process
  // services — the shard itself never touches a socket) ----
  int64_t transport_connections = 0;          ///< client connections accepted
  int64_t transport_connections_dropped = 0;  ///< torn down by daemon Stop
  int64_t transport_frames_in = 0;
  int64_t transport_frames_out = 0;
  int64_t transport_bytes_in = 0;
  int64_t transport_bytes_out = 0;
  int64_t transport_snapshot_fetches = 0;
  /// Transitions shipped upstream by remote actors that scored locally
  /// against a snapshot replica (FeedbackMode::kClientTransitions).
  int64_t transport_remote_transitions = 0;
  /// Connections upgraded from the bootstrap socket onto a shared-memory
  /// ring pair (kShmSetupRequest accepted).
  int64_t transport_shm_connections = 0;
  /// Per-direction ring bytes of the largest accepted segment.
  int64_t transport_ring_capacity = 0;
  /// Ring wait episodes (send side full + recv side empty), summed over
  /// finished shm connections — backpressure visibility.
  int64_t transport_ring_stalls = 0;
  /// Syscalls (yields + sleeps + liveness polls) spent waiting on rings;
  /// zero in steady state with live peers, by design and by test.
  int64_t transport_ring_wait_syscalls = 0;
};

/// \brief One self-contained arrangement-service shard: a continuously-
/// learning framework behind a micro-batched rank queue, an actor/learner
/// split and a versioned snapshot chain.
///
/// Used directly, it is the single-shard service;
/// ShardedArrangementService composes S of these behind a worker router.
/// Per shard:
///
///  * N *actor* threads (one Session each) submit Rank requests into a
///    bounded MPMC queue and, at feedback time, mint prioritized-replay
///    transitions whose Bellman targets are computed against a published
///    parameter snapshot;
///  * one *batcher* thread coalesces concurrent Rank requests within a
///    size/time window and scores the whole batch against a single
///    snapshot in one batched inference pass;
///  * per-actor LocalBuffers flush transition blocks into the learner
///    queue;
///  * one *learner* thread consumes the blocks, runs the existing DqnAgent
///    per-transition update cadence, and publishes immutable versioned
///    snapshots via atomic shared_ptr swap — actors never read live
///    parameters, so no lock is held across inference.
///
/// Thread-safety contract for the environment: the framework reads its
/// EnvView at transition-minting time (actor threads). Drive the shard
/// either from a single caller (the harness/ServingPolicy flow) or with an
/// env whose reads are physically pure, e.g. the frozen-clock
/// ServeWorkload. Arrival statistics are internally guarded (writers
/// exclusive, predictor readers shared).
class ServiceShard {
 public:
  /// `framework` must outlive the shard. The shard takes over the learning
  /// side: do not call the framework's mutating Policy methods directly
  /// while the shard is started.
  explicit ServiceShard(TaskArrangementFramework* framework,
                        const ServiceConfig& config = {});
  ~ServiceShard();

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Publishes the initial snapshot and launches the batcher (and, unless
  /// inline_learning, the learner) thread.
  void Start();

  /// Drains both queues (every accepted request is fulfilled, every
  /// flushed block learned) and joins the threads. Idempotent and final:
  /// the shard is one-shot (Start after Stop CHECK-fails — construct a
  /// fresh instance instead). Sessions should Flush() before Stop —
  /// blocks flushed afterwards are dropped and counted in
  /// ServiceStats::blocks_dropped.
  void Stop();

  bool started() const { return started_; }
  TaskArrangementFramework* framework() const { return framework_; }
  const ServiceConfig& config() const { return config_; }

  /// Feeds the "Worker Arrivals' Statistic" (thread-safe; writers are
  /// serialized against concurrent predictor reads). Arrival times must be
  /// nondecreasing across all callers of one shard.
  void RecordArrival(const Observation& obs);

  /// Decision state handed back with feedback — the shard keeps no
  /// per-decision state, so concurrent sessions never contend on it.
  struct Ticket {
    DecisionContext ctx;
    uint64_t snapshot_version = 0;
  };

  /// \brief One actor's handle onto the shard. Not thread-safe: one
  /// Session per actor thread (its LocalBuffer is single-producer, and the
  /// micro-batcher relies on each Session having at most one Rank in
  /// flight).
  class Session {
   public:
    ~Session();

    /// Blocking up to the configured enqueue budget: enqueues the
    /// observation for the micro-batcher and waits for the ranking. Shed
    /// and post-shutdown requests return the configured fallback ranking
    /// (a valid permutation) and are counted in shed / rejected.
    std::vector<int> Rank(const Observation& obs, Ticket* ticket);

    /// Mints this event's transitions against the current snapshot and
    /// buffers them toward the learner (flushed in blocks). With
    /// inline_learning the event is learned synchronously instead.
    void Feedback(const Observation& obs, const Ticket& ticket,
                  const std::vector<int>& ranking,
                  const crowdrl::Feedback& feedback);

    /// Flushes the partial block to the learner queue.
    bool Flush();

    int64_t events_submitted() const { return events_submitted_; }

   private:
    friend class ServiceShard;
    explicit Session(ServiceShard* shard);

    ServiceShard* shard_;
    LocalBuffer<TransitionBlocks> buffer_;
    int64_t events_submitted_ = 0;
  };

  std::unique_ptr<Session> NewSession();

  /// Hands one feedback event's worth of externally minted transitions to
  /// the learner — the upstream half of the remote-actor contract: a
  /// client that pulled a snapshot replica scores and mints locally, and
  /// ships only the blocks here (no observation, no decision context).
  /// Counts as one submitted event; returns false (counting the block as
  /// dropped) once the shard has stopped. Thread-safe.
  bool SubmitTransitions(TransitionBlocks blocks);

  /// Runs `fn` in the learner execution context (on the learner thread in
  /// async mode, under the learner lock otherwise) and returns its status.
  /// This is how anything that must not race with training — checkpointing,
  /// warm-up history replay, OnInitEnd — reaches the framework.
  Status RunOnLearner(std::function<Status()> fn);

  /// Checkpoints the framework without pausing the actors: the save runs
  /// in the learner context between gradient steps, so it always sees a
  /// consistent (not mid-update) parameter state.
  Status SaveState(const std::string& path);
  /// Restores a checkpoint in the learner context and republishes.
  /// All-or-nothing: a file that fails to read changes nothing.
  Status LoadState(const std::string& path);
  /// Installs a checkpoint already read by the framework's ReadState, in
  /// the learner context, and republishes.
  void CommitState(TaskArrangementFramework::StagedState state);

  /// Publishes a fresh snapshot immediately (learner context).
  void PublishNow();

  std::shared_ptr<const PolicySnapshot> CurrentSnapshot() const {
    return channel_.Load();
  }

  ServiceStats stats() const;

  /// Copy of the rank-latency accumulator, for cross-shard merging into
  /// deployment-wide percentiles (ShardedArrangementService::stats).
  PercentileAccumulator latency_accumulator() const;

  /// Reservoir bound of the rank-latency accumulator (128 KiB of
  /// samples; beyond it the accumulator decimates deterministically).
  static constexpr size_t kRankLatencySamples = size_t{1} << 14;

 private:
  struct RankRequest {
    const Observation* obs = nullptr;
    Ticket* ticket = nullptr;
    std::vector<int>* ranking = nullptr;
    std::promise<void> done;
    Stopwatch wait;
  };

  /// One learner-queue entry: either a batch of flushed transition blocks
  /// or a command to run in learner context.
  struct LearnerItem {
    std::vector<TransitionBlocks> blocks;
    std::function<Status()> command;
    std::promise<Status>* command_done = nullptr;
  };

  void BatcherLoop();
  void LearnerLoop();
  /// Learner context only (learner_mu_ held).
  void ApplyOneLocked(TransitionBlocks blocks) CROWDRL_REQUIRES(learner_mu_);
  void PublishLocked() CROWDRL_REQUIRES(learner_mu_);
  bool EnqueueBlocks(std::vector<TransitionBlocks>&& blocks);
  /// Fallback permutation for shed / post-shutdown requests.
  std::vector<int> FallbackRanking(const Observation& obs) const;

  TaskArrangementFramework* framework_;
  ServiceConfig config_;

  SnapshotChannel channel_;
  /// Mutated only under learner_mu_ (via PublishLocked's REQUIRES); not
  /// GUARDED_BY because stats() reads its internal atomic counters
  /// lock-free, which the analysis would flag as a false positive.
  SnapshotBuilder builder_;
  BoundedQueue<RankRequest> request_queue_;
  /// Live Sessions: the most rank requests that can be queued at once,
  /// which bounds how long the batcher waits for stragglers.
  std::atomic<size_t> live_sessions_{0};
  BoundedQueue<LearnerItem> learner_queue_;

  /// Guards the one-shot Start/Stop transition and the thread handles.
  /// Without it, two concurrent Stop() calls double-join, and Start()
  /// published `started_` before the handles were assigned. Lock order:
  /// lifecycle_mu_ → learner_mu_ (the worker threads never take
  /// lifecycle_mu_, so the order is acyclic).
  Mutex lifecycle_mu_;
  std::thread batcher_ CROWDRL_GUARDED_BY(lifecycle_mu_);
  std::thread learner_ CROWDRL_GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  /// Serializes learner-state mutation (training, snapshot copies,
  /// checkpoint IO) across the learner thread / inline feedback callers /
  /// post-shutdown command execution.
  Mutex learner_mu_;
  /// Arrival statistics: RecordArrival writes exclusively; transition
  /// minting (predictors) and checkpointing read under shared locks.
  SharedMutex arrivals_mu_;

  // ---- statistics ----
  mutable Mutex stats_mu_;
  PercentileAccumulator rank_latency_ CROWDRL_GUARDED_BY(stats_mu_);  // s
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> events_submitted_{0};
  std::atomic<int64_t> events_processed_{0};
  std::atomic<int64_t> blocks_dropped_{0};
  std::atomic<uint64_t> snapshot_version_{0};
};

}  // namespace crowdrl

#endif  // CROWDRL_SERVE_SHARD_H_
