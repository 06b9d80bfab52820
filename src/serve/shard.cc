#include "serve/shard.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"

namespace crowdrl {

ServiceShard::ServiceShard(TaskArrangementFramework* framework,
                           const ServiceConfig& config)
    : framework_(framework),
      config_(config),
      request_queue_(config.request_queue_capacity),
      learner_queue_(config.learner_queue_capacity),
      rank_latency_(kRankLatencySamples) {
  CROWDRL_CHECK(framework != nullptr);
}

ServiceShard::~ServiceShard() { Stop(); }

void ServiceShard::Start() {
  MutexLock lifecycle(lifecycle_mu_);
  CROWDRL_CHECK_MSG(!started_, "shard already started");
  // One-shot lifecycle: the queues close permanently on Stop, so a
  // restarted shard would be silently dead (every Rank degraded, every
  // block dropped). Fail loudly instead.
  CROWDRL_CHECK_MSG(!stopped_, "shard is one-shot: construct a new one");
  {
    MutexLock lk(learner_mu_);
    PublishLocked();  // version 1: the framework's pre-start parameters
  }
  batcher_ = std::thread(&ServiceShard::BatcherLoop, this);
  if (!config_.inline_learning) {
    learner_ = std::thread(&ServiceShard::LearnerLoop, this);
  }
  // Published last: once a concurrent observer sees started_, both thread
  // handles are assigned and a racing Stop() joins real threads.
  started_ = true;
}

void ServiceShard::Stop() {
  // Serialized against Start and against concurrent Stops: the loser of
  // the race blocks here until the winner finished joining, then observes
  // !started_ and returns instead of double-joining the handles.
  MutexLock lifecycle(lifecycle_mu_);
  if (!started_) return;
  // Order matters: the batcher drains and fulfills every accepted rank
  // request before the learner queue closes, so feedback for in-flight
  // decisions can still be flushed by sessions between the two joins.
  request_queue_.Close();
  if (batcher_.joinable()) batcher_.join();
  learner_queue_.Close();
  if (learner_.joinable()) learner_.join();
  started_ = false;
  stopped_ = true;
}

void ServiceShard::RecordArrival(const Observation& obs) {
  WriterMutexLock lk(arrivals_mu_);
  framework_->OnArrival(obs);
}

void ServiceShard::PublishLocked() {
  channel_.Publish(builder_.Build(framework_->worker_agent(),
                                  framework_->requester_agent(),
                                  snapshot_version_.fetch_add(1) + 1,
                                  config_.snapshot_delta));
}

void ServiceShard::PublishNow() {
  Status st = RunOnLearner([this] {
    // RunOnLearner's contract: the callable executes with learner_mu_
    // held (on the learner thread or the direct path). The analysis
    // cannot see through std::function, so assert the capability here.
    learner_mu_.AssertHeld();
    PublishLocked();
    return Status::OK();
  });
  CROWDRL_CHECK(st.ok());
}

void ServiceShard::ApplyOneLocked(TransitionBlocks blocks) {
  framework_->ApplyTransitions(std::move(blocks));
  const int64_t processed = events_processed_.fetch_add(1) + 1;
  if (config_.publish_every_events > 0 &&
      processed % config_.publish_every_events == 0) {
    PublishLocked();
  }
}

bool ServiceShard::EnqueueBlocks(std::vector<TransitionBlocks>&& blocks) {
  if (config_.inline_learning) {
    MutexLock lk(learner_mu_);
    for (TransitionBlocks& b : blocks) ApplyOneLocked(std::move(b));
    return true;
  }
  LearnerItem item;
  item.blocks = std::move(blocks);
  return learner_queue_.Push(std::move(item));
}

Status ServiceShard::RunOnLearner(std::function<Status()> fn) {
  if (!config_.inline_learning && started_) {
    std::promise<Status> done;
    std::future<Status> result = done.get_future();
    LearnerItem item;
    item.command = fn;  // copy: the direct path below is the fallback
    item.command_done = &done;
    if (learner_queue_.Push(std::move(item))) {
      return result.get();
    }
    // Queue closed mid-Stop: execute directly under the learner lock
    // (serialized against the draining learner thread).
  }
  MutexLock lk(learner_mu_);
  return fn();
}

void ServiceShard::LearnerLoop() {
  while (auto item = learner_queue_.Pop()) {
    MutexLock lk(learner_mu_);
    if (item->command) {
      item->command_done->set_value(item->command());
      continue;
    }
    for (TransitionBlocks& blocks : item->blocks) {
      ApplyOneLocked(std::move(blocks));
    }
  }
}

void ServiceShard::BatcherLoop() {
  std::vector<RankRequest> batch;
  // Persistent per-slot buffers: each batch slot keeps its warm
  // DecisionContext and score vector across batches, so once every slot
  // has seen its steady-state shape the scoring pass allocates nothing
  // (the ticket receives a copy; the slot keeps its buffers).
  std::vector<DecisionContext> contexts(config_.max_batch);
  std::vector<std::vector<double>> scores(config_.max_batch);
  std::vector<double> latencies;
  for (;;) {
    batch.clear();
    if (request_queue_.PopBatch(&batch, config_.max_batch,
                                config_.batch_window_us,
                                &live_sessions_) == 0) {
      break;  // closed and drained
    }
    // One snapshot per micro-batch: every request in the batch is scored
    // against the same consistent parameters, lock-free.
    const std::shared_ptr<const PolicySnapshot> snapshot = channel_.Load();
    const ScoringView view = snapshot->View();
    const size_t n = batch.size();
    const auto score_one = [&](size_t i) {
      framework_->BuildDecisionInto(*batch[i].obs, &contexts[i]);
      framework_->ScoreDecisionInto(contexts[i], view, &scores[i]);
    };
    if (n == 1) {
      score_one(0);
    } else {
      // The batched forward pass: set-states are independent, so the batch
      // fans out across the shared pool (the learner's batch updates queue
      // behind it on the same pool — acceptable, they are off the rank
      // critical path by design).
      ThreadPool::Global().ParallelFor(n, score_one);
    }
    latencies.clear();
    for (size_t i = 0; i < n; ++i) {
      RankRequest& req = batch[i];
      *req.ranking = framework_->RankDecision(*req.obs, contexts[i],
                                              scores[i]);
      req.ticket->ctx = contexts[i];
      req.ticket->snapshot_version = snapshot->version;
      latencies.push_back(req.wait.ElapsedSeconds());
      req.done.set_value();  // req.* pointers are dead past this line
    }
    requests_.fetch_add(static_cast<int64_t>(n));
    batches_.fetch_add(1);
    {
      MutexLock lk(stats_mu_);
      for (double s : latencies) rank_latency_.Add(s);
    }
  }
}

std::vector<int> ServiceShard::FallbackRanking(const Observation& obs) const {
  std::vector<int> ranking(obs.tasks.size());
  std::iota(ranking.begin(), ranking.end(), 0);
  if (config_.shed_fallback == RankFallback::kTaskQuality) {
    // Score-policy order: descending current quality, stable ties — the
    // same contract as the greedy score baselines, at array-sort cost.
    std::stable_sort(ranking.begin(), ranking.end(), [&](int a, int b) {
      return obs.tasks[a].quality > obs.tasks[b].quality;
    });
  }
  return ranking;
}

// ---- Session ----

ServiceShard::Session::Session(ServiceShard* shard)
    : shard_(shard),
      buffer_(
          [shard](std::vector<TransitionBlocks>&& blocks) {
            if (!shard->EnqueueBlocks(std::move(blocks))) {
              shard->blocks_dropped_.fetch_add(1);
              return false;
            }
            return true;
          },
          // Inline learning is synchronous per event: block size 1, so
          // Feedback() returns with the event already learned.
          shard->config_.inline_learning
              ? 1
              : shard->config_.flush_block_events) {
  shard_->live_sessions_.fetch_add(1);
}

ServiceShard::Session::~Session() {
  Flush();
  shard_->live_sessions_.fetch_sub(1);
}

std::unique_ptr<ServiceShard::Session> ServiceShard::NewSession() {
  return std::unique_ptr<Session>(new Session(this));
}

std::vector<int> ServiceShard::Session::Rank(const Observation& obs,
                                             Ticket* ticket) {
  CROWDRL_CHECK(ticket != nullptr);
  if (obs.tasks.empty()) {
    ticket->ctx = DecisionContext{};
    return {};
  }
  std::vector<int> ranking;
  RankRequest request;
  request.obs = &obs;
  request.ticket = ticket;
  request.ranking = &ranking;
  std::future<void> done = request.done.get_future();
  using PushResult = BoundedQueue<RankRequest>::PushResult;
  PushResult pushed;
  if (shard_->config_.enqueue_budget_us < 0) {
    pushed = shard_->request_queue_.Push(std::move(request))
                 ? PushResult::kOk
                 : PushResult::kClosed;
  } else {
    // Admission control: give the enqueue exactly the per-request budget,
    // then shed — a degraded answer now beats a personalized answer the
    // caller stopped waiting for.
    pushed = shard_->request_queue_.TryPushFor(
        std::move(request), shard_->config_.enqueue_budget_us);
  }
  if (pushed != PushResult::kOk) {
    // Degraded mode: the caller still receives a full permutation. A shed
    // request never reaches the batcher, so its ticket carries no decision
    // context and its (non-)feedback never enters the learning stream.
    (pushed == PushResult::kClosed ? shard_->rejected_ : shard_->shed_)
        .fetch_add(1);
    ticket->ctx = DecisionContext{};
    ticket->snapshot_version = 0;
    return shard_->FallbackRanking(obs);
  }
  done.get();
  return ranking;
}

void ServiceShard::Session::Feedback(const Observation& obs,
                                     const Ticket& ticket,
                                     const std::vector<int>& ranking,
                                     const crowdrl::Feedback& feedback) {
  if (obs.tasks.empty() || ticket.ctx.task_to_row.empty()) return;
  // Fresh snapshot for the Bellman targets: in inline mode this equals the
  // live parameters (published after every event); in async mode it is the
  // newest consistent view, the actor/learner staleness trade-off.
  const std::shared_ptr<const PolicySnapshot> snapshot =
      shard_->channel_.Load();
  TransitionBlocks blocks;
  {
    ReaderMutexLock lk(shard_->arrivals_mu_);
    blocks = shard_->framework_->MakeTransitions(obs, ticket.ctx, ranking,
                                                 feedback,
                                                 snapshot->View());
  }
  ++events_submitted_;
  shard_->events_submitted_.fetch_add(1);
  buffer_.Add(std::move(blocks));
}

bool ServiceShard::Session::Flush() { return buffer_.Flush(); }

bool ServiceShard::SubmitTransitions(TransitionBlocks blocks) {
  if (blocks.empty()) return true;
  events_submitted_.fetch_add(1);
  std::vector<TransitionBlocks> one;
  one.push_back(std::move(blocks));
  if (!EnqueueBlocks(std::move(one))) {
    blocks_dropped_.fetch_add(1);
    return false;
  }
  return true;
}

// ---- Checkpointing & stats ----

Status ServiceShard::SaveState(const std::string& path) {
  return RunOnLearner([this, path] {
    // Shared arrivals lock: the statistic may keep moving for other
    // arrivals, but the serialized φ/ϕ state must not be torn mid-write.
    ReaderMutexLock lk(arrivals_mu_);
    return framework_->SaveState(path);
  });
}

Status ServiceShard::LoadState(const std::string& path) {
  // ReadState touches only the file and the nets' fixed configs, so it
  // needs neither the learner context nor the arrivals lock.
  TaskArrangementFramework::StagedState state;
  CROWDRL_RETURN_NOT_OK(framework_->ReadState(path, &state));
  CommitState(std::move(state));
  return Status::OK();
}

void ServiceShard::CommitState(TaskArrangementFramework::StagedState state) {
  const Status st = RunOnLearner([this, &state] {
    learner_mu_.AssertHeld();  // RunOnLearner contract (see PublishNow)
    {
      WriterMutexLock lk(arrivals_mu_);
      framework_->CommitState(std::move(state));
    }
    PublishLocked();  // actors see the restored parameters
    return Status::OK();
  });
  CROWDRL_CHECK(st.ok());
}

ServiceStats ServiceShard::stats() const {
  ServiceStats out;
  out.requests = requests_.load();
  out.rejected = rejected_.load();
  out.shed = shed_.load();
  out.batches = batches_.load();
  out.mean_batch_size =
      out.batches > 0
          ? static_cast<double>(out.requests) / static_cast<double>(out.batches)
          : 0.0;
  out.events_submitted = events_submitted_.load();
  out.events_processed = events_processed_.load();
  out.blocks_dropped = blocks_dropped_.load();
  // Atomic-backed replay counters: safe to read while the learner trains.
  for (const DqnAgent* agent :
       {framework_->worker_agent(), framework_->requester_agent()}) {
    if (agent == nullptr) continue;
    out.replay_transitions += static_cast<int64_t>(agent->replay_transitions());
    out.replay_bytes += static_cast<int64_t>(agent->replay_bytes());
  }
  out.snapshot_version = channel_.version();
  out.snapshot_nets_copied = builder_.nets_copied();
  out.snapshot_nets_shared = builder_.nets_shared();
  {
    MutexLock lk(stats_mu_);
    out.rank_count = rank_latency_.count();
    out.rank_latency_mean_ms = rank_latency_.mean() * 1e3;
    const std::vector<double> tail = rank_latency_.Percentiles({50, 95, 99});
    out.rank_latency_p50_ms = tail[0] * 1e3;
    out.rank_latency_p95_ms = tail[1] * 1e3;
    out.rank_latency_p99_ms = tail[2] * 1e3;
    out.rank_latency_max_ms = rank_latency_.max() * 1e3;
  }
  return out;
}

PercentileAccumulator ServiceShard::latency_accumulator() const {
  MutexLock lk(stats_mu_);
  return rank_latency_;
}

}  // namespace crowdrl
