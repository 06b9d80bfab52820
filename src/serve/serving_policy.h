#ifndef CROWDRL_SERVE_SERVING_POLICY_H_
#define CROWDRL_SERVE_SERVING_POLICY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "serve/shard.h"
#include "serve/sharded_service.h"

namespace crowdrl {

/// \brief Adapts a ServiceShard to the Policy interface so the
/// standard ReplayHarness / Experiment tooling can drive a *service*
/// end-to-end — and so the serial framework and the service are directly
/// interchangeable in equivalence tests.
///
/// One ServingPolicy is one driver thread's view (the harness contract is
/// single-threaded); it owns a Session and keeps the per-decision tickets
/// between Rank and OnFeedback, bounded exactly like the framework's own
/// pending map. Warm-up hooks (OnHistory / OnInitEnd) are routed into the
/// learner execution context, where mutating the agents is safe.
class ServingPolicy : public Policy {
 public:
  explicit ServingPolicy(ServiceShard* service)
      : service_(service), session_(service->NewSession()) {}

  std::string name() const override {
    return service_->framework()->name() + "@serve";
  }

  void OnArrival(const Observation& obs) override {
    service_->RecordArrival(obs);
  }

  std::vector<int> Rank(const Observation& obs) override {
    ServiceShard::Ticket ticket;
    std::vector<int> ranking = session_->Rank(obs, &ticket);
    tickets_.emplace(obs.arrival_index, std::move(ticket));
    while (tickets_.size() > TaskArrangementFramework::kMaxPendingDecisions) {
      tickets_.erase(tickets_.begin());
    }
    return ranking;
  }

  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const Feedback& feedback) override {
    auto it = tickets_.find(obs.arrival_index);
    if (it == tickets_.end()) return;
    session_->Feedback(obs, it->second, ranking, feedback);
    tickets_.erase(it);
  }

  void OnHistory(const Observation& obs, const std::vector<int>& browse_order,
                 int completed_pos, double quality_gain) override {
    // Learner context: warm-up replay stores transitions and may take
    // gradient steps, which must not race with training. The caller blocks
    // until the event is digested, so its env reads stay consistent.
    Status st = service_->RunOnLearner([&]() {
      service_->framework()->OnHistory(obs, browse_order, completed_pos,
                                       quality_gain);
      return Status::OK();
    });
    (void)st;
  }

  void OnInitEnd() override {
    Status st = service_->RunOnLearner([&]() {
      service_->framework()->OnInitEnd();
      return Status::OK();
    });
    (void)st;
    // Actors should rank against the warm-started parameters immediately.
    service_->PublishNow();
  }

  ServiceShard::Session* session() { return session_.get(); }

 private:
  ServiceShard* service_;
  std::unique_ptr<ServiceShard::Session> session_;
  std::map<int64_t, ServiceShard::Ticket> tickets_;
};

/// \brief Policy adapter for the *sharded* service: the replay harness
/// stays a single sequential driver while every Rank/Feedback/arrival is
/// routed to its worker's shard — so the standard experiment tooling can
/// sweep sharded topologies (`sharded_SxM` methods) next to every other
/// method, and the S = 1 instantiation is directly comparable (bit-equal,
/// with inline learning) to the serial framework.
///
/// `sessions_per_driver` (the M of sharded_SxM) opens that many sharded
/// sessions and rotates them per arrival — deterministic round-robin that
/// exercises the multi-session flush/buffer paths from one driver thread.
class ShardedServingPolicy : public Policy {
 public:
  explicit ShardedServingPolicy(ShardedArrangementService* service,
                                int sessions_per_driver = 1)
      : service_(service) {
    CROWDRL_CHECK(sessions_per_driver >= 1);
    for (int i = 0; i < sessions_per_driver; ++i) {
      sessions_.push_back(service->NewSession());
    }
  }

  std::string name() const override {
    return service_->shard(0)->framework()->name() + "@serve/s" +
           std::to_string(service_->num_shards());
  }

  void OnArrival(const Observation& obs) override {
    service_->RecordArrival(obs);
  }

  std::vector<int> Rank(const Observation& obs) override {
    ShardedArrangementService::Ticket ticket;
    std::vector<int> ranking =
        SessionFor(obs.arrival_index)->Rank(obs, &ticket);
    tickets_.emplace(obs.arrival_index, std::move(ticket));
    while (tickets_.size() > TaskArrangementFramework::kMaxPendingDecisions) {
      tickets_.erase(tickets_.begin());
    }
    return ranking;
  }

  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const Feedback& feedback) override {
    auto it = tickets_.find(obs.arrival_index);
    if (it == tickets_.end()) return;
    SessionFor(obs.arrival_index)
        ->Feedback(obs, it->second, ranking, feedback);
    tickets_.erase(it);
  }

  void OnHistory(const Observation& obs, const std::vector<int>& browse_order,
                 int completed_pos, double quality_gain) override {
    // Warm-up history is part of the worker's feedback stream: it must
    // reach the owner shard's learner (and only that one), in its learner
    // context so replay stores and gradient steps cannot race training.
    ServiceShard* shard = service_->shard(service_->ShardOf(obs.worker));
    Status st = shard->RunOnLearner([&]() {
      shard->framework()->OnHistory(obs, browse_order, completed_pos,
                                    quality_gain);
      return Status::OK();
    });
    (void)st;
  }

  void OnInitEnd() override {
    // Every shard digests its own warm-up buffer, then republishes so
    // actors rank against warm-started parameters immediately.
    for (size_t k = 0; k < service_->num_shards(); ++k) {
      ServiceShard* shard = service_->shard(k);
      Status st = shard->RunOnLearner([&]() {
        shard->framework()->OnInitEnd();
        return Status::OK();
      });
      (void)st;
    }
    service_->PublishNow();
  }

  /// Flushes all driver sessions (all shards).
  bool FlushAll() {
    bool ok = true;
    for (auto& session : sessions_) ok = session->Flush() && ok;
    return ok;
  }

 private:
  ShardedArrangementService::Session* SessionFor(int64_t arrival_index) {
    return sessions_[static_cast<size_t>(arrival_index) % sessions_.size()]
        .get();
  }

  ShardedArrangementService* service_;
  std::vector<std::unique_ptr<ShardedArrangementService::Session>> sessions_;
  std::map<int64_t, ShardedArrangementService::Ticket> tickets_;
};

}  // namespace crowdrl

#endif  // CROWDRL_SERVE_SERVING_POLICY_H_
