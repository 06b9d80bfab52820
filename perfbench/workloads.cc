#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/framework.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/harness.h"
#include "net/actor_client.h"
#include "net/learner_daemon.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"
#include "trace.h"

namespace perfbench {

using crowdrl::DecisionContext;
using crowdrl::Feedback;
using crowdrl::FrameworkConfig;
using crowdrl::MetricValues;
using crowdrl::Observation;
using crowdrl::TaskArrangementFramework;
using crowdrl::TransitionBlocks;

namespace {

double Seconds(int64_t ns) { return 1e-9 * static_cast<double>(ns); }
double Millis(int64_t ns) { return 1e-6 * static_cast<double>(ns); }

/// Share of `part` over `whole`, 0 when there is no whole.
double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// ===================================================================
// paper_replay
// ===================================================================

/// The trace an episode replays: table1_efficiency's, the
/// CrowdSpring-calibrated generator at its default scale (0.25), seed and
/// length (one init month plus three evaluated months), with every other
/// knob (workers, task rate, lifetimes) at the paper's calibration: about
/// 1050 arrivals and 45 new tasks a month, 9.5-day lifetimes, pools of
/// about 15 tasks. To keep an episode short, it replays a systematic
/// sample of the arrivals: every `history_stride`-th of the init month as
/// history, every `eval_stride`-th of the evaluated months. Every task
/// event stays, so a sampled arrival sees the pool it sees in the full
/// trace, and the sample's pool sizes, which set the per-event cost (the
/// set Q-network is quadratic in them), are distributed as in the full
/// trace.
///
/// Every episode of every run replays this one trace, and the simulated
/// worker decisions use the harness's default seed, so the history (and
/// with it the set-up work) is the same from run to run. `--seed` seeds
/// the learner: network initialization, exploration and replay sampling.
struct PaperSizing {
  double scale;
  int eval_months;
  int history_stride;
  int eval_stride;
  int min_untraced_episodes;
};
constexpr PaperSizing kPaperFull{0.25, 3, 6, 28, 3};
constexpr PaperSizing kPaperTiny{0.05, 1, 6, 14, 2};
/// table1_efficiency's default --seed.
constexpr uint64_t kTraceSeed = 17;
/// Evaluated arrivals per window of rank_ms_p50 (see WindowMedians): an
/// episode's 121 arrivals make 11 windows, the same ones in every run.
constexpr int64_t kPaperRankWindow = 11;

crowdrl::Dataset PaperTrace(const PaperSizing& sizing) {
  crowdrl::SyntheticConfig cfg;
  cfg.scale = sizing.scale;
  cfg.eval_months = sizing.eval_months;
  cfg.seed = kTraceSeed;
  crowdrl::Dataset dataset = crowdrl::SyntheticGenerator(cfg).Generate();
  const crowdrl::SimTime init_end = dataset.InitEndTime();
  int64_t history = 0, evaluated = 0;
  std::vector<crowdrl::Event> kept;
  for (const crowdrl::Event& e : dataset.events) {
    if (e.type == crowdrl::EventType::kWorkerArrival &&
        (e.time < init_end ? history++ % sizing.history_stride
                           : evaluated++ % sizing.eval_stride) != 0) {
      continue;
    }
    kept.push_back(e);
  }
  dataset.events = std::move(kept);
  return dataset;
}

/// One side (untraced or traced) of a paper_replay run, summed over its
/// episodes.
struct PaperSide {
  crowdrl::PercentileAccumulator rank_ms, feedback_ms, setup_s;
  WindowMedians rank_windows{kPaperRankWindow};
  int64_t episodes = 0;
  int64_t ranks = 0;
  int64_t feedbacks = 0;
  int64_t bad_rankings = 0;
  double timed_s = 0;      ///< first rank to end of replay, summed
  double timed_cpu_s = 0;  ///< process CPU over the same intervals
  double episode_wall_s = 0;
  double eval_policy_s = 0;  ///< policy calls inside the timed phase
  int64_t eval_learn_steps = 0;
  int64_t warmup_learn_steps = 0;
  double warmup_s = 0;
  crowdrl::PercentileAccumulator generate_s, history_s, warmup_episode_s;
  int64_t replay_bytes = 0;
  HostLoad load;
};

int64_t LearnSteps(const TaskArrangementFramework& fw) {
  int64_t steps = 0;
  if (fw.worker_agent()) steps += fw.worker_agent()->learn_steps();
  if (fw.requester_agent()) steps += fw.requester_agent()->learn_steps();
  return steps;
}

/// \brief The policy the harness drives: forwards every call to the
/// framework and times it as the harness's caller would see it.
///
/// Untraced, it calls the framework's public Rank / OnFeedback. Traced,
/// it calls the decision primitives those two are defined from
/// (framework.h) inside one span each, so the traced episode must
/// reproduce the untraced quality metrics exactly.
class ReplayPolicy final : public crowdrl::Policy {
 public:
  ReplayPolicy(TaskArrangementFramework* fw, Tracer* tracer, PaperSide* side)
      : fw_(fw), tracer_(tracer), side_(side) {}

  std::string name() const override { return fw_->name(); }

  void OnArrival(const Observation& obs) override {
    const int64_t t0 = NowNs();
    {
      Span span(tracer_, "core.on_arrival", obs.arrival_index);
      fw_->OnArrival(obs);
    }
    if (timed_) side_->eval_policy_s += Seconds(NowNs() - t0);
  }

  std::vector<int> Rank(const Observation& obs) override {
    if (!timed_) StartTimed();
    const int64_t t0 = NowNs();
    std::vector<int> ranking;
    if (tracer_ == nullptr) {
      ranking = fw_->Rank(obs);
    } else {
      Span span(tracer_, "core.rank", obs.arrival_index);
      {
        Span s(tracer_, "core.build_decision");
        pending_ = fw_->BuildDecision(obs);
      }
      std::vector<double> scores;
      {
        Span s(tracer_, "core.score");
        scores = fw_->ScoreDecision(pending_, fw_->LiveView());
      }
      {
        Span s(tracer_, "core.rank_decision");
        ranking = fw_->RankDecision(obs, pending_, scores);
      }
      pending_arrival_ = obs.arrival_index;
    }
    const int64_t dt = NowNs() - t0;
    side_->rank_ms.Add(Millis(dt));
    side_->rank_windows.Add(Millis(dt));
    side_->eval_policy_s += Seconds(dt);
    ++side_->ranks;
    if (!IsPermutation(ranking, obs.tasks.size())) ++side_->bad_rankings;
    return ranking;
  }

  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const Feedback& feedback) override {
    const int64_t t0 = NowNs();
    if (tracer_ == nullptr) {
      fw_->OnFeedback(obs, ranking, feedback);
    } else {
      Span span(tracer_, "core.feedback", obs.arrival_index);
      CROWDRL_CHECK(pending_arrival_ == obs.arrival_index);
      TransitionBlocks blocks;
      {
        Span s(tracer_, "core.make_transitions");
        blocks = fw_->MakeTransitions(obs, pending_, ranking, feedback,
                                      fw_->LiveView());
      }
      Span s(tracer_, "core.apply_transitions");
      fw_->ApplyTransitions(std::move(blocks));
    }
    const int64_t dt = NowNs() - t0;
    side_->feedback_ms.Add(Millis(dt));
    side_->eval_policy_s += Seconds(dt);
    ++side_->feedbacks;
  }

  void OnHistory(const Observation& obs, const std::vector<int>& browse_order,
                 int completed_pos, double quality_gain) override {
    const int64_t t0 = NowNs();
    {
      Span span(tracer_, "eval.history", obs.arrival_index);
      fw_->OnHistory(obs, browse_order, completed_pos, quality_gain);
    }
    history_s_ += Seconds(NowNs() - t0);
  }

  void OnInitEnd() override {
    const int64_t steps = LearnSteps(*fw_);
    const int64_t t0 = NowNs();
    {
      Span span(tracer_, "core.warmup");
      fw_->OnInitEnd();
    }
    const double dt = Seconds(NowNs() - t0);
    side_->warmup_episode_s.Add(dt);
    side_->warmup_s += dt;
    side_->warmup_learn_steps += LearnSteps(*fw_) - steps;
  }

  void OnDayEnd(crowdrl::SimTime now) override { fw_->OnDayEnd(now); }

  bool timed() const { return timed_; }
  int64_t timed_start_ns() const { return timed_start_ns_; }
  double timed_start_cpu_s() const { return timed_start_cpu_s_; }
  const CpuJiffies& timed_start_jiffies() const { return timed_jiffies_; }
  int64_t timed_start_learn_steps() const { return timed_learn_steps_; }
  double history_s() const { return history_s_; }

 private:
  void StartTimed() {
    timed_ = true;
    timed_jiffies_ = ReadCpuJiffies();
    timed_start_cpu_s_ = ProcessCpuSeconds();
    timed_learn_steps_ = LearnSteps(*fw_);
    timed_start_ns_ = NowNs();
  }

  TaskArrangementFramework* fw_;
  Tracer* tracer_;
  PaperSide* side_;
  bool timed_ = false;
  int64_t timed_start_ns_ = 0;
  double timed_start_cpu_s_ = 0;
  CpuJiffies timed_jiffies_;
  int64_t timed_learn_steps_ = 0;
  double history_s_ = 0;
  DecisionContext pending_;
  int64_t pending_arrival_ = -1;
};

/// Generates the trace, builds the harness and the framework, and replays:
/// the sampled init month as history, the warm-up, then the sampled
/// evaluated months.
/// Everything before the first Rank is set-up.
MetricValues RunEpisode(const PaperSizing& sizing, uint64_t seed,
                        Tracer* tracer, PaperSide* side) {
  const int64_t t0 = NowNs();
  MetricValues quality;
  {
    Span episode(tracer, "bench.episode");
    crowdrl::Dataset dataset;
    const int64_t g0 = NowNs();
    {
      Span s(tracer, "data.generate");
      dataset = PaperTrace(sizing);
    }
    side->generate_s.Add(Seconds(NowNs() - g0));

    // Table I's DRL sizing: the ExperimentConfig defaults (hidden 64,
    // batch 32, a learner step per stored transition), balancing both
    // DQNs.
    crowdrl::ExperimentConfig exp_cfg;
    exp_cfg.seed = seed;
    const crowdrl::Experiment experiment(&dataset, exp_cfg);
    std::unique_ptr<crowdrl::ReplayHarness> harness;
    {
      Span s(tracer, "eval.construct");
      harness = std::make_unique<crowdrl::ReplayHarness>(&dataset,
                                                         exp_cfg.harness);
    }
    std::unique_ptr<TaskArrangementFramework> framework;
    {
      Span s(tracer, "core.construct");
      framework = std::make_unique<TaskArrangementFramework>(
          experiment.MakeFrameworkConfig(crowdrl::Objective::kBalanced),
          harness.get(), harness->worker_feature_dim(),
          harness->task_feature_dim());
    }
    ReplayPolicy policy(framework.get(), tracer, side);
    crowdrl::RunResult result;
    {
      Span s(tracer, "eval.replay");
      result = harness->Run(&policy);
    }
    const int64_t t_end = NowNs();
    CROWDRL_CHECK_MSG(policy.timed(), "the trace has no evaluated arrival");
    side->load.Add(policy.timed_start_jiffies(), ReadCpuJiffies());
    side->timed_cpu_s += ProcessCpuSeconds() - policy.timed_start_cpu_s();
    side->timed_s += Seconds(t_end - policy.timed_start_ns());
    side->setup_s.Add(Seconds(policy.timed_start_ns() - t0));
    side->history_s.Add(policy.history_s());
    side->eval_learn_steps +=
        LearnSteps(*framework) - policy.timed_start_learn_steps();
    side->replay_bytes = 0;
    if (framework->worker_agent()) {
      side->replay_bytes += framework->worker_agent()->replay_bytes();
    }
    if (framework->requester_agent()) {
      side->replay_bytes += framework->requester_agent()->replay_bytes();
    }
    quality = result.final_metrics;
  }
  side->episode_wall_s += Seconds(NowNs() - t0);
  ++side->episodes;
  return quality;
}

/// Gradient chunks each learner step sums (DqnAgent::LearnStep: one per
/// thread of the global pool, at most the batch and 16). The chunk
/// gradients are added in float, so the trained weights, and with them the
/// quality metrics, depend on this count as well as on the program.
size_t LearnerChunks() {
  const size_t batch = crowdrl::ExperimentConfig().batch_size;
  return std::max<size_t>(
      1, std::min({crowdrl::ThreadPool::Global().num_threads(), batch,
                   size_t{16}}));
}

/// paper_replay's six quality metrics, recorded for one seed on a host
/// whose learner sums `chunks` gradient chunks (Release build, portable
/// kernels). A run with the same seed and chunk count must reproduce them
/// bit for bit. Regenerate a row with `perfbench --record-quality <seed>`.
struct RecordedQuality {
  uint64_t seed;
  size_t chunks;
  MetricValues quality;
};

const RecordedQuality kRecordedQuality[] = {
    {1, 4, {0.0743801652892562, 0.22437420878247927, 0.31714831184718767, 4.6361382834530431, 13.421426510590512, 18.10148402727333}},
    {2, 4, {0.0743801652892562, 0.23558646200691954, 0.32210256331829323, 3.4431761286464462, 13.453164628857902, 17.510726035084545}},
    {3, 4, {0.11570247933884298, 0.24092831336340692, 0.34142027198000924, 6.2806564690389468, 13.503148236194553, 18.098029304715013}},
    {4, 4, {0.082644628099173556, 0.24800703885970957, 0.331668527642699, 5.6432255650795113, 15.341086487378789, 19.253868495117995}},
    {5, 4, {0.10743801652892562, 0.23367167407249262, 0.32993105977023135, 7.5329234970505086, 14.159855684001849, 18.832514354050748}},
    {6, 4, {0.14049586776859505, 0.27315344074775244, 0.3576572087923533, 6.5604648148684248, 13.934937760953806, 18.075206281704542}},
    {7, 4, {0.066115702479338845, 0.22524105641502967, 0.31601954895150408, 4.3138085498904308, 12.171795203118794, 16.638120510726587}},
    {8, 4, {0.082644628099173556, 0.21538986165245774, 0.32033585985925989, 5.7705714429809003, 13.182141696649801, 17.840092595957184}},
    {9, 4, {0.11570247933884298, 0.25199807289364112, 0.34184585250499422, 7.7724795438661962, 15.786316347007046, 19.696748333932273}},
    {10, 4, {0.12396694214876033, 0.25903820499447705, 0.35239747977174862, 7.4544638952971631, 14.247904218716686, 19.216095449589616}},
    {11, 4, {0.090909090909090912, 0.25354469364307569, 0.33565026308404772, 7.1943811448646677, 16.280344993267065, 20.143693629892145}},
    {12, 4, {0.15702479338842976, 0.28337129046721654, 0.36535408758044302, 11.370358672263711, 17.980080612693236, 21.471166363783606}},
};

const RecordedQuality* FindRecordedQuality(uint64_t seed, size_t chunks) {
  for (const RecordedQuality& r : kRecordedQuality) {
    if (r.seed == seed && r.chunks == chunks) return &r;
  }
  return nullptr;
}

bool SameQuality(const MetricValues& a, const MetricValues& b) {
  return a.cr == b.cr && a.kcr == b.kcr && a.ndcg_cr == b.ndcg_cr &&
         a.qg == b.qg && a.kqg == b.kqg && a.ndcg_qg == b.ndcg_qg;
}

std::string QualityString(const MetricValues& q) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cr=%.17g kcr=%.17g ndcg_cr=%.17g qg=%.17g kqg=%.17g "
                "ndcg_qg=%.17g",
                q.cr, q.kcr, q.ndcg_cr, q.qg, q.kqg, q.ndcg_qg);
  return buf;
}

/// What the caller sees, from an untraced timed phase: the end-to-end
/// metrics plus the caller-side ones moved to the per-layer set (the
/// result line prints only the set its run asks for).
void AddCallerMetrics(const crowdrl::PercentileAccumulator& setup_s,
                      const WindowMedians& rank_windows,
                      const crowdrl::PercentileAccumulator& rank_ms,
                      const crowdrl::PercentileAccumulator& feedback_ms,
                      double learned_per_s, double cpu_ms_per_arrival,
                      RunReport* report) {
  report->metrics["setup_s"] = setup_s.Percentile(50);
  report->metrics["rank_ms_p50"] = rank_windows.MeanMedianMs();
  std::printf("rank_ms_p50 is the mean of %lld window medians; the median "
              "of all %lld ranks is %.4f ms\n",
              static_cast<long long>(rank_windows.windows()),
              static_cast<long long>(rank_ms.count()), rank_ms.Percentile(50));
  report->metrics["rank_ms_p90"] = rank_ms.Percentile(90);
  report->metrics["rank_ms_p99"] = rank_ms.Percentile(99);
  report->metrics["feedback_ms_p50"] = feedback_ms.Percentile(50);
  report->metrics["feedback_ms_p90"] = feedback_ms.Percentile(90);
  report->metrics["feedback_ms_p99"] = feedback_ms.Percentile(99);
  report->metrics["events_learned_per_s"] = learned_per_s;
  report->metrics["cpu_ms_per_arrival"] = cpu_ms_per_arrival;
  report->metrics["peak_rss_mb"] = PeakRssMb();
}

/// Overhead of tracing: traced against untraced wall time per arrival.
double OverheadPct(double traced_s, int64_t traced_n, double untraced_s,
                   int64_t untraced_n) {
  if (traced_n == 0 || untraced_n == 0 || untraced_s <= 0) return 0.0;
  const double traced = traced_s / static_cast<double>(traced_n);
  const double untraced = untraced_s / static_cast<double>(untraced_n);
  return 100.0 * (traced / untraced - 1.0);
}

/// Traced runs must account for their wall time with per-layer self
/// times: at most this share may sit in the benchmark's own loop.
constexpr double kAttributionTolerance = 0.05;

void FinishTrace(const Tracer& tracer, double traced_wall_s,
                 const RunOptions& options, RunReport* report) {
  const double attributed = Ratio(tracer.AttributedSelfS(), traced_wall_s);
  report->metrics["trace.attributed_pct"] = 100.0 * attributed;
  report->self_time_table = tracer.SelfTimeTable(traced_wall_s);
  if (attributed < 1.0 - kAttributionTolerance ||
      attributed > 1.0 + kAttributionTolerance) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "per-layer self times cover %.2f%% of the traced wall "
                  "time (tolerance %.0f%%)",
                  100.0 * attributed, 100.0 * kAttributionTolerance);
    report->Fail(buf);
  }
  if (!options.trace_path.empty()) {
    const crowdrl::Status st = tracer.WriteChromeTrace(options.trace_path);
    if (!st.ok()) report->Fail(st.ToString());
  }
}

}  // namespace

RunReport RunPaperReplay(const RunOptions& options) {
  const PaperSizing& sizing = options.tiny ? kPaperTiny : kPaperFull;
  // Past this point no episode starts once the run has two, so one run
  // stays far inside the benchmark's per-run time limit whatever the host
  // does.
  const double start_limit_s = 3 * options.seconds + 30;

  RunReport report;
  PaperSide untraced, traced;
  Tracer tracer;
  MetricValues reference;
  const int64_t run_start = NowNs();
  // Every episode replays the same inputs, and must reproduce episode 0's
  // quality bit for bit: an untraced one as a determinism check that needs
  // no recorded values, a traced one (decision primitives instead of
  // Rank/OnFeedback) as the tracing check. A traced run alternates
  // untraced and traced episodes, so host drift affects both sides alike.
  for (int64_t episode = 0;; ++episode) {
    const bool traced_episode = options.trace && episode % 2 == 1;
    PaperSide* side = traced_episode ? &traced : &untraced;
    const MetricValues quality = RunEpisode(
        sizing, options.seed, traced_episode ? &tracer : nullptr, side);
    if (episode == 0) {
      reference = quality;
    } else if (!SameQuality(quality, reference)) {
      report.Fail(std::string(traced_episode ? "traced" : "untraced") +
                  " episode " + std::to_string(episode) +
                  " quality differs from episode 0: " +
                  QualityString(quality) + " vs " + QualityString(reference));
    }
    // Episodes are indivisible: the run replays whole ones until it has
    // the episodes it needs and has lasted `seconds`.
    const double elapsed_s = Seconds(NowNs() - run_start);
    const bool enough_episodes =
        options.trace
            ? untraced.episodes >= 1 && traced.episodes >= 1
            : untraced.episodes >= sizing.min_untraced_episodes;
    if (enough_episodes && elapsed_s >= options.seconds) break;
    if (episode >= 1 && elapsed_s > start_limit_s) break;
  }
  const size_t chunks = LearnerChunks();
  const RecordedQuality* recorded =
      options.tiny ? nullptr : FindRecordedQuality(options.seed, chunks);
  if (recorded != nullptr && !SameQuality(reference, recorded->quality)) {
    report.Fail("quality differs from the values recorded for seed " +
                std::to_string(options.seed) + " and " +
                std::to_string(chunks) + " learner chunks: " +
                QualityString(reference) + " vs " +
                QualityString(recorded->quality));
  }
  std::printf("paper_replay quality over %lld episodes (%zu learner chunks, "
              "%s): %s\n",
              static_cast<long long>(untraced.episodes + traced.episodes),
              chunks, recorded ? "recorded row" : "no recorded row",
              QualityString(reference).c_str());

  for (const PaperSide* side : {&untraced, &traced}) {
    report.attempted += side->ranks + side->feedbacks;
    report.failed += side->bad_rankings;
  }
  report.load = untraced.load;
  report.load.Merge(traced.load);

  AddCallerMetrics(
      untraced.setup_s, untraced.rank_windows, untraced.rank_ms,
      untraced.feedback_ms,
      Ratio(static_cast<double>(untraced.feedbacks), untraced.timed_s),
      1e3 * Ratio(untraced.timed_cpu_s, static_cast<double>(untraced.ranks)),
      &report);
  if (!options.trace) return report;

  auto& m = report.metrics;
  m["data.generate_s"] = traced.generate_s.Percentile(50);
  m["eval.history_s"] = traced.history_s.Percentile(50);
  m["core.warmup_s"] = traced.warmup_episode_s.Percentile(50);
  m["eval.harness_ms_per_event"] =
      1e3 * Ratio(traced.timed_s - traced.eval_policy_s,
                  static_cast<double>(traced.feedbacks));
  auto p50_us = [&](const char* name) {
    crowdrl::PercentileAccumulator acc;
    for (double ms : tracer.DurationsMs(name)) acc.Add(1e3 * ms);
    return acc.Percentile(50);
  };
  m["core.build_decision_us_p50"] = p50_us("core.build_decision");
  m["core.score_us_p50"] = p50_us("core.score");
  m["core.rank_decision_us_p50"] = p50_us("core.rank_decision");
  crowdrl::PercentileAccumulator make_ms, apply_ms;
  for (double ms : tracer.DurationsMs("core.make_transitions")) {
    make_ms.Add(ms);
  }
  for (double ms : tracer.DurationsMs("core.apply_transitions")) {
    apply_ms.Add(ms);
  }
  m["core.make_transitions_ms_p50"] = make_ms.Percentile(50);
  m["core.apply_transitions_ms_p50"] = apply_ms.Percentile(50);
  m["core.apply_transitions_ms_p90"] = apply_ms.Percentile(90);
  m["core.apply_transitions_cpu_per_wall"] =
      Ratio(tracer.TotalCpuS("core.apply_transitions"),
            tracer.TotalWallS("core.apply_transitions"));
  m["rl.learn_steps_per_event"] =
      Ratio(static_cast<double>(traced.eval_learn_steps),
            static_cast<double>(traced.feedbacks));
  m["rl.learn_step_ms"] =
      1e3 * Ratio(traced.warmup_s,
                  static_cast<double>(traced.warmup_learn_steps));
  m["rl.replay_bytes"] = static_cast<double>(traced.replay_bytes);
  m["trace.overhead_pct"] =
      OverheadPct(traced.timed_s, traced.feedbacks, untraced.timed_s,
                  untraced.feedbacks);
  FinishTrace(tracer, traced.episode_wall_s, options, &report);
  return report;
}

std::string RecordQualityRow(uint64_t seed) {
  PaperSide side;
  const MetricValues q = RunEpisode(kPaperFull, seed, nullptr, &side);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{%llu, %zu, {%.17g, %.17g, %.17g, %.17g, %.17g, %.17g}},",
                static_cast<unsigned long long>(seed), LearnerChunks(), q.cr,
                q.kcr, q.ndcg_cr, q.qg, q.kqg, q.ndcg_qg);
  return buf;
}

// ===================================================================
// wire_thin
// ===================================================================

namespace {

/// The serving-lean daemon config of bench_serve_throughput: hidden 32,
/// a learner step per 16 stored transitions, a snapshot per 8 learned
/// events, a 200 us / 16-request coalescing window and 4-event flush
/// blocks, one shard.
constexpr int64_t kPublishEvery = 8;
constexpr int kWireSetups = 21;
/// Arrivals per window of rank_ms_p50 (see WindowMedians): about a quarter
/// of a second, shorter than the host's fast and slow spells.
constexpr int64_t kWireRankWindow = 256;
constexpr int64_t kTinyArrivals = 64;

FrameworkConfig ServingFrameworkConfig(uint64_t seed) {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  for (crowdrl::DqnAgentConfig* dqn : {&cfg.worker_dqn, &cfg.requester_dqn}) {
    dqn->net.hidden_dim = 32;
    dqn->net.num_heads = 4;
    dqn->batch_size = 32;
    dqn->learn_every = 16;
    dqn->replay.capacity = 1000;
  }
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 0;  // one transition per MDP per feedback
  cfg.learn_from_history = false;
  cfg.seed = seed;
  return cfg;
}

crowdrl::ServiceConfig ServingServiceConfig() {
  crowdrl::ServiceConfig cfg;
  cfg.max_batch = 16;
  cfg.batch_window_us = 200;
  cfg.flush_block_events = 4;
  cfg.publish_every_events = kPublishEvery;
  return cfg;
}

/// Workload, service, daemon and one client connection, all in this
/// process; the client talks to the daemon over the UNIX-domain socket.
struct WireStack {
  std::unique_ptr<crowdrl::ServeWorkload> workload;
  std::unique_ptr<crowdrl::ShardedArrangementService> service;
  std::unique_ptr<crowdrl::net::LearnerDaemon> daemon;
  std::unique_ptr<crowdrl::net::ActorClient> client;

  ~WireStack() { Close(); }
  void Close() {
    client.reset();
    if (daemon) daemon->Stop();
    if (service) service->Stop();
    daemon.reset();
    service.reset();
    workload.reset();
  }
};

crowdrl::Status OpenWireStack(uint64_t seed, const std::string& socket_path,
                              WireStack* stack) {
  crowdrl::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = seed ^ 0x5EEDULL;
  stack->workload = std::make_unique<crowdrl::ServeWorkload>(wl_cfg);
  const crowdrl::ServeWorkload& wl = *stack->workload;
  stack->service = crowdrl::ShardedArrangementService::Create(
      ServingFrameworkConfig(seed), &wl, wl.worker_feature_dim(),
      wl.task_feature_dim(), /*num_shards=*/1, ServingServiceConfig());
  stack->service->Start();
  stack->daemon = std::make_unique<crowdrl::net::LearnerDaemon>(
      stack->service.get(), socket_path);
  const crowdrl::Status started = stack->daemon->Start();
  if (!started.ok()) return started;
  auto client = crowdrl::net::ActorClient::Connect(socket_path);
  if (!client.ok()) return client.status();
  stack->client = std::move(client).value();
  crowdrl::ServiceStats first;
  return stack->client->FetchStats(&first);
}

/// One side (untraced or traced) of a wire run.
struct WireSide {
  crowdrl::PercentileAccumulator setup_s, rank_ms, feedback_ms, staleness;
  WindowMedians rank_windows{kWireRankWindow};
  int64_t arrivals = 0;
  int64_t acked = 0;  ///< feedback events acknowledged, all learnable
  double loop_s = 0;  ///< first arrival to last acknowledgement
  double learned_s = 0;  ///< first arrival until the learner drained
  double cpu_s = 0;      ///< process CPU over learned_s
  double drain_ms = 0;
  int64_t backlog_at_last_ack = 0;
  int64_t frames = 0, bytes_up = 0, bytes_down = 0;
  crowdrl::ServiceStats at_last_ack, drained;
  int64_t learn_steps = 0;
  HostLoad load;
};

/// Drives one closed loop (one caller, one connection) for the timed phase
/// and waits for the learner to drain.
void RunWireLoop(const RunOptions& options, int setups, Tracer* tracer,
                 WireSide* side, RunReport* report) {
  WireStack stack;
  for (int k = 0; k < setups; ++k) {
    if (k > 0) stack.Close();
    const int64_t t0 = NowNs();
    const crowdrl::Status st =
        OpenWireStack(options.seed, options.socket_path, &stack);
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      return;
    }
    side->setup_s.Add(Seconds(NowNs() - t0));
  }
  const crowdrl::ServeWorkload& wl = *stack.workload;
  crowdrl::net::ActorClient& client = *stack.client;
  crowdrl::Rng rng(options.seed ^ 0x9E3779B97F4A7C15ULL);

  const int64_t frames0 = client.frames_sent() + client.frames_received();
  const int64_t up0 = client.bytes_sent(), down0 = client.bytes_received();
  const CpuJiffies jiffies0 = ReadCpuJiffies();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  auto keep_going = [&] {
    return options.tiny ? side->arrivals < kTinyArrivals
                        : NowNs() < deadline;
  };
  auto fail_op = [&](const char* op, const crowdrl::Status& st) {
    ++report->failed;
    report->Fail(std::string(op) + ": " + st.ToString());
  };
  while (keep_going()) {
    const int64_t arrival = side->arrivals++;
    Span root(tracer, "bench.arrival", arrival);
    Observation obs;
    {
      Span s(tracer, "bench.make_observation");
      obs = wl.MakeObservation(arrival, &rng);
    }

    // ---- rank
    int64_t t0 = NowNs();
    ++report->attempted;
    crowdrl::net::DecodedRankResponse resp;
    crowdrl::Status st;
    {
      Span s(tracer, "net.rank");
      st = client.Rank(obs, /*record_arrival=*/true, &resp);
    }
    const double rank_ms = Millis(NowNs() - t0);
    side->rank_ms.Add(rank_ms);
    side->rank_windows.Add(rank_ms);
    if (!st.ok()) {
      fail_op("Rank", st);
      break;
    }
    if (resp.degraded || !IsPermutation(resp.ranking, obs.tasks.size())) {
      ++report->failed;
      continue;
    }
    side->staleness.Add(static_cast<double>(StalenessEvents(
        side->acked, resp.snapshot_version, kPublishEvery)));
    Feedback feedback;
    {
      Span s(tracer, "bench.simulate_feedback");
      feedback = wl.SimulateFeedback(obs, resp.ranking, &rng);
    }

    // ---- feedback: the daemon mints the transitions
    t0 = NowNs();
    ++report->attempted;
    crowdrl::net::FeedbackResponseHead head;
    {
      Span s(tracer, "net.feedback");
      st = client.Feedback(obs.arrival_index, obs.worker, feedback, &head);
    }
    side->feedback_ms.Add(Millis(NowNs() - t0));
    if (!st.ok()) {
      fail_op("Feedback", st);
      break;
    }
    if (!head.accepted) {
      ++report->failed;
      continue;
    }
    ++side->acked;
  }
  const int64_t last_ack = NowNs();
  side->loop_s = Seconds(last_ack - start);
  side->at_last_ack = stack.daemon->Stats();
  side->backlog_at_last_ack = side->acked - side->at_last_ack.events_processed;
  side->frames = client.frames_sent() + client.frames_received() - frames0;
  side->bytes_up = client.bytes_sent() - up0;
  side->bytes_down = client.bytes_received() - down0;

  // Closing the connection flushes the daemon session's partial block;
  // then wait until every acknowledged event has been learned.
  stack.client.reset();
  const int64_t drain_limit = last_ack + 30'000'000'000;
  int64_t processed = 0;
  while ((processed = stack.daemon->Stats().events_processed) < side->acked &&
         NowNs() < drain_limit) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const int64_t drained = NowNs();
  side->cpu_s = ProcessCpuSeconds() - cpu0;
  side->load.Add(jiffies0, ReadCpuJiffies());
  side->learned_s = Seconds(drained - start);
  side->drain_ms = Millis(drained - last_ack);
  side->drained = stack.daemon->Stats();
  if (processed != side->acked) {
    report->Fail("learner processed " + std::to_string(processed) +
                 " events, " + std::to_string(side->acked) +
                 " were acknowledged");
  }
  stack.daemon->Stop();
  stack.service->Stop();
  const TaskArrangementFramework* fw = stack.service->shard(0)->framework();
  side->learn_steps = LearnSteps(*fw);
}

}  // namespace

RunReport RunWireThin(const RunOptions& options) {
  RunReport report;
  WireSide untraced, traced;
  RunOptions half = options;
  if (options.trace) half.seconds = options.seconds / 2;
  RunWireLoop(half, options.trace || options.tiny ? 1 : kWireSetups, nullptr,
              &untraced, &report);
  report.load = untraced.load;
  AddCallerMetrics(
      untraced.setup_s, untraced.rank_windows, untraced.rank_ms,
      untraced.feedback_ms,
      Ratio(static_cast<double>(untraced.drained.events_processed),
            untraced.learned_s),
      1e3 * Ratio(untraced.cpu_s, static_cast<double>(untraced.arrivals)),
      &report);
  auto& m = report.metrics;
  m["staleness_events_p50"] = untraced.staleness.Percentile(50);
  m["staleness_events_p99"] = untraced.staleness.Percentile(99);
  if (!options.trace) return report;

  Tracer tracer;
  RunWireLoop(half, 1, &tracer, &traced, &report);
  report.load.Merge(traced.load);

  const WireSide& t = traced;
  const double events = static_cast<double>(t.acked);
  m["serve.rank_ms_p50"] = t.at_last_ack.rank_latency_p50_ms;
  m["serve.rank_ms_p99"] = t.at_last_ack.rank_latency_p99_ms;
  m["serve.mean_batch_size"] = t.at_last_ack.mean_batch_size;
  m["net.rank_rtt_ms_p99"] = t.rank_ms.Percentile(99);
  m["net.rank_hop_ms_p50"] =
      t.rank_ms.Percentile(50) - t.at_last_ack.rank_latency_p50_ms;
  m["net.feedback_rtt_ms_p99"] = t.feedback_ms.Percentile(99);
  const double learned = static_cast<double>(t.drained.events_processed);
  const double publishes = static_cast<double>(t.drained.snapshot_version);
  m["rl.learn_steps_per_event"] =
      Ratio(static_cast<double>(t.learn_steps), learned);
  m["rl.replay_bytes"] = static_cast<double>(t.drained.replay_bytes);
  m["serve.learner_backlog_events"] =
      static_cast<double>(t.backlog_at_last_ack);
  m["serve.drain_ms"] = t.drain_ms;
  m["serve.publishes_per_event"] = Ratio(publishes - 1, learned);
  m["serve.nets_copied_per_publish"] =
      Ratio(static_cast<double>(t.drained.snapshot_nets_copied), publishes);
  m["net.frames_per_event"] = Ratio(static_cast<double>(t.frames), events);
  m["net.bytes_up_per_event"] = Ratio(static_cast<double>(t.bytes_up), events);
  m["net.bytes_down_per_event"] =
      Ratio(static_cast<double>(t.bytes_down), events);
  m["trace.overhead_pct"] = OverheadPct(t.loop_s, t.arrivals, untraced.loop_s,
                                        untraced.arrivals);
  FinishTrace(tracer, t.loop_s, options, &report);
  return report;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_replay", &RunPaperReplay},
      {"wire_thin", &RunWireThin},
  };
  return kWorkloads;
}

}  // namespace perfbench
