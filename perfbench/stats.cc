#include "stats.h"

#include "common/json.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"rank_ms_p50", "ms"},
      {"cpu_ms_per_arrival", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"rank_ms_p90", "ms"},
      {"rank_ms_p99", "ms"},
      {"feedback_ms_p50", "ms"},
      {"feedback_ms_p90", "ms"},
      {"feedback_ms_p99", "ms"},
      {"events_learned_per_s", "1/s"},
      {"staleness_events_p50", "count"},
      {"staleness_events_p99", "count"},
      {"data.generate_s", "s"},
      {"eval.history_s", "s"},
      {"eval.harness_ms_per_event", "ms"},
      {"core.warmup_s", "s"},
      {"core.build_decision_us_p50", "us"},
      {"core.score_us_p50", "us"},
      {"core.rank_decision_us_p50", "us"},
      {"core.make_transitions_ms_p50", "ms"},
      {"core.apply_transitions_ms_p50", "ms"},
      {"core.apply_transitions_ms_p90", "ms"},
      {"core.apply_transitions_cpu_per_wall", "ratio"},
      {"rl.learn_steps_per_event", "count"},
      {"rl.learn_step_ms", "ms"},
      {"rl.replay_bytes", "bytes"},
      {"serve.rank_ms_p50", "ms"},
      {"serve.rank_ms_p99", "ms"},
      {"serve.mean_batch_size", "count"},
      {"serve.learner_backlog_events", "count"},
      {"serve.drain_ms", "ms"},
      {"serve.publishes_per_event", "count"},
      {"serve.nets_copied_per_publish", "count"},
      {"net.rank_rtt_ms_p99", "ms"},
      {"net.rank_hop_ms_p50", "ms"},
      {"net.feedback_rtt_ms_p99", "ms"},
      {"net.frames_per_event", "count"},
      {"net.bytes_up_per_event", "bytes"},
      {"net.bytes_down_per_event", "bytes"},
      {"trace.overhead_pct", "%"},
      {"trace.attributed_pct", "%"},
  };
  return kMetrics;
}

int64_t StalenessEvents(int64_t acked_before_rank, uint64_t snapshot_version,
                        int64_t publish_every) {
  const int64_t learned =
      snapshot_version == 0
          ? 0
          : static_cast<int64_t>(snapshot_version - 1) * publish_every;
  return acked_before_rank - learned;
}

WindowMedians::WindowMedians(int64_t window_size)
    : window_size_(window_size) {}

void WindowMedians::Add(double latency_ms) {
  open_.Add(latency_ms);
  if (open_.count() < window_size_) return;
  medians_.Add(open_.Percentile(50));
  open_ = crowdrl::PercentileAccumulator();
}

double WindowMedians::MeanMedianMs() const {
  return windows() > 0 ? medians_.mean() : open_.Percentile(50);
}

bool IsPermutation(const std::vector<int>& ranking, size_t n) {
  if (ranking.size() != n) return false;
  std::vector<char> seen(n, 0);
  for (int i : ranking) {
    if (i < 0 || static_cast<size_t>(i) >= n || seen[i]) return false;
    seen[i] = 1;
  }
  return true;
}

std::string ResultJson(const RunReport& report, bool per_layer) {
  crowdrl::JsonWriter json;
  json.BeginObject();
  json.KV("correct", report.correct());
  json.KV("attempted", report.attempted);
  json.KV("failed", report.failed);
  json.Key("metrics").BeginObject();
  for (const MetricSpec& m :
       per_layer ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = report.metrics.find(m.name);
    json.Key(m.name).BeginObject();
    json.KV("value", it == report.metrics.end() ? 0.0 : it->second);
    json.KV("unit", m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace perfbench
