#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "host.h"

namespace perfbench {

/// A metric the benchmark reports: its name and unit are fixed here, in
/// BENCHMARK.json and in README.md.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the system sees. Printed by `--trace 0` runs.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Single-layer numbers from the traced run. Printed by `--trace 1` runs;
/// a layer a workload does not exercise reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Everything one run produced.
struct RunReport {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed correctness check; empty means correct.
  std::vector<std::string> check_failures;
  HostLoad load;  ///< host steal/busy over the timed phase(s)
  /// Human-readable per-layer self-time table (traced runs only).
  std::string self_time_table;

  bool correct() const { return failed == 0 && check_failures.empty(); }
  void Fail(const std::string& what) { check_failures.push_back(what); }
};

/// Policy staleness of one rank, in feedback events: events acknowledged
/// before the rank minus events the serving snapshot had learned. A
/// snapshot of version v was published after (v - 1) * publish_every
/// learned events (version 1 is the pre-start publish).
int64_t StalenessEvents(int64_t acked_before_rank, uint64_t snapshot_version,
                        int64_t publish_every);

/// \brief Median latency per window of consecutive requests, averaged
/// over the windows.
///
/// A whole run's median sits on a step when its latencies form two groups:
/// on a shared host the same pinned thread runs the same code at two
/// speeds, switching every second or two, and on paper_replay half the
/// ranks see pools one task larger than the other half. The median then
/// jumps from one group to the other as their shares move around one half.
/// The mean of per-window medians moves in proportion to those shares, and
/// each window's median still ignores its slowest requests.
class WindowMedians {
 public:
  explicit WindowMedians(int64_t window_size);

  /// One request's latency; every `window_size` requests close a window.
  void Add(double latency_ms);

  /// Whole windows so far.
  int64_t windows() const { return medians_.count(); }
  /// Mean of the whole windows' medians. A run too short for one whole
  /// window (the tiny test runs) gets the median of what it has.
  double MeanMedianMs() const;

 private:
  int64_t window_size_;
  crowdrl::PercentileAccumulator open_;
  crowdrl::PercentileAccumulator medians_;
};

/// True when `ranking` is a permutation of 0..n-1.
bool IsPermutation(const std::vector<int>& ranking, size_t n);

/// The last line of a run: exactly the keys the benchmark contract names,
/// with the end-to-end or the per-layer metric set.
std::string ResultJson(const RunReport& report, bool per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
