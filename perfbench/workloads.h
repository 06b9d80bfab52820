#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "stats.h"

namespace perfbench {

/// How one run is driven. Every input is generated from `seed` (on
/// paper_replay the trace is fixed and `seed` seeds the learner).
struct RunOptions {
  uint64_t seed = 1;
  /// Length of the timed phase of closed-loop arrivals on the wire
  /// workloads. paper_replay replays whole episodes (at least three, one
  /// untraced and one traced in a traced run) until the run has lasted this
  /// long.
  double seconds = 10;
  /// Per-layer run: half the time untraced, half traced (spans around
  /// every call into a crowdrl layer), reporting the per-layer metrics.
  bool trace = false;
  /// Test-sized inputs: a tiny trace and a fixed handful of wire
  /// arrivals instead of a timed phase. Same code paths and checks.
  bool tiny = false;
  /// UNIX-domain socket the wire workloads' daemon listens on.
  std::string socket_path = "perfbench.sock";
  /// Chrome trace-event output of a traced run; empty writes none.
  std::string trace_path;
};

using WorkloadFn = RunReport (*)(const RunOptions&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

/// paper_replay and wire_thin (see README.md for why each exists and
/// which layers it exercises).
const std::vector<Workload>& Workloads();

RunReport RunPaperReplay(const RunOptions& options);
RunReport RunWireThin(const RunOptions& options);

/// One untraced full-size paper_replay episode's quality metrics, as a row
/// of the recorded-quality table in workloads.cc.
std::string RecordQualityRow(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
