// The crowdrl end-to-end benchmark program: one process, one caller thread,
// at most one connection per workload.
//
//   perfbench --workload <paper_replay|wire_thin> --seed <n>
//             --seconds <s> --trace <0|1> [--socket <path>]
//             [--trace-out <file.json>]
//   perfbench --record-quality <seed>
//
// Prints the host stamp, every metric by name and unit, the per-layer
// self-time table of a traced run, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check fails and 2 on a usage error. README.md describes the
// workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--socket <path>] "
               "[--trace-out <file>]\n"
               "       perfbench --record-quality <seed>\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

void PrintMetrics(const RunReport& report, bool per_layer) {
  for (const MetricSpec& m :
       per_layer ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = report.metrics.find(m.name);
    std::printf("  %-36s %16.6f %s\n", m.name,
                it == report.metrics.end() ? 0.0 : it->second, m.unit);
  }
}

int Main(int argc, char** argv) {
  std::string workload_name, socket_path = "perfbench.sock", trace_out;
  uint64_t seed = 0, trace = 0, record_seed = 0;
  double seconds = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      have_seed = ParseUint(value, &seed);
      if (!have_seed) return Usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && seconds > 0 && seconds <= 600;
      if (!have_seconds) return Usage("--seconds must be in (0, 600]");
    } else if (arg == "--trace") {
      have_trace = ParseUint(value, &trace) && trace <= 1;
      if (!have_trace) return Usage("--trace must be 0 or 1");
    } else if (arg == "--socket") {
      socket_path = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--record-quality") {
      record = ParseUint(value, &record_seed);
      if (!record) return Usage("--record-quality takes a seed");
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }

  if (record) {
    std::printf("%s\n", RecordQualityRow(record_seed).c_str());
    return 0;
  }

  WorkloadFn run = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) run = w.run;
  }
  if (run == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  RunOptions options;
  options.seed = seed;
  options.seconds = seconds;
  options.trace = trace == 1;
  options.socket_path = socket_path;
  options.trace_path = options.trace ? trace_out : "";
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  const RunReport report = run(options);

  std::printf("host: %s\n", HostStampJson(report.load).c_str());
  if (!report.self_time_table.empty()) {
    std::printf("per-layer self time (traced timed phase):\n%s",
                report.self_time_table.c_str());
  }
  if (options.trace && !options.trace_path.empty()) {
    std::printf("chrome trace: %s\n", options.trace_path.c_str());
  }
  std::printf("metrics (%s):\n", options.trace ? "per-layer" : "end-to-end");
  PrintMetrics(report, options.trace);
  std::printf("operations: attempted=%lld failed=%lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", ResultJson(report, options.trace).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
