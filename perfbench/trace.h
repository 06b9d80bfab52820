#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// \brief In-memory span recorder for the traced run.
///
/// Spans are opened and closed on the benchmark's one caller thread around
/// each call into a crowdrl layer; a span's name is "<layer>.<call>", with
/// the layer named after the src/ module it enters ("bench" for the
/// benchmark's own loop). Each span records wall time, process CPU time
/// (all threads, so a call that fans out to a thread pool shows its
/// parallelism) and the arrival it belongs to. Spans nest: a span's self
/// time is its duration minus the part its children cover.
class Tracer {
 public:
  struct SpanRecord {
    const char* name = nullptr;
    int64_t arrival = -1;  ///< -1 for spans outside any arrival
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t cpu_start_ns = 0;
    int64_t cpu_end_ns = 0;
    int64_t child_ns = 0;      ///< wall time covered by direct children
    int64_t child_cpu_ns = 0;  ///< CPU time covered by direct children
    int parent = -1;
  };

  size_t Begin(const char* name, int64_t arrival);
  void End(size_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const char* name) const;
  /// Total wall and CPU seconds of every span named `name`.
  double TotalWallS(const char* name) const;
  double TotalCpuS(const char* name) const;

  /// Sum of self wall time over spans outside the "bench" layer, seconds.
  double AttributedSelfS() const;

  /// Per-span-name table: count, total, self wall, self CPU, share of
  /// `wall_s` (the independently measured traced wall time).
  std::string SelfTimeTable(double wall_s) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, one
  /// `args.arrival` id per arrival) loadable in chrome://tracing/Perfetto.
  crowdrl::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t arrival = -1)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, arrival) : 0) {}
  ~Span() {
    if (tracer_) tracer_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

/// steady_clock nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
