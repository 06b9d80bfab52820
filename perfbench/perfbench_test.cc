// The benchmark's own tests: the arithmetic behind its metrics on
// synthetic inputs, and a tiny-scale run of every workload through the
// same correctness checks a full run applies.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/stopwatch.h"
#include "host.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The benchmark reports latencies through crowdrl's PercentileAccumulator:
// linear interpolation between order statistics, exact below its cap.
TEST(PerfbenchStats, PercentilesInterpolateLinearly) {
  crowdrl::PercentileAccumulator s;
  for (int i = 100; i >= 1; --i) s.Add(i);  // order must not matter
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.5);
  EXPECT_DOUBLE_EQ(s.Percentile(90), 90.1);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.01);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100);
  crowdrl::PercentileAccumulator one;
  one.Add(7);
  EXPECT_DOUBLE_EQ(one.Percentile(90), 7);
  EXPECT_DOUBLE_EQ(crowdrl::PercentileAccumulator().Percentile(50), 0);
}

TEST(PerfbenchStats, StalenessCountsEventsTheSnapshotHasNotLearned) {
  // Version 1 is the pre-start publish: nothing learned yet.
  EXPECT_EQ(StalenessEvents(0, 1, 8), 0);
  EXPECT_EQ(StalenessEvents(5, 1, 8), 5);
  // Version 3 was published after 16 learned events.
  EXPECT_EQ(StalenessEvents(20, 3, 8), 4);
  EXPECT_EQ(StalenessEvents(16, 3, 8), 0);
  EXPECT_EQ(StalenessEvents(130, 17, 8), 2);
  // No snapshot at all: every acknowledged event is unlearned.
  EXPECT_EQ(StalenessEvents(9, 0, 8), 9);
}

TEST(PerfbenchStats, WindowMediansAveragesEachWindowsMedian) {
  WindowMedians w(/*window_size=*/4);
  EXPECT_EQ(w.windows(), 0);
  EXPECT_DOUBLE_EQ(w.MeanMedianMs(), 0);
  // Before the first window closes: the median of what there is.
  for (double x : {0.2, 0.3, 9.0}) w.Add(x);
  EXPECT_EQ(w.windows(), 0);
  EXPECT_DOUBLE_EQ(w.MeanMedianMs(), 0.3);
  // Window 1 closes on its fourth request: median 0.3 ms; its slow outlier
  // does not count.
  w.Add(0.3);
  EXPECT_EQ(w.windows(), 1);
  EXPECT_DOUBLE_EQ(w.MeanMedianMs(), 0.3);
  // Window 2: median 0.5 ms.
  for (double x : {0.4, 0.5, 0.5, 0.6}) w.Add(x);
  EXPECT_EQ(w.windows(), 2);
  EXPECT_DOUBLE_EQ(w.MeanMedianMs(), 0.4);
  // An open, partial window does not count once a whole one exists.
  for (double x : {5.0, 5.0, 5.0}) w.Add(x);
  EXPECT_DOUBLE_EQ(w.MeanMedianMs(), 0.4);
  // Two groups of latencies: the whole run's median sits on the step
  // between them, the mean of window medians follows their shares.
  WindowMedians steps(2);
  crowdrl::PercentileAccumulator all;
  for (double x : {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0}) {
    steps.Add(x);
    all.Add(x);
  }
  EXPECT_DOUBLE_EQ(all.Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(steps.MeanMedianMs(), 1.4);
}

TEST(PerfbenchStats, IsPermutation) {
  EXPECT_TRUE(IsPermutation({2, 0, 1}, 3));
  EXPECT_TRUE(IsPermutation({}, 0));
  EXPECT_FALSE(IsPermutation({0, 1}, 3));
  EXPECT_FALSE(IsPermutation({0, 0, 1}, 3));
  EXPECT_FALSE(IsPermutation({0, 1, 3}, 3));
  EXPECT_FALSE(IsPermutation({-1, 0, 1}, 3));
}

TEST(PerfbenchHost, ParsesProcStatAndComputesShares) {
  CpuJiffies a, b;
  ASSERT_TRUE(ParseCpuLine("cpu  100 0 50 800 10 0 0 40 0 0", &a));
  EXPECT_EQ(a.total, 1000u);
  EXPECT_EQ(a.steal, 40u);
  EXPECT_EQ(a.busy, 150u);
  ASSERT_TRUE(ParseCpuLine("cpu  400 0 150 1200 10 0 0 240 0 0", &b));
  HostLoad load;
  load.Add(a, b);  // +1000 jiffies: 400 busy, 200 steal
  EXPECT_DOUBLE_EQ(load.busy_pct(), 40.0);
  EXPECT_DOUBLE_EQ(load.steal_pct(), 20.0);
  EXPECT_FALSE(ParseCpuLine("cpu0 1 2 3 4", &a));
  EXPECT_FALSE(ParseCpuLine("intr 1 2 3", &a));
  EXPECT_DOUBLE_EQ(HostLoad().steal_pct(), 0.0);
}

TEST(PerfbenchTrace, SelfTimeExcludesChildrenAndBenchSpans) {
  Tracer tracer;
  {
    Span root(&tracer, "bench.arrival", 7);
    Span layer(&tracer, "net.rank");
    { Span child(&tracer, "core.score"); }
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  const auto& s = tracer.spans();
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 1);
  EXPECT_EQ(s[2].arrival, 7);  // inherited from the root
  EXPECT_EQ(s[1].child_ns, s[2].end_ns - s[2].start_ns);
  const double layer_self = 1e-9 * static_cast<double>(
      s[1].end_ns - s[1].start_ns - s[1].child_ns);
  const double child = 1e-9 * static_cast<double>(s[2].end_ns - s[2].start_ns);
  EXPECT_DOUBLE_EQ(tracer.AttributedSelfS(), layer_self + child);
  EXPECT_NE(tracer.SelfTimeTable(1.0).find("net.rank"), std::string::npos);

  ASSERT_TRUE(tracer.WriteChromeTrace("perfbench_test_trace.json").ok());
  std::ifstream in("perfbench_test_trace.json");
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"arrival\":7"), std::string::npos);
}

TEST(PerfbenchStats, ResultJsonHasExactlyTheContractKeys) {
  RunReport report;
  report.attempted = 3;
  report.metrics["setup_s"] = 1.5;
  const std::string json = ResultJson(report, /*per_layer=*/false);
  EXPECT_EQ(json.rfind("{\"correct\":true,\"attempted\":3,\"failed\":0,"
                       "\"metrics\":{\"setup_s\":{\"value\":1.5,"
                       "\"unit\":\"s\"}",
                       0),
            0u);
  for (const MetricSpec& m : EndToEndMetrics()) {
    EXPECT_NE(json.find(std::string("\"") + m.name + "\""), std::string::npos);
  }
  report.Fail("x");
  EXPECT_FALSE(report.correct());
}

class TinyWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(TinyWorkload, PassesEveryCorrectnessCheck) {
  for (const Workload& w : Workloads()) {
    if (std::string(w.name) != GetParam()) continue;
    for (bool trace : {false, true}) {
      RunOptions options;
      options.seed = 3;
      options.seconds = 0.01;
      options.tiny = true;
      options.trace = trace;
      const RunReport report = w.run(options);
      for (const std::string& f : report.check_failures) ADD_FAILURE() << f;
      EXPECT_TRUE(report.correct());
      EXPECT_GT(report.attempted, 0);
      EXPECT_EQ(report.failed, 0);
      // Every end-to-end metric is measured, and none is ever 0.
      for (const MetricSpec& m : EndToEndMetrics()) {
        const auto it = report.metrics.find(m.name);
        ASSERT_NE(it, report.metrics.end()) << m.name;
        EXPECT_GT(it->second, 0) << m.name;
      }
      EXPECT_EQ(trace, !report.self_time_table.empty());
    }
    return;
  }
  FAIL() << "no workload named " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(All, TinyWorkload,
                         ::testing::Values("paper_replay", "wire_thin"));

}  // namespace
}  // namespace perfbench
