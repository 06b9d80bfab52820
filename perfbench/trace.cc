#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "common/check.h"
#include "common/json.h"

namespace perfbench {

namespace {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool InBenchLayer(const char* name) {
  return std::strncmp(name, "bench.", 6) == 0;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t Tracer::Begin(const char* name, int64_t arrival) {
  SpanRecord rec;
  rec.name = name;
  rec.arrival = arrival;
  rec.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  if (arrival < 0 && rec.parent >= 0) rec.arrival = spans_[rec.parent].arrival;
  rec.cpu_start_ns = ProcessCpuNs();
  rec.start_ns = NowNs();
  spans_.push_back(rec);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  const int64_t end = NowNs();
  const int64_t cpu_end = ProcessCpuNs();
  CROWDRL_CHECK_MSG(!open_.empty() && open_.back() == index,
                    "spans must close in LIFO order");
  open_.pop_back();
  SpanRecord& rec = spans_[index];
  rec.end_ns = end;
  rec.cpu_end_ns = cpu_end;
  if (rec.parent >= 0) {
    spans_[rec.parent].child_ns += rec.end_ns - rec.start_ns;
    spans_[rec.parent].child_cpu_ns += rec.cpu_end_ns - rec.cpu_start_ns;
  }
}

std::vector<double> Tracer::DurationsMs(const char* name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::TotalWallS(const char* name) const {
  int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double Tracer::TotalCpuS(const char* name) const {
  int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.cpu_end_ns - s.cpu_start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double Tracer::AttributedSelfS() const {
  int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (!InBenchLayer(s.name)) ns += s.end_ns - s.start_ns - s.child_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

std::string Tracer::SelfTimeTable(double wall_s) const {
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    int64_t self_cpu_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans_) {
    Row& r = rows[s.name];
    ++r.count;
    r.total_ns += s.end_ns - s.start_ns;
    r.self_ns += s.end_ns - s.start_ns - s.child_ns;
    r.self_cpu_ns += s.cpu_end_ns - s.cpu_start_ns - s.child_cpu_ns;
  }
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-32s %9s %11s %11s %11s %7s\n", "span",
                "count", "total_ms", "self_ms", "self_cpu_ms", "self_%");
  out += line;
  double self_sum_ms = 0;
  for (const auto& [name, r] : rows) {
    const double self_ms = 1e-6 * static_cast<double>(r.self_ns);
    self_sum_ms += self_ms;
    std::snprintf(line, sizeof(line),
                  "%-32s %9lld %11.3f %11.3f %11.3f %7.2f\n", name.c_str(),
                  static_cast<long long>(r.count),
                  1e-6 * static_cast<double>(r.total_ns), self_ms,
                  1e-6 * static_cast<double>(r.self_cpu_ns),
                  wall_s > 0 ? self_ms / (10.0 * wall_s) : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%-32s %9s %11s %11.3f %11s %7.2f  (traced wall %.3f ms)\n",
                "sum of self times", "", "", self_sum_ms, "",
                wall_s > 0 ? self_sum_ms / (10.0 * wall_s) : 0.0,
                1e3 * wall_s);
  out += line;
  return out;
}

crowdrl::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return crowdrl::Status::IoError("cannot write " + path);
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans_) {
    const char* dot = std::strchr(s.name, '.');
    const std::string layer =
        dot ? std::string(s.name, dot - s.name) : std::string(s.name);
    crowdrl::JsonWriter ev;
    ev.BeginObject();
    ev.KV("name", s.name);
    ev.KV("cat", layer);
    ev.KV("ph", "X");
    ev.KV("ts", 1e-3 * static_cast<double>(s.start_ns - t0));
    ev.KV("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    ev.KV("pid", int64_t{1});
    ev.KV("tid", int64_t{1});
    ev.Key("args").BeginObject();
    ev.KV("arrival", s.arrival);
    ev.KV("cpu_us", 1e-3 * static_cast<double>(s.cpu_end_ns - s.cpu_start_ns));
    ev.EndObject();
    ev.EndObject();
    out << (first ? "" : ",\n") << ev.str();
    first = false;
  }
  out << "]}\n";
  out.close();
  if (!out) return crowdrl::Status::IoError("short write to " + path);
  return crowdrl::Status::OK();
}

}  // namespace perfbench
