#include "host.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.h"

namespace perfbench {

bool ParseCpuLine(const std::string& line, CpuJiffies* out) {
  std::istringstream in(line);
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted inside user and nice, so later columns are not added).
  uint64_t v[8] = {};
  int n = 0;
  while (n < 8 && (in >> v[n])) ++n;
  if (n < 4) return false;
  const uint64_t idle = v[3] + v[4];
  const uint64_t steal = v[7];
  out->total = v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7];
  out->steal = steal;
  out->busy = out->total - idle - steal;
  return true;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string line;
  if (std::getline(in, line)) ParseCpuLine(line, &out);
  return out;
}

void HostLoad::Add(const CpuJiffies& from, const CpuJiffies& to) {
  if (to.total < from.total) return;
  delta.total += to.total - from.total;
  delta.busy += to.busy - from.busy;
  delta.steal += to.steal - from.steal;
}

void HostLoad::Merge(const HostLoad& other) {
  delta.total += other.delta.total;
  delta.busy += other.delta.busy;
  delta.steal += other.delta.steal;
}

double HostLoad::steal_pct() const {
  return delta.total == 0 ? 0.0
                          : 100.0 * static_cast<double>(delta.steal) /
                                static_cast<double>(delta.total);
}

double HostLoad::busy_pct() const {
  return delta.total == 0 ? 0.0
                          : 100.0 * static_cast<double>(delta.busy) /
                                static_cast<double>(delta.total);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostStampJson(const HostLoad& load) {
  crowdrl::JsonWriter json;
  json.BeginObject();
  json.KV("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.KV("hardware_concurrency",
          static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.KV("build_type", PERFBENCH_BUILD_TYPE);
  json.KV("avx2_kernels", PERFBENCH_AVX2 != 0);
  json.KV("avx2_cpu", __builtin_cpu_supports("avx2") != 0);
  json.KV("compiler", __VERSION__);
  json.KV("steal_pct", load.steal_pct());
  json.KV("busy_pct", load.busy_pct());
  json.EndObject();
  return json.str();
}

}  // namespace perfbench
