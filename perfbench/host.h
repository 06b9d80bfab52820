#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Aggregate CPU jiffies from the first ("cpu ") line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t busy = 0;   ///< everything but idle, iowait and steal
  uint64_t steal = 0;  ///< time the hypervisor ran someone else
};

/// Parses one "cpu  user nice system idle iowait irq softirq steal ..."
/// line. Returns false on anything else.
bool ParseCpuLine(const std::string& line, CpuJiffies* out);

/// Reads /proc/stat now; all-zero when it is unreadable.
CpuJiffies ReadCpuJiffies();

/// Host steal and busy shares (percent of all CPU time) between two
/// /proc/stat readings. Accumulates over several intervals with Add.
struct HostLoad {
  CpuJiffies delta;
  void Add(const CpuJiffies& from, const CpuJiffies& to);
  void Merge(const HostLoad& other);
  double steal_pct() const;
  double busy_pct() const;
};

/// This process's user+sys CPU seconds (all threads).
double ProcessCpuSeconds();

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// The context a run is measured in: what the host and build were, and how
/// loaded the host was while the timed phase ran. These tell a slow host
/// from a slow program; they are not metrics to improve.
std::string HostStampJson(const HostLoad& load);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
