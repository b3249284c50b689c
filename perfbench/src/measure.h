// Measurement helpers for the end-to-end benchmark driver: clocks, order
// statistics over raw samples, process/thread CPU time, host counters from
// /proc, and the metric table the driver prints as JSON.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <pthread.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
double NowSeconds();

/// Percentile `q` in [0, 1] of raw samples, linearly interpolated between
/// closest ranks (no histogram buckets). 0 for an empty input.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// CPU seconds consumed by the whole process (all threads).
double ProcessCpuSeconds();
/// CPU seconds consumed by one thread (pthread_getcpuclockid).
double ThreadCpuSeconds(pthread_t thread);

/// Voluntary plus involuntary context switches of this process so far.
int64_t ContextSwitches();

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// Live threads of this process (/proc/self/status "Threads:").
int ThreadCount();
/// "model name" of the first CPU in /proc/cpuinfo.
std::string CpuModel();
int OnlineCpus();

/// Milliseconds a fixed single-threaded reference job (sorting 2^20
/// pseudo-random keys) takes now: a gauge of the host's current speed, so a
/// slow run on a slowed host can be told apart from a slower program.
double CalibrationMs();

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
/// steal / total between two readings (0 when nothing elapsed).
double StealShare(const CpuJiffies& begin, const CpuJiffies& end);

/// One timed phase of a run, for the host record: wall and process CPU
/// seconds, threads alive at its end, and the host's steal share over it.
struct PhaseRecord {
  std::string name;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int threads = 0;
  double steal_share = 0.0;
};

/// Brackets one phase; End() appends its PhaseRecord to `out`.
class PhaseScope {
 public:
  PhaseScope(std::string name, std::vector<PhaseRecord>* out);
  ~PhaseScope() { End(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  void End();

 private:
  std::string name_;
  std::vector<PhaseRecord>* out_;
  double wall0_;
  double cpu0_;
  CpuJiffies jiffies0_;
  bool open_ = true;
};

/// Server CPU per served tuple, sampled over fixed windows: process CPU
/// minus the CPU of the benchmark's own threads (client, trainer), divided
/// by the tuples answered in the window. A median over windows keeps a
/// short burst of host interference from moving the figure.
class CpuPerTupleWindows {
 public:
  CpuPerTupleWindows(std::vector<pthread_t> own_threads, double window_s);
  /// Closes the current window once `window_s` has passed.
  void Sample(int64_t tuples_so_far);
  /// Closes the current window early if no window has been closed yet, so
  /// a phase shorter than one window still yields a figure.
  void Close(int64_t tuples_so_far);
  const std::vector<double>& us_per_tuple() const { return us_per_tuple_; }

 private:
  double OwnCpu() const;
  void CloseWindow(int64_t tuples_so_far);

  const std::vector<pthread_t> own_;
  const double window_s_;
  double wall0_;
  double server_cpu0_;
  int64_t tuples0_ = 0;
  std::vector<double> us_per_tuple_;
};

/// Ordered name -> (value, unit) table, rendered as the driver's
/// "metrics" JSON object.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
