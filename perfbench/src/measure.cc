#include "measure.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "serve/json.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  return ClockSeconds(clock);
}

int64_t ContextSwitches() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

double CalibrationMs() {
  std::vector<uint64_t> keys(size_t{1} << 20);
  uint64_t x = 88172645463325252ull;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  const double t0 = NowSeconds();
  std::sort(keys.begin(), keys.end());
  return (NowSeconds() - t0) * 1e3;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return out;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already included in user/nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double StealShare(const CpuJiffies& begin, const CpuJiffies& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

PhaseScope::PhaseScope(std::string name, std::vector<PhaseRecord>* out)
    : name_(std::move(name)),
      out_(out),
      wall0_(NowSeconds()),
      cpu0_(ProcessCpuSeconds()),
      jiffies0_(ReadCpuJiffies()) {}

void PhaseScope::End() {
  if (!open_) return;
  open_ = false;
  PhaseRecord record;
  record.name = name_;
  record.wall_s = NowSeconds() - wall0_;
  record.cpu_s = ProcessCpuSeconds() - cpu0_;
  record.threads = ThreadCount();
  record.steal_share = StealShare(jiffies0_, ReadCpuJiffies());
  out_->push_back(std::move(record));
}

CpuPerTupleWindows::CpuPerTupleWindows(std::vector<pthread_t> own_threads,
                                       double window_s)
    : own_(std::move(own_threads)),
      window_s_(window_s),
      wall0_(NowSeconds()),
      server_cpu0_(ProcessCpuSeconds() - OwnCpu()) {}

double CpuPerTupleWindows::OwnCpu() const {
  double cpu = 0.0;
  for (pthread_t t : own_) cpu += ThreadCpuSeconds(t);
  return cpu;
}

void CpuPerTupleWindows::Sample(int64_t tuples_so_far) {
  if (NowSeconds() - wall0_ >= window_s_) CloseWindow(tuples_so_far);
}

void CpuPerTupleWindows::Close(int64_t tuples_so_far) {
  if (us_per_tuple_.empty()) CloseWindow(tuples_so_far);
}

void CpuPerTupleWindows::CloseWindow(int64_t tuples_so_far) {
  if (tuples_so_far <= tuples0_) return;
  const double server_cpu = ProcessCpuSeconds() - OwnCpu();
  us_per_tuple_.push_back((server_cpu - server_cpu0_) * 1e6 /
                          static_cast<double>(tuples_so_far - tuples0_));
  wall0_ = NowSeconds();
  server_cpu0_ = server_cpu;
  tuples0_ = tuples_so_far;
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double MetricTable::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += smptree::JsonQuote(entries_[i].name) + ": {\"value\": " +
           smptree::JsonNumber(entries_[i].value) +
           ", \"unit\": " + smptree::JsonQuote(entries_[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
