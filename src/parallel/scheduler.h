// Dynamic task scheduling (paper section 3.2.1, "attributes are scheduled
// dynamically by using an attribute counter and locking"): a shared counter
// hands out task indices; whoever increments first gets the task. We use an
// atomic fetch-add, the lock-free equivalent of the paper's counter+lock.

#ifndef SMPTREE_PARALLEL_SCHEDULER_H_
#define SMPTREE_PARALLEL_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/debug_checks.h"

namespace smptree {

/// Hands out indices [0, limit) exactly once across threads.
///
/// Synchronization contract: Reset() may only run while no thread is inside
/// Next() -- the builders guarantee this by re-arming only between phase
/// barriers (or behind the MWK gate). The contract makes Reset/Next ordering
/// a non-issue for correctness, but `limit_` is still an atomic so the
/// object stays data-race-free at the memory-model level (relaxed order
/// suffices: the phase barrier provides the happens-before edge). The debug
/// invariant checker enforces the contract: a Reset() overlapping an
/// in-flight Next() aborts in debug builds.
class DynamicScheduler {
 public:
  DynamicScheduler() = default;

  /// Re-arms the scheduler for a new phase with `limit` tasks. Must be
  /// called while no thread is pulling (between phase barriers).
  void Reset(int64_t limit) {
    debug::ExclusiveScope quiescent(pull_check_);
    limit_.store(limit, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
  }

  /// Returns the next task index, or -1 when exhausted.
  int64_t Next() {
    debug::SharedScope pulling(pull_check_);
    const int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < limit_.load(std::memory_order_relaxed) ? i : -1;
  }

  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> limit_{0};
  debug::SharedExclusiveCheck pull_check_{"DynamicScheduler Reset vs Next"};
};

/// The number of threads ParallelFor(max_threads, count, ...) runs on.
inline int ParallelForWorkers(int max_threads, int64_t count) {
  return static_cast<int>(
      std::max<int64_t>(std::min<int64_t>(std::max(max_threads, 1), count),
                        1));
}

/// Runs `work(i, worker)` once for every i in [0, count) on
/// ParallelForWorkers(max_threads, count) threads (the caller is worker 0)
/// that take indices from one shared counter -- BASIC's attribute
/// scheduling, for setup passes that do one whole attribute per index.
/// `worker` names the running thread, so `work` can use per-worker scratch
/// the caller allocated. Returns after every index has run; `work` must not
/// throw and must write only state owned by its index or its worker.
inline void ParallelFor(int max_threads, int64_t count,
                        const std::function<void(int64_t, int)>& work) {
  DynamicScheduler sched;
  sched.Reset(count);
  const auto drain = [&](int worker) {
    for (int64_t i = sched.Next(); i >= 0; i = sched.Next()) work(i, worker);
  };
  const int workers = ParallelForWorkers(max_threads, count);
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(drain, w);
  drain(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace smptree

#endif  // SMPTREE_PARALLEL_SCHEDULER_H_
