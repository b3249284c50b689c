// Bounded MPMC blocking queue used for request handoff in the serving
// subsystem: the HTTP event loop pushes parsed requests, the dispatch
// threads that run the handlers pop them. Built
// on the annotated Mutex/CondVar wrappers so -Wthread-safety verifies the
// protocol. Close() drains nothing: already-queued items are still handed
// out, then Pop() reports shutdown -- the server uses this to finish
// in-flight requests on Stop().

#ifndef SMPTREE_SERVE_WORK_QUEUE_H_
#define SMPTREE_SERVE_WORK_QUEUE_H_

#include <deque>
#include <optional>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace smptree {

template <typename T>
class WorkQueue {
 public:
  /// `capacity` bounds the number of queued items; Push blocks when full
  /// (closed-loop backpressure instead of unbounded memory growth).
  explicit WorkQueue(size_t capacity) : capacity_(capacity) {}

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Blocks until there is room (or the queue is closed). Returns false
  /// when the queue was closed -- the item was not enqueued.
  bool Push(T item) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available (or the queue is closed and empty).
  /// Returns nullopt only on shutdown with nothing left to hand out.
  std::optional<T> Pop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) not_empty_.Wait(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Wakes all blocked producers and consumers; subsequent Push calls are
  /// rejected, Pop drains the remaining items then reports shutdown.
  void Close() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  /// Instantaneous depth (monitoring only; stale by the time it returns).
  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_WORK_QUEUE_H_
