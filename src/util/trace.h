// Lightweight per-thread event tracing for the parallel builders.
//
// The design goal is that tracing *off* costs one thread-local pointer load
// per span and tracing *on* costs one vector push_back per span -- no locks
// on the hot path, so a traced TSan run exercises the same interleavings as
// an untraced one. Each worker thread binds itself to a TraceRecorder with a
// TraceThreadBinding at the top of its body; TraceSpan then appends complete
// events ("X" phase in Chrome trace_event terms) to that thread's private
// buffer. The recorder only touches a mutex when a thread attaches and when
// the (quiescent) owner drains the buffers after the build.
//
// Consumers:
//   * TraceRecorder::ToChromeJson() -- a trace viewable in about:tracing or
//     https://ui.perfetto.dev (see docs/OBSERVABILITY.md).
//   * core/build_stats.h -- folds the same events into a per-thread
//     compute-vs-blocked summary.

#ifndef SMPTREE_UTIL_TRACE_H_
#define SMPTREE_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace smptree {

/// One completed span on one thread. `name` and `cat` must be string
/// literals (they are stored as pointers and serialized after the build).
struct TraceEvent {
  const char* name;  ///< e.g. "E", "W", "S", "barrier", "gate_wait".
  const char* cat;   ///< "phase" for compute spans, "wait" for blocked ones.
  int level;         ///< tree level the span belongs to, or -1.
  int64_t arg;       ///< optional payload (e.g. leaves processed), or -1.
  uint64_t ts_ns;    ///< start, nanoseconds since the recorder's epoch.
  uint64_t dur_ns;   ///< span duration in nanoseconds.
};

namespace trace_internal {

/// Private event buffer of one bound thread. Only the owning thread appends;
/// the recorder reads it after the thread team has joined.
struct ThreadBuffer {
  int tid = 0;
  std::chrono::steady_clock::time_point epoch;
  std::vector<TraceEvent> events;
};

/// Current thread's buffer; null when the thread is not bound to a recorder
/// (the common case -- every TraceSpan checks this first). The thread_local
/// behind it is private to trace.cc: read there, gcc loads it directly
/// instead of through the TLS wrapper function it emits for an extern
/// thread_local, which UBSan misreports as a null-pointer load on unbound
/// threads.
ThreadBuffer* CurrentBuffer();

}  // namespace trace_internal

/// Collects the spans of one build. A recorder instance serves one build at
/// a time: bind the worker threads, run the build, join the team, then read.
///
/// Thread-compatibility contract: AttachThread() may be called concurrently
/// (it locks); the read accessors (num_threads / thread_tid / thread_events /
/// num_events / ToChromeJson) require quiescence -- call them only after
/// every TraceThreadBinding has been destroyed.
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Registers a new buffer for the calling thread and returns it. Called by
  /// TraceThreadBinding, not directly by builder code.
  trace_internal::ThreadBuffer* AttachThread(int tid) EXCLUDES(mutex_);

  /// Number of attached thread buffers (quiescent-only, see above).
  int num_threads() const EXCLUDES(mutex_);
  /// Builder thread id of the i-th buffer (quiescent-only).
  int thread_tid(int i) const EXCLUDES(mutex_);
  /// Events of the i-th buffer, in append (= start-time) order
  /// (quiescent-only).
  const std::vector<TraceEvent>& thread_events(int i) const EXCLUDES(mutex_);
  /// Total events across all buffers (quiescent-only).
  size_t num_events() const EXCLUDES(mutex_);

  /// Serializes every event as Chrome trace_event JSON ("X" complete events
  /// plus thread_name metadata), timestamps in microseconds relative to the
  /// recorder's construction (quiescent-only).
  std::string ToChromeJson() const EXCLUDES(mutex_);

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<trace_internal::ThreadBuffer>> buffers_
      GUARDED_BY(mutex_);
};

/// RAII binding of the calling thread to a recorder for the duration of a
/// builder body. A null recorder makes the binding (and every TraceSpan on
/// this thread) a no-op. Bindings nest: the destructor restores whatever
/// buffer was bound before, so a traced build can run inside another traced
/// scope without leaking the inner binding.
class TraceThreadBinding {
 public:
  TraceThreadBinding(TraceRecorder* recorder, int tid);
  ~TraceThreadBinding();

  TraceThreadBinding(const TraceThreadBinding&) = delete;
  TraceThreadBinding& operator=(const TraceThreadBinding&) = delete;

 private:
  trace_internal::ThreadBuffer* saved_;
};

/// RAII span: records [construction, destruction) on the bound thread's
/// buffer. `name` and `cat` must be string literals. Unbound threads pay one
/// call and one thread_local load, nothing else.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "phase",
                     int level = -1, int64_t arg = -1)
      : buffer_(trace_internal::CurrentBuffer()) {
    if (buffer_ == nullptr) return;
    name_ = name;
    cat_ = cat;
    level_ = level;
    arg_ = arg;
    start_ = std::chrono::steady_clock::now();
  }

  ~TraceSpan() {
    if (buffer_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.level = level_;
    ev.arg = arg_;
    ev.ts_ns = DeltaNanos(buffer_->epoch, start_);
    ev.dur_ns = DeltaNanos(start_, end);
    buffer_->events.push_back(ev);
  }

  /// Updates the span's payload before it closes (e.g. records scanned).
  void set_arg(int64_t arg) { arg_ = arg; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static uint64_t DeltaNanos(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
    if (to <= from) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
  }

  trace_internal::ThreadBuffer* buffer_;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  int level_ = -1;
  int64_t arg_ = -1;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace smptree

#endif  // SMPTREE_UTIL_TRACE_H_
