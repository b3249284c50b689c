#include "util/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace smptree {

namespace trace_internal {
namespace {
thread_local ThreadBuffer* t_buffer = nullptr;
}  // namespace

ThreadBuffer* CurrentBuffer() { return t_buffer; }
}  // namespace trace_internal

trace_internal::ThreadBuffer* TraceRecorder::AttachThread(int tid) {
  auto buffer = std::make_unique<trace_internal::ThreadBuffer>();
  buffer->tid = tid;
  buffer->epoch = epoch_;
  trace_internal::ThreadBuffer* raw = buffer.get();
  MutexLock lock(mutex_);
  buffers_.push_back(std::move(buffer));
  return raw;
}

int TraceRecorder::num_threads() const {
  MutexLock lock(mutex_);
  return static_cast<int>(buffers_.size());
}

int TraceRecorder::thread_tid(int i) const {
  MutexLock lock(mutex_);
  return buffers_[static_cast<size_t>(i)]->tid;
}

const std::vector<TraceEvent>& TraceRecorder::thread_events(int i) const {
  MutexLock lock(mutex_);
  return buffers_[static_cast<size_t>(i)]->events;
}

size_t TraceRecorder::num_events() const {
  MutexLock lock(mutex_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->events.size();
  return n;
}

std::string TraceRecorder::ToChromeJson() const {
  MutexLock lock(mutex_);

  // Stable display order: sort buffers by builder tid so the Perfetto track
  // order matches thread ids regardless of attach order.
  std::vector<std::pair<int, size_t>> order;
  order.reserve(buffers_.size());
  size_t total_events = 0;
  for (size_t i = 0; i < buffers_.size(); ++i) {
    order.emplace_back(buffers_[i]->tid, i);
    total_events += buffers_[i]->events.size();
  }
  std::sort(order.begin(), order.end());

  std::string out;
  out.reserve(256 + 160 * total_events);

  char line[256];
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& ord : order) {
    const trace_internal::ThreadBuffer& buf = *buffers_[ord.second];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                  "\"name\": \"thread_name\", "
                  "\"args\": {\"name\": \"builder thread %d\"}}",
                  first ? "" : ",", buf.tid, buf.tid);
    first = false;
    out += line;
    for (const TraceEvent& ev : buf.events) {
      // Chrome trace timestamps are microseconds; keep ns resolution via the
      // fractional part.
      std::snprintf(line, sizeof(line),
                    ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"name\": \"%s\", \"cat\": \"%s\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {",
                    buf.tid, ev.name, ev.cat,
                    static_cast<double>(ev.ts_ns) / 1e3,
                    static_cast<double>(ev.dur_ns) / 1e3);
      out += line;
      if (ev.level >= 0) {
        std::snprintf(line, sizeof(line), "\"level\": %d%s", ev.level,
                      ev.arg >= 0 ? ", " : "");
        out += line;
      }
      if (ev.arg >= 0) {
        std::snprintf(line, sizeof(line), "\"arg\": %" PRId64, ev.arg);
        out += line;
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

TraceThreadBinding::TraceThreadBinding(TraceRecorder* recorder, int tid)
    : saved_(trace_internal::t_buffer) {
  trace_internal::t_buffer =
      recorder != nullptr ? recorder->AttachThread(tid) : nullptr;
}

TraceThreadBinding::~TraceThreadBinding() {
  trace_internal::t_buffer = saved_;
}

}  // namespace smptree
