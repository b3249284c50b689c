#include "load.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "measure.h"
#include "serve/http_client.h"

namespace perfbench {

using smptree::HttpClientConnection;

namespace {

/// Sends body `index` and records the answer; returns false on any error.
bool CallOnce(HttpClientConnection* conn, const RequestSet& requests,
              int32_t index, LoadResult* result) {
  auto response = conn->Call("POST", "/v1/predict",
                             requests.bodies[static_cast<size_t>(index)]);
  Answer answer;
  answer.body = index;
  if (!response.ok() || response->status != 200 ||
      !ParseAnswer(response->body, &answer.epoch, &answer.codes)) {
    ++result->errors;
    return false;
  }
  result->tuples += static_cast<int64_t>(answer.codes.size());
  result->answers.push_back(std::move(answer));
  return true;
}

}  // namespace

bool ParseAnswer(const std::string& body, int64_t* epoch,
                 std::vector<int32_t>* codes) {
  const char* text = body.c_str();
  const char* e = std::strstr(text, "\"epoch\":");
  const char* c = std::strstr(text, "\"codes\":");
  if (e == nullptr || c == nullptr) return false;
  char* end = nullptr;
  *epoch = std::strtoll(e + 8, &end, 10);
  if (end == e + 8) return false;
  const char* p = std::strchr(c + 8, '[');
  if (p == nullptr) return false;
  ++p;
  codes->clear();
  for (;;) {
    while (*p == ' ') ++p;
    if (*p == ']') return true;
    const long v = std::strtol(p, &end, 10);
    if (end == p) return false;
    codes->push_back(static_cast<int32_t>(v));
    p = end;
    while (*p == ' ') ++p;
    if (*p == ',') ++p;
  }
}

LoadResult RunOpenLoop(uint16_t port, const RequestSet& requests, double rate,
                       const std::atomic<bool>* stop, double timeout_s,
                       std::atomic<int64_t>* progress) {
  LoadResult result;
  HttpClientConnection conn("127.0.0.1", port);
  const double start = NowSeconds();
  const int32_t num_bodies = static_cast<int32_t>(requests.bodies.size());
  for (int64_t i = 0;; ++i) {
    const double due = start + static_cast<double>(i) / rate;
    if (stop->load(std::memory_order_acquire)) break;
    ++result.attempted;
    double now = NowSeconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = NowSeconds();
    } else if (now - due > timeout_s) {
      ++result.dropped;
      continue;
    }
    result.lateness_s.push_back(now - due);
    if (!CallOnce(&conn, requests, static_cast<int32_t>(i % num_bodies),
                  &result)) {
      continue;
    }
    const double latency = NowSeconds() - due;
    progress->store(result.tuples, std::memory_order_relaxed);
    result.latency_s.push_back(latency);
    if (latency > timeout_s) ++result.timeouts;
  }
  return result;
}

LoadResult RunClosedLoop(uint16_t port, const RequestSet& requests,
                         double duration_s, double window_s) {
  LoadResult result;
  HttpClientConnection conn("127.0.0.1", port);
  const double start = NowSeconds();
  const int32_t num_bodies = static_cast<int32_t>(requests.bodies.size());
  double window_start = start;
  int64_t window_tuples0 = 0;
  for (int64_t i = 0;; ++i) {
    const double sent = NowSeconds();
    if (sent - start >= duration_s) break;
    if (sent - window_start >= window_s) {
      result.window_tuples_per_s.push_back(
          static_cast<double>(result.tuples - window_tuples0) /
          (sent - window_start));
      window_start = sent;
      window_tuples0 = result.tuples;
    }
    ++result.attempted;
    CallOnce(&conn, requests, static_cast<int32_t>(i % num_bodies), &result);
  }
  // A run shorter than one window still reports its one partial window.
  const double now = NowSeconds();
  if (result.window_tuples_per_s.empty() && now > window_start) {
    result.window_tuples_per_s.push_back(
        static_cast<double>(result.tuples - window_tuples0) /
        (now - window_start));
  }
  return result;
}

}  // namespace perfbench
