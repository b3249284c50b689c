// Load generation against a live /v1/predict endpoint over loopback HTTP.
//
// One client thread drives one keep-alive connection, in either of two
// shapes:
//   - open loop: request i is due at start + i / rate whatever happened to
//     earlier requests; latency is timed from the due time, so a stall is
//     charged to every request queued behind it (no coordinated omission).
//   - closed loop: the next request is sent as soon as the previous answer
//     arrives; throughput is sampled per fixed time window.
// Every answer's epoch and label codes are kept so the caller can verify
// them against the model that served them after the phase.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The request bodies a workload sends, cycled in order. Body i scores
/// the held-out rows starting at first_row[i].
struct RequestSet {
  std::vector<std::string> bodies;
  std::vector<int64_t> first_row;
};

/// One answered request: which body it carried and what the server said.
struct Answer {
  int32_t body = 0;
  int64_t epoch = 0;
  std::vector<int32_t> codes;
};

struct LoadResult {
  std::vector<double> latency_s;   ///< open loop: due time -> answer
  std::vector<double> lateness_s;  ///< open loop: send time - due time
  std::vector<double> window_tuples_per_s;  ///< closed loop, per window
  std::vector<Answer> answers;
  int64_t attempted = 0;  ///< requests due (open) or sent (closed)
  int64_t errors = 0;     ///< transport errors, non-200s, unparsable bodies
  int64_t dropped = 0;    ///< open loop: due more than timeout ago, not sent
  int64_t timeouts = 0;   ///< open loop: answered later than timeout
  int64_t tuples = 0;     ///< tuples in successful answers
};

/// Open loop at `rate` requests/s until `*stop` becomes true. Tuples
/// answered so far are published to `*progress` as they arrive.
LoadResult RunOpenLoop(uint16_t port, const RequestSet& requests, double rate,
                       const std::atomic<bool>* stop, double timeout_s,
                       std::atomic<int64_t>* progress);

/// Closed loop for `duration_s` seconds, sampling tuples/s every
/// `window_s` seconds.
LoadResult RunClosedLoop(uint16_t port, const RequestSet& requests,
                         double duration_s, double window_s);

/// Extracts "epoch" and the "codes" array from a /v1/predict response body.
bool ParseAnswer(const std::string& body, int64_t* epoch,
                 std::vector<int32_t>* codes);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
