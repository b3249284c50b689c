// smptree_loadgen: load generator and swiss-army HTTP client for the
// inference server.
//
//   smptree_loadgen --port N --op predict --schema F --data F
//                   [--batch 32] [--concurrency 4] [--requests 200]
//                   [--rate R] [--timeout-ms T]
//                   [--model F]    # verify labels against the local model
//   smptree_loadgen --port N --op reload --model PATH
//   smptree_loadgen --port N --op healthz|statz
//
// predict: `concurrency` client threads each hold one keep-alive
// connection and replay batches of CSV rows until `requests` requests have
// been sent. Prints throughput, p50/p90/p99 latency computed from every
// request's own sample (with the sample count), and a log2 histogram of
// the same samples. With --model,
// every response's label codes are checked against a local Classify of the
// same rows -- the end-to-end exactness check.
//
// Two arrival disciplines:
//   - closed loop (default): the next request leaves only when the
//     previous response arrived. Measures service capacity, but under
//     overload the arrival rate collapses to the service rate, so tail
//     latency looks flat no matter how slow the server is (coordinated
//     omission).
//   - open loop (--rate R): request i is *scheduled* at start + i/R
//     seconds regardless of how the server is doing, and its latency is
//     measured from that scheduled time -- queueing delay the server
//     causes is charged to the server. A request whose turn comes more
//     than --timeout-ms past its schedule is counted `dropped` and never
//     sent (the client fleet has fallen hopelessly behind); a sent request
//     slower than --timeout-ms counts in `timeouts`. p99 under overload is
//     honest: drops and timeouts say the offered rate exceeded capacity.
//
// Exit status: 0 iff every sent request succeeded (and verification
// passed); drops/timeouts are reported but are measurement outcomes, not
// client failures.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/tree_io.h"
#include "data/csv.h"
#include "data/schema_io.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/latency_histogram.h"
#include "serve/model_store.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: smptree_loadgen --port N --op predict|reload|healthz|statz\n"
      "  [--host A] [--schema F] [--data F] [--batch N] [--concurrency N]\n"
      "  [--requests N] [--rate R] [--timeout-ms T] [--model F]\n");
  return 1;
}

/// Builds the predict request body for rows [begin, begin+count) of `data`.
std::string PredictBody(const Dataset& data, int64_t begin, int64_t count) {
  std::string body = "{\"tuples\": [";
  for (int64_t t = 0; t < count; ++t) {
    if (t > 0) body += ",";
    body += "[";
    const int64_t row = begin + t;
    for (int a = 0; a < data.num_attrs(); ++a) {
      if (a > 0) body += ",";
      const AttrValue v = data.value(row, a);
      if (data.schema().attr(a).is_categorical()) {
        body += StringPrintf("%d", v.cat);
      } else if (IsMissing(v.f)) {
        body += "null";
      } else {
        body += StringPrintf("%.9g", static_cast<double>(v.f));
      }
    }
    body += "]";
  }
  body += "]}";
  return body;
}

struct PredictShared {
  const Dataset* data = nullptr;
  // Local verification model (both null: skip verification). --model sniffs
  // the file's header line, so the same flag verifies tree and forest
  // servers alike.
  const DecisionTree* verify_tree = nullptr;
  const Forest* verify_forest = nullptr;
  std::string host;
  uint16_t port = 0;
  int64_t batch = 32;
  int64_t requests = 200;
  // Open-loop schedule: request i is due at start + i/rate. rate 0 keeps
  // the classic closed loop.
  double rate = 0.0;
  int64_t timeout_ms = 1000;
  std::chrono::steady_clock::time_point start;
  std::atomic<int64_t> next_request{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> tuples{0};
  std::atomic<uint64_t> dropped{0};   ///< open loop: never sent, too stale
  std::atomic<uint64_t> timeouts{0};  ///< open loop: sent, over timeout
  LatencyHistogram latency;
  /// Raw per-request latencies, one vector per client thread; the
  /// percentiles come from these, not from the histogram's log2 buckets.
  std::vector<std::vector<uint64_t>> samples;
};

/// Nearest-rank percentile of sorted, non-empty `samples`.
uint64_t Percentile(const std::vector<uint64_t>& samples, double q) {
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

std::string Millis(uint64_t nanos) {
  return StringPrintf("%.3fms", static_cast<double>(nanos) / 1e6);
}

/// "n=... p50=... p90=... p99=... max=..." over every request's sample.
std::string RawPercentiles(const PredictShared& shared) {
  std::vector<uint64_t> all;
  for (const std::vector<uint64_t>& client : shared.samples) {
    all.insert(all.end(), client.begin(), client.end());
  }
  if (all.empty()) return "n=0";
  std::sort(all.begin(), all.end());
  return StringPrintf("n=%zu p50=%s p90=%s p99=%s max=%s", all.size(),
                      Millis(Percentile(all, 0.50)).c_str(),
                      Millis(Percentile(all, 0.90)).c_str(),
                      Millis(Percentile(all, 0.99)).c_str(),
                      Millis(all.back()).c_str());
}

void PredictClient(PredictShared* shared, size_t slot) {
  HttpClientConnection conn(shared->host, shared->port);
  const int64_t n = shared->data->num_tuples();
  for (;;) {
    const int64_t i =
        shared->next_request.fetch_add(1, std::memory_order_relaxed);
    if (i >= shared->requests) return;
    const int64_t count = std::min(shared->batch, n);
    const int64_t begin = (i * count) % (n - count + 1);
    const std::string body = PredictBody(*shared->data, begin, count);

    // Open loop: wait for the request's scheduled send time; if that time
    // is already more than the timeout in the past, the fleet is hopelessly
    // behind the offered rate -- count a drop instead of measuring a
    // request no real client would still be waiting on.
    std::chrono::steady_clock::time_point scheduled;
    if (shared->rate > 0.0) {
      scheduled = shared->start +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / shared->rate));
      const auto now = std::chrono::steady_clock::now();
      if (now < scheduled) {
        std::this_thread::sleep_until(scheduled);
      } else if (now - scheduled > std::chrono::milliseconds(
                                       shared->timeout_ms)) {
        shared->dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }

    Timer timer;
    auto response = conn.Call("POST", "/v1/predict", body);
    // Open loop measures from the *scheduled* time, so queueing delay the
    // server causes is charged to it (no coordinated omission).
    const uint64_t nanos =
        shared->rate > 0.0
            ? static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - scheduled)
                      .count())
            : static_cast<uint64_t>(timer.Seconds() * 1e9);
    shared->latency.Record(nanos);
    shared->samples[slot].push_back(nanos);
    if (shared->rate > 0.0 &&
        nanos > static_cast<uint64_t>(shared->timeout_ms) * 1000000ull) {
      shared->timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    if (!response.ok() || response->status != 200) {
      shared->errors.fetch_add(1, std::memory_order_relaxed);
      if (!response.ok()) {
        std::fprintf(stderr, "request %lld: %s\n", static_cast<long long>(i),
                     response.status().ToString().c_str());
      } else {
        std::fprintf(stderr, "request %lld: HTTP %d: %s",
                     static_cast<long long>(i), response->status,
                     response->body.c_str());
      }
      continue;
    }
    shared->tuples.fetch_add(static_cast<uint64_t>(count),
                             std::memory_order_relaxed);
    if (shared->verify_tree == nullptr && shared->verify_forest == nullptr) {
      continue;
    }

    auto doc = ParseJson(response->body);
    const JsonValue* codes = doc.ok() ? doc->Find("codes") : nullptr;
    if (codes == nullptr || !codes->is_array() ||
        static_cast<int64_t>(codes->array_items().size()) != count) {
      shared->mismatches.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    TupleValues row;
    for (int64_t t = 0; t < count; ++t) {
      row = shared->data->Tuple(begin + t);
      const ClassLabel expected = shared->verify_forest != nullptr
                                      ? shared->verify_forest->Classify(row)
                                      : shared->verify_tree->Classify(row);
      const double got = codes->array_items()[static_cast<size_t>(t)]
                             .number_value();
      if (static_cast<ClassLabel>(got) != expected) {
        shared->mismatches.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "request %lld row %lld: server said %d, tree says %d\n",
                     static_cast<long long>(i), static_cast<long long>(t),
                     static_cast<int>(got), static_cast<int>(expected));
      }
    }
  }
}

int RunPredict(const std::map<std::string, std::string>& flags,
               const std::string& host, uint16_t port) {
  const auto get = [&](const std::string& name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  if (get("schema").empty() || get("data").empty()) {
    return Fail("predict needs --schema and --data");
  }
  auto schema = ReadSchemaFile(get("schema"));
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto data = ReadCsv(*schema, get("data"));
  if (!data.ok()) return Fail(data.status().ToString());
  if (data->num_tuples() == 0) return Fail("no tuples in --data");

  PredictShared shared;
  shared.data = &*data;
  shared.host = host;
  shared.port = port;

  int64_t concurrency = 4;
  const auto parse = [&](const std::string& name, int64_t* out) {
    return get(name).empty() || ParseInt64(get(name), out);
  };
  if (!parse("batch", &shared.batch) || !parse("requests", &shared.requests) ||
      !parse("concurrency", &concurrency) ||
      !parse("timeout-ms", &shared.timeout_ms) || shared.batch < 1 ||
      shared.requests < 1 || concurrency < 1 || shared.timeout_ms < 1) {
    return Fail("bad numeric flag");
  }
  if (!get("rate").empty() &&
      (!ParseDouble(get("rate"), &shared.rate) || shared.rate < 0.0)) {
    return Fail("bad --rate");
  }

  Result<DecisionTree> verify_tree = Status::NotFound("unused");
  Result<Forest> verify_forest = Status::NotFound("unused");
  if (!get("model").empty()) {
    auto is_forest = ModelStore::IsForestFile(get("model"));
    if (!is_forest.ok()) return Fail(is_forest.status().ToString());
    if (*is_forest) {
      verify_forest = ModelStore::LoadForestFile(*schema, get("model"));
      if (!verify_forest.ok()) return Fail(verify_forest.status().ToString());
      shared.verify_forest = &*verify_forest;
    } else {
      verify_tree = ModelStore::LoadTreeFile(*schema, get("model"));
      if (!verify_tree.ok()) return Fail(verify_tree.status().ToString());
      shared.verify_tree = &*verify_tree;
    }
  }

  Timer elapsed;
  shared.start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(concurrency));
  shared.samples.resize(static_cast<size_t>(concurrency));
  for (size_t c = 0; c < shared.samples.size(); ++c) {
    clients.emplace_back(PredictClient, &shared, c);
  }
  for (std::thread& t : clients) t.join();
  const double seconds = elapsed.Seconds();

  // The joins above order every counter update before these reads.
  const uint64_t errors = shared.errors.load(std::memory_order_relaxed);
  const uint64_t mismatches = shared.mismatches.load(std::memory_order_relaxed);
  const uint64_t dropped = shared.dropped.load(std::memory_order_relaxed);
  const uint64_t sent = static_cast<uint64_t>(shared.requests) - dropped;
  std::printf(
      "op=predict requests=%lld concurrency=%lld batch=%lld errors=%llu "
      "mismatches=%llu\n",
      static_cast<long long>(shared.requests),
      static_cast<long long>(concurrency),
      static_cast<long long>(shared.batch),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(mismatches));
  if (shared.rate > 0.0) {
    std::printf(
        "open-loop: offered=%.1f req/s achieved=%.1f req/s sent=%llu "
        "dropped=%llu timeouts=%llu timeout-ms=%lld\n",
        shared.rate, static_cast<double>(sent) / seconds,
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(
            shared.timeouts.load(std::memory_order_relaxed)),
        static_cast<long long>(shared.timeout_ms));
  }
  std::printf(
      "elapsed=%.3fs throughput=%.1f req/s %.1f tuples/s\n"
      "latency: %s\n%s",
      seconds, static_cast<double>(sent) / seconds,
      static_cast<double>(shared.tuples.load(std::memory_order_relaxed)) /
          seconds,
      RawPercentiles(shared).c_str(), shared.latency.ToAscii().c_str());
  return errors == 0 && mismatches == 0 ? 0 : 1;
}

int RunSimpleOp(const std::string& op,
                const std::map<std::string, std::string>& flags,
                const std::string& host, uint16_t port) {
  HttpClientConnection conn(host, port);
  Result<HttpClientResponse> response = Status::Internal("unreachable");
  if (op == "reload") {
    const auto it = flags.find("model");
    if (it == flags.end()) return Fail("reload needs --model");
    response =
        conn.Call("POST", "/v1/reload", "{\"model\": " + JsonQuote(it->second) + "}");
  } else if (op == "healthz" || op == "statz") {
    response = conn.Call("GET", "/" + op, "");
  } else {
    return Usage();
  }
  if (!response.ok()) return Fail(response.status().ToString());
  std::printf("%s", response->body.c_str());
  return response->status == 200 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    flags[arg.substr(2)] = argv[++i];
  }
  const auto host_it = flags.find("host");
  const std::string host =
      host_it == flags.end() ? "127.0.0.1" : host_it->second;
  int64_t port = 0;
  const auto port_it = flags.find("port");
  if (port_it == flags.end() || !ParseInt64(port_it->second, &port) ||
      port < 1 || port > 65535) {
    return Fail("--port is required (1..65535)");
  }
  const auto op_it = flags.find("op");
  const std::string op = op_it == flags.end() ? "predict" : op_it->second;
  if (op == "predict") {
    return RunPredict(flags, host, static_cast<uint16_t>(port));
  }
  return RunSimpleOp(op, flags, host, static_cast<uint16_t>(port));
}

}  // namespace
}  // namespace smptree

int main(int argc, char** argv) { return smptree::Main(argc, argv); }
