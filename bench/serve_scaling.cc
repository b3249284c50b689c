// Connection-scaling benchmark for the HTTP front end: an in-process
// InferenceService (real sockets on loopback) is driven open-loop by C
// keep-alive connections, sweeping C across {1, 4, 16, 64}. The point
// under test is the connection path, not the model: the event loop must
// keep answering as C grows far past the 4 event loops, where a
// thread-per-connection server would strand all but 4 clients.
//
//   serve_scaling [--quick] [--rate R] [--requests N] [--timeout-ms T]
//                 [--out runs.json]
//
// Open-loop discipline (mirrors tools/smptree_loadgen): request i on a
// connection is *scheduled* at start + i/rate regardless of server
// progress, and latency is measured from that scheduled time, so queueing
// delay the server causes is charged to the server (no coordinated
// omission). Requests whose turn comes more than --timeout-ms late are
// counted `dropped`, not sent; sent requests slower than --timeout-ms
// count in `timeouts`. Feed --out to tools/bench_to_json.py to produce
// the checked-in BENCH_serve.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/classifier.h"
#include "core/tree_io.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/latency_histogram.h"
#include "serve/model_store.h"
#include "serve/service.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {
namespace bench {
namespace {

constexpr int kEventLoops = 4;
constexpr int64_t kBatchTuples = 16;

struct Config {
  bool quick = false;
  double rate = 400.0;        ///< total offered requests/s across conns
  int64_t requests = 2000;    ///< total requests per sweep point
  int64_t timeout_ms = 1000;
  std::string out;
};

struct Point {
  int connections = 0;
  double offered_rps = 0;
  uint64_t sent = 0;
  uint64_t dropped = 0;
  uint64_t timeouts = 0;
  uint64_t errors = 0;
  double seconds = 0;
  double tuples_per_second = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// One fixed predict body: the connection path is under test, so every
/// request carries the same small batch.
std::string PredictBody(const Dataset& data) {
  std::string body = "{\"tuples\": [";
  for (int64_t t = 0; t < kBatchTuples; ++t) {
    if (t > 0) body += ",";
    body += "[";
    for (int a = 0; a < data.num_attrs(); ++a) {
      if (a > 0) body += ",";
      const AttrValue v = data.value(t, a);
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

Point RunPoint(InferenceService* service, const Config& config,
               const std::string& body, int connections) {
  struct Shared {
    std::chrono::steady_clock::time_point start;
    std::atomic<int64_t> next_request{0};
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> errors{0};
    LatencyHistogram latency;
  } shared;

  const uint16_t port = service->port();
  shared.start = std::chrono::steady_clock::now();
  Timer elapsed;
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      HttpClientConnection conn("127.0.0.1", port);
      for (;;) {
        const int64_t i =
            shared.next_request.fetch_add(1, std::memory_order_relaxed);
        if (i >= config.requests) return;
        const auto scheduled =
            shared.start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / config.rate));
        const auto now = std::chrono::steady_clock::now();
        if (now < scheduled) {
          std::this_thread::sleep_until(scheduled);
        } else if (now - scheduled >
                   std::chrono::milliseconds(config.timeout_ms)) {
          shared.dropped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto response = conn.Call("POST", "/v1/predict", body);
        const uint64_t nanos = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - scheduled)
                .count());
        shared.sent.fetch_add(1, std::memory_order_relaxed);
        shared.latency.Record(nanos);
        if (nanos >
            static_cast<uint64_t>(config.timeout_ms) * 1000000ull) {
          shared.timeouts.fetch_add(1, std::memory_order_relaxed);
        }
        if (!response.ok() || response->status != 200) {
          shared.errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  Point point;
  point.connections = connections;
  point.offered_rps = config.rate;
  point.seconds = elapsed.Seconds();
  point.sent = shared.sent.load(std::memory_order_relaxed);
  point.dropped = shared.dropped.load(std::memory_order_relaxed);
  point.timeouts = shared.timeouts.load(std::memory_order_relaxed);
  point.errors = shared.errors.load(std::memory_order_relaxed);
  const uint64_t ok = point.sent - point.errors;
  point.tuples_per_second =
      point.seconds > 0
          ? static_cast<double>(ok) * static_cast<double>(kBatchTuples) /
                point.seconds
          : 0;
  point.p50_ms =
      static_cast<double>(shared.latency.QuantileNanos(0.5)) / 1e6;
  point.p99_ms =
      static_cast<double>(shared.latency.QuantileNanos(0.99)) / 1e6;
  return point;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t parsed = 0;
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--rate" && i + 1 < argc &&
               ParseInt64(argv[i + 1], &parsed) && parsed > 0) {
      config.rate = static_cast<double>(parsed);
      ++i;
    } else if (arg == "--requests" && i + 1 < argc &&
               ParseInt64(argv[i + 1], &parsed) && parsed > 0) {
      config.requests = parsed;
      ++i;
    } else if (arg == "--timeout-ms" && i + 1 < argc &&
               ParseInt64(argv[i + 1], &parsed) && parsed > 0) {
      config.timeout_ms = parsed;
      ++i;
    } else if (arg == "--out" && i + 1 < argc) {
      config.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: serve_scaling [--quick] [--rate R]\n"
                   "         [--requests N] [--timeout-ms T] [--out F]\n");
      return 1;
    }
  }
  if (config.quick) {
    config.requests = std::min<int64_t>(config.requests, 200);
  }

  PrintBanner("Serving: connection scaling",
              Fmt("open loop, %d event loops, batch %lld, rate %.0f/s",
                  kEventLoops, static_cast<long long>(kBatchTuples),
                  config.rate));

  const Dataset data = MakeDataset(5, 9, ScaledTuples(4000));
  ClassifierOptions train_options;
  auto trained = TrainClassifier(data, train_options);
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  // Each sweep point gets a fresh ModelStore (counters start clean), so
  // keep the model as serialized bytes and rehydrate per point.
  const std::string model_bytes = SerializeTree(*trained->tree);
  const std::string body = PredictBody(data);

  // Sweep grid: connection counts up to 16x the event-loop count.
  const int sweep[] = {1, 4, 16, 64};

  std::vector<Point> points;
  TablePrinter table({"Conns", "Sent", "Dropped", "Timeouts",
                      "Errors", "Tuples/s", "p50(ms)", "p99(ms)"});
  for (const int connections : sweep) {
    ServiceOptions options;
    options.engine.num_workers = 0;
    options.http.port = 0;
    options.http.num_threads = kEventLoops;
    options.allow_reload = false;
    auto tree = DeserializeTree(data.schema(), model_bytes);
    if (!tree.ok()) {
      std::fprintf(stderr, "model round-trip failed: %s\n",
                   tree.status().ToString().c_str());
      return 1;
    }
    auto store = ModelStore::Create(std::move(*tree));
    if (!store.ok()) {
      std::fprintf(stderr, "store failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    InferenceService service(std::move(*store), options);
    const Status started = service.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
      return 1;
    }
    const Point p = RunPoint(&service, config, body, connections);
    service.Stop();
    points.push_back(p);
    table.AddRow({Fmt("%d", p.connections),
                  Fmt("%llu", (unsigned long long)p.sent),
                  Fmt("%llu", (unsigned long long)p.dropped),
                  Fmt("%llu", (unsigned long long)p.timeouts),
                  Fmt("%llu", (unsigned long long)p.errors),
                  Fmt("%.0f", p.tuples_per_second), Fmt("%.3f", p.p50_ms),
                  Fmt("%.3f", p.p99_ms)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: every row stays healthy (no drops, no errors)\n"
      "as connections grow 16x past the event-loop count; p99 tracks\n"
      "offered load, not connection count.\n");

  if (!config.out.empty()) {
    std::string json = StringPrintf(
        "{\"suite\": \"serve_scaling\", \"schema_version\": 1,\n"
        " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
        "\"event_loops\": %d, \"batch\": %lld, \"rate\": %.1f, "
        "\"requests\": %lld, \"timeout_ms\": %lld, \"quick\": %s},\n"
        " \"runs\": [",
        HardwareThreads(), BenchScale(), kEventLoops,
        static_cast<long long>(kBatchTuples), config.rate,
        static_cast<long long>(config.requests),
        static_cast<long long>(config.timeout_ms),
        config.quick ? "true" : "false");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      json += StringPrintf(
          "%s\n  {\"connections\": %d, "
          "\"event_loops\": %d, \"offered_rps\": %.1f, "
          "\"batch\": %lld, \"sent\": %llu, \"dropped\": %llu, "
          "\"timeouts\": %llu, \"errors\": %llu, \"seconds\": %s, "
          "\"tuples_per_second\": %s, \"p50_ms\": %s, \"p99_ms\": %s}",
          i == 0 ? "" : ",", p.connections, kEventLoops,
          p.offered_rps, static_cast<long long>(kBatchTuples),
          (unsigned long long)p.sent, (unsigned long long)p.dropped,
          (unsigned long long)p.timeouts, (unsigned long long)p.errors,
          JsonNumber(p.seconds).c_str(),
          JsonNumber(p.tuples_per_second).c_str(),
          JsonNumber(p.p50_ms).c_str(), JsonNumber(p.p99_ms).c_str());
    }
    json += "\n]}\n";
    std::ofstream out(config.out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", config.out.c_str());
      return 1;
    }
    out << json;
    std::printf("wrote %s\n", config.out.c_str());
  }

  // Exit status reflects correctness, not capacity: errors mean broken
  // serving; drops/timeouts are measurement outcomes.
  uint64_t errors = 0;
  for (const Point& p : points) errors += p.errors;
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace smptree

int main(int argc, char** argv) {
  return smptree::bench::Main(argc, argv);
}
