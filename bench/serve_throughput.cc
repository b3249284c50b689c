// Serving-side throughput/latency sweep: drives PredictionEngine directly
// (no HTTP) over worker-count x batch-size, closed loop with one caller
// thread per engine scoring slot. Reports tuples/s and per-batch service latency
// quantiles as a table, then re-emits every row as a JSON array on the
// last line so dashboards and scripts can scrape the results.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/classifier.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "serve/model_store.h"
#include "util/timer.h"

namespace smptree {
namespace bench {
namespace {

struct SweepPoint {
  int workers = 0;
  int64_t batch = 0;
  uint64_t batches = 0;
  uint64_t tuples = 0;
  double seconds = 0;
  double tuples_per_second = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

SweepPoint RunPoint(const ModelStore* store, const Dataset& data,
                    int workers, int64_t batch_size) {
  EngineOptions options;
  options.num_workers = workers;
  PredictionEngine engine(store, options);

  // Closed loop: as many callers as scoring slots, so every slot stays busy
  // and no caller waits for one. Scale the request count so each
  // configuration scores a comparable number of tuples.
  const int callers = workers;
  const int64_t batches_per_caller =
      std::max<int64_t>(20, ScaledTuples(60000) / (batch_size * callers));
  const int64_t stride = data.num_tuples() - batch_size;

  Timer elapsed;
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      // Each request copies its rows, as a decode would.
      Dataset batch(data.schema());
      for (int64_t i = 0; i < batches_per_caller; ++i) {
        const int64_t begin = ((c + i) * 7919) % std::max<int64_t>(1, stride);
        batch.Clear();
        batch.AppendRange(data, begin, begin + batch_size);
        auto outcome = engine.Predict(batch);
        if (!outcome.ok()) {
          std::fprintf(stderr, "predict failed: %s\n",
                       outcome.status().ToString().c_str());
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SweepPoint point;
  point.seconds = elapsed.Seconds();
  point.workers = workers;
  point.batch = batch_size;
  const EngineStats stats = engine.Stats();
  point.batches = stats.batches;
  point.tuples = stats.tuples;
  point.tuples_per_second =
      point.seconds > 0 ? static_cast<double>(stats.tuples) / point.seconds
                        : 0;
  point.p50_ms = static_cast<double>(stats.p50_nanos) / 1e6;
  point.p99_ms = static_cast<double>(stats.p99_nanos) / 1e6;
  return point;
}

void Run() {
  PrintBanner("Serving: engine throughput",
              "PredictionEngine closed-loop sweep, workers x batch size");
  const Dataset data = MakeDataset(5, 9, ScaledTuples(20000));
  ClassifierOptions options;
  auto trained = TrainClassifier(data, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n",
                 trained.status().ToString().c_str());
    return;
  }
  auto store = ModelStore::Create(std::move(*trained->tree));
  if (!store.ok()) {
    std::fprintf(stderr, "store failed: %s\n",
                 store.status().ToString().c_str());
    return;
  }

  std::vector<int> worker_counts{1, 2, 4};
  if (HardwareThreads() >= 8) worker_counts.push_back(8);
  const std::vector<int64_t> batch_sizes{1, 16, 128, 1024};

  std::vector<SweepPoint> points;
  TablePrinter t({"Workers", "Batch", "Batches", "Tuples/s", "p50(ms)",
                  "p99(ms)"});
  for (const int workers : worker_counts) {
    for (const int64_t batch : batch_sizes) {
      const SweepPoint p = RunPoint(store->get(), data, workers, batch);
      points.push_back(p);
      t.AddRow({Fmt("%d", p.workers), Fmt("%lld", (long long)p.batch),
                Fmt("%llu", (unsigned long long)p.batches),
                Fmt("%.0f", p.tuples_per_second), Fmt("%.3f", p.p50_ms),
                Fmt("%.3f", p.p99_ms)});
    }
  }
  t.Print();
  std::printf(
      "\nexpected shape: tuples/s grows with batch size (per-batch overhead\n"
      "amortizes) and with workers until memory bandwidth saturates; p99\n"
      "grows with batch size since a batch is one service unit.\n\n");

  // Machine-readable echo of the table.
  std::string json = "[";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (i > 0) json += ",";
    json += Fmt(
        "{\"workers\": %d, \"batch\": %lld, \"batches\": %llu, "
        "\"tuples\": %llu, \"seconds\": %s, \"tuples_per_second\": %s, "
        "\"p50_ms\": %s, \"p99_ms\": %s}",
        p.workers, (long long)p.batch, (unsigned long long)p.batches,
        (unsigned long long)p.tuples, JsonNumber(p.seconds).c_str(),
        JsonNumber(p.tuples_per_second).c_str(), JsonNumber(p.p50_ms).c_str(),
        JsonNumber(p.p99_ms).c_str());
  }
  json += "]";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace smptree

int main() {
  smptree::bench::Run();
  return 0;
}
