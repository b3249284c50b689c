// Streaming-vs-batch sweep: for each Agrawal function F1..F10, run the
// Hoeffding streaming builder over a generator stream (default 1M tuples)
// and train the batch binned engine on the identical materialized data, then
// compare held-out accuracy -- the streaming tree must land within 2% of the
// batch tree on most functions while touching each tuple once in bounded
// memory. Reports ingest throughput as wall time and as the thread's CPU
// time (the stream alone, and Ingest alone), an accuracy-vs-tuples curve
// from live mid-stream checkpoints, the builder's bounded state (sketch +
// active leaf histograms), and process peak RSS.
//
//   stream_throughput [--quick] [--tuples N] [--test-tuples N]
//                     [--max-bins B] [--functions 1,5,7] [--out runs.json]
//
// Emits a paper-style table on stdout and (with --out) a JSON document with
// "suite": "stream_throughput" that tools/bench_to_json.py converts into the
// checked-in BENCH_stream.json.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/classifier.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "stream/hoeffding_builder.h"
#include "stream/stream_source.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {
namespace bench {
namespace {

struct Config {
  bool quick = false;
  int64_t tuples = 1000000;
  int64_t test_tuples = 20000;
  int max_bins = 64;
  std::vector<int> functions = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::string out;
};

struct Checkpoint {
  int64_t tuples = 0;
  double accuracy = 0;
};

struct Run {
  int function = 0;
  double ingest_seconds = 0;  ///< stream ingest only (checkpoints excluded)
  double stream_cpu_seconds = 0;  ///< thread CPU over the same span
  double ingest_cpu_seconds = 0;  ///< thread CPU in builder.Ingest alone
  double stream_accuracy = 0;
  double batch_accuracy = 0;
  int64_t stream_nodes = 0;
  int64_t batch_nodes = 0;
  int64_t splits = 0;
  int64_t deactivated_leaves = 0;
  uint64_t stream_state_bytes = 0;  ///< sketch + active leaf histograms
  std::vector<Checkpoint> checkpoints;
};

bool ParseIntList(const std::string& raw, std::vector<int>* out) {
  out->clear();
  for (const std::string& part : SplitString(raw, ',')) {
    int64_t v = 0;
    if (!ParseInt64(TrimWhitespace(part), &v) || v < 1 || v > 10) return false;
    out->push_back(static_cast<int>(v));
  }
  return !out->empty();
}

Dataset MakeAgrawal(int function, int64_t tuples, uint64_t seed) {
  SyntheticConfig config;
  config.function = function;
  config.num_attrs = 9;
  config.num_tuples = tuples;
  config.seed = seed;
  auto data = GenerateSynthetic(config);
  if (!data.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*data);
}

/// CPU time the calling thread has used (CLOCK_THREAD_CPUTIME_ID), in
/// seconds: unlike wall time, it leaves out time the thread waited for a
/// core on a shared host.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident set of this process so far, in kilobytes.
uint64_t PeakRssKb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss);
}

/// Streams `config.tuples` generator tuples (same seed => tuple-identical
/// to the batch dataset) through a Hoeffding builder, pausing the clock at
/// power-of-two-ish fractions to score the live tree on the held-out set.
void RunStream(const Config& config, int function, const Dataset& test,
               Run* run) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_attrs = 9;
  cfg.num_tuples = config.tuples;
  cfg.seed = 42 + static_cast<uint64_t>(function);
  SyntheticStreamSource source(cfg);

  HoeffdingOptions options;
  options.max_bins = config.max_bins;
  HoeffdingTreeBuilder builder(source.schema(), options);
  Status s = builder.Init();
  if (!s.ok()) {
    std::fprintf(stderr, "builder init failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  std::vector<int64_t> marks = {config.tuples / 16, config.tuples / 8,
                                config.tuples / 4, config.tuples / 2,
                                config.tuples};
  size_t next_mark = 0;
  StreamBatch batch;
  int64_t ingested = 0;
  while (true) {
    // Only generator + routing time counts; the mid-stream checkpoint
    // scoring below runs off the clock.
    Timer timer;
    const double cpu_start = ThreadCpuSeconds();
    auto n = source.NextBatch(4096, &batch);
    const double ingest_start = ThreadCpuSeconds();
    if (!n.ok() || (*n > 0 && !(s = builder.Ingest(batch)).ok())) {
      std::fprintf(stderr, "stream failed: %s\n",
                   (n.ok() ? s : n.status()).ToString().c_str());
      std::exit(1);
    }
    const double cpu_end = ThreadCpuSeconds();
    run->ingest_seconds += timer.Seconds();
    run->stream_cpu_seconds += cpu_end - cpu_start;
    run->ingest_cpu_seconds += cpu_end - ingest_start;
    if (*n == 0) break;
    ingested += *n;
    while (next_mark < marks.size() && ingested >= marks[next_mark]) {
      run->checkpoints.push_back(
          {marks[next_mark], TreeAccuracy(builder.tree(), test)});
      ++next_mark;
    }
  }
  s = builder.Finish();
  if (!s.ok()) {
    std::fprintf(stderr, "finish failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  const StreamStats stats = builder.Stats();
  run->stream_accuracy = TreeAccuracy(builder.tree(), test);
  run->stream_nodes = stats.nodes;
  run->splits = stats.splits;
  run->deactivated_leaves = stats.deactivated_leaves;
  run->stream_state_bytes = stats.sketch_bytes + stats.histogram_bytes;
}

/// Batch binned engine on the materialized stream (single thread, the
/// engine's own default bin budget): the accuracy bar the stream must meet.
void RunBatch(const Config& config, int function, const Dataset& test,
              Run* run) {
  const Dataset train = MakeAgrawal(function, config.tuples,
                                    42 + static_cast<uint64_t>(function));
  ClassifierOptions options;
  options.build.algorithm = Algorithm::kSerial;
  options.build.num_threads = 1;
  options.build.engine = Engine::kBinned;
  auto result = TrainClassifier(train, options);
  if (!result.ok()) {
    std::fprintf(stderr, "batch build failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  run->batch_accuracy = TreeAccuracy(*result->tree, test);
  run->batch_nodes = result->tree->num_nodes();
}

std::string RunsToJson(const Config& config, const std::vector<Run>& runs,
                       uint64_t stream_only_rss_kb) {
  std::string out = StringPrintf(
      "{\"suite\": \"stream_throughput\", \"schema_version\": 1,\n"
      " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
      "\"tuples\": %lld, \"test_tuples\": %lld, \"max_bins\": %d, "
      "\"attrs\": 9, \"quick\": %s, "
      "\"peak_rss_stream_only_kb\": %llu, \"peak_rss_kb\": %llu},\n"
      " \"runs\": [",
      HardwareThreads(), BenchScale(), static_cast<long long>(config.tuples),
      static_cast<long long>(config.test_tuples), config.max_bins,
      config.quick ? "true" : "false",
      static_cast<unsigned long long>(stream_only_rss_kb),
      static_cast<unsigned long long>(PeakRssKb()));
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::string curve;
    for (size_t c = 0; c < r.checkpoints.size(); ++c) {
      curve += StringPrintf(
          "%s{\"tuples\": %lld, \"accuracy\": %.6f}", c == 0 ? "" : ", ",
          static_cast<long long>(r.checkpoints[c].tuples),
          r.checkpoints[c].accuracy);
    }
    const double tuples_per_second =
        r.ingest_seconds > 0
            ? static_cast<double>(config.tuples) / r.ingest_seconds
            : 0;
    const auto per_tuple_ns = [&config](double seconds) {
      return config.tuples > 0
                 ? seconds * 1e9 / static_cast<double>(config.tuples)
                 : 0;
    };
    out += StringPrintf(
        "%s\n  {\"function\": %d, \"tuples\": %lld,\n"
        "   \"stream_tuples_per_second\": %.0f, "
        "\"stream_ns_per_tuple\": %.1f, "
        "\"stream_cpu_ns_per_tuple\": %.1f, "
        "\"ingest_cpu_ns_per_tuple\": %.1f,\n"
        "   \"stream_test_accuracy\": %.6f, \"batch_test_accuracy\": %.6f, "
        "\"accuracy_delta\": %.6f, \"within_2pct\": %s,\n"
        "   \"stream_nodes\": %lld, \"batch_nodes\": %lld, "
        "\"splits\": %lld, \"deactivated_leaves\": %lld, "
        "\"stream_state_bytes\": %llu,\n"
        "   \"accuracy_curve\": [%s]}",
        i == 0 ? "" : ",", r.function, static_cast<long long>(config.tuples),
        tuples_per_second, per_tuple_ns(r.ingest_seconds),
        per_tuple_ns(r.stream_cpu_seconds), per_tuple_ns(r.ingest_cpu_seconds),
        r.stream_accuracy, r.batch_accuracy,
        r.stream_accuracy - r.batch_accuracy,
        r.stream_accuracy >= r.batch_accuracy - 0.02 ? "true" : "false",
        static_cast<long long>(r.stream_nodes),
        static_cast<long long>(r.batch_nodes),
        static_cast<long long>(r.splits),
        static_cast<long long>(r.deactivated_leaves),
        static_cast<unsigned long long>(r.stream_state_bytes),
        curve.c_str());
  }
  out += "\n]}\n";
  return out;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.tuples) || config.tuples < 100) {
        std::fprintf(stderr, "bad --tuples\n");
        return 1;
      }
    } else if (arg == "--test-tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.test_tuples) ||
          config.test_tuples < 100) {
        std::fprintf(stderr, "bad --test-tuples\n");
        return 1;
      }
    } else if (arg == "--max-bins" && i + 1 < argc) {
      config.max_bins = std::atoi(argv[++i]);
      if (config.max_bins < 2 || config.max_bins > 256) {
        std::fprintf(stderr, "bad --max-bins (want 2..256)\n");
        return 1;
      }
    } else if (arg == "--functions" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.functions)) {
        std::fprintf(stderr, "bad --functions list (want 1..10)\n");
        return 1;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      config.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: stream_throughput [--quick] [--tuples N]\n"
                   "         [--test-tuples N] [--max-bins B]\n"
                   "         [--functions 1,5,7] [--out F.json]\n");
      return 1;
    }
  }
  if (config.quick) {
    config.tuples = std::min<int64_t>(config.tuples, 30000);
    config.test_tuples = std::min<int64_t>(config.test_tuples, 5000);
  }
  config.tuples = ScaledTuples(config.tuples);

  PrintBanner("stream", "Hoeffding streaming builder vs batch binned engine "
                        "(one pass, bounded memory)");

  TablePrinter table({"F", "ktuples/s", "ingest CPU s", "stream acc",
                      "batch acc", "delta", "nodes s/b", "splits",
                      "state KB"});
  std::vector<Run> runs;
  uint64_t stream_only_rss_kb = 0;
  int within = 0;
  for (int function : config.functions) {
    const Dataset test = MakeAgrawal(
        function, config.test_tuples, 9000 + static_cast<uint64_t>(function));
    Run run;
    run.function = function;

    RunStream(config, function, test, &run);
    // RSS before any batch dataset is materialized: the stream-only bound.
    if (stream_only_rss_kb == 0) stream_only_rss_kb = PeakRssKb();

    RunBatch(config, function, test, &run);
    if (run.stream_accuracy >= run.batch_accuracy - 0.02) ++within;
    runs.push_back(run);
    table.AddRow(
        {Fmt("F%d", function),
         Fmt("%.0f", run.ingest_seconds > 0
                         ? static_cast<double>(config.tuples) /
                               run.ingest_seconds / 1000.0
                         : 0),
         Fmt("%.3f", run.ingest_cpu_seconds),
         Fmt("%.4f", run.stream_accuracy), Fmt("%.4f", run.batch_accuracy),
         Fmt("%+.4f", run.stream_accuracy - run.batch_accuracy),
         Fmt("%lld/%lld", static_cast<long long>(run.stream_nodes),
             static_cast<long long>(run.batch_nodes)),
         Fmt("%lld", static_cast<long long>(run.splits)),
         Fmt("%.0f", static_cast<double>(run.stream_state_bytes) / 1024.0)});
  }
  std::printf("\nOne-pass stream vs batch binned, %lld tuples, %d stream "
              "bins (delta = stream - batch):\n",
              static_cast<long long>(config.tuples), config.max_bins);
  table.Print();
  std::printf("\nwithin 2%% of batch on %d/%zu functions; peak RSS %llu KB "
              "(stream-only %llu KB)\n",
              within, runs.size(),
              static_cast<unsigned long long>(PeakRssKb()),
              static_cast<unsigned long long>(stream_only_rss_kb));

  if (!config.out.empty()) {
    std::ofstream out(config.out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", config.out.c_str());
      return 1;
    }
    out << RunsToJson(config, runs, stream_only_rss_kb);
    if (!out.flush()) {
      std::fprintf(stderr, "write failed for %s\n", config.out.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu runs)\n", config.out.c_str(), runs.size());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace smptree

int main(int argc, char** argv) {
  return smptree::bench::Main(argc, argv);
}
