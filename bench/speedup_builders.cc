// Parallel-builder speedup sweep: threads x {BASIC, FWK, MWK, SUBTREE} on
// Agrawal functions, reporting build time, speedup vs the same algorithm at
// P=1, and the wait share (blocked time / (P x build time)) -- the repo's
// version of the paper's Figures 8-11 evidence, now machine-readable. Each
// point builds kReps times and reports the median build time with its
// interquartile range; the phase counters come from the median build.
//
//   speedup_builders [--quick] [--threads 1,2,4] [--functions 5,7]
//                    [--tuples N] [--out runs.json] [--overhead]
//
// Emits paper-style tables on stdout and (with --out) a JSON document with
// "suite": "parallel_builders" that tools/bench_to_json.py converts into the
// checked-in BENCH_parallel.json. --overhead additionally measures the cost
// of running one configuration with a TraceRecorder attached vs without
// (the tracing-on price; tracing *off* is one thread_local load per span).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/build_stats.h"
#include "core/classifier.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace smptree {
namespace bench {
namespace {

struct Config {
  bool quick = false;
  bool overhead = false;
  std::vector<int> threads = {1, 2, 4};
  std::vector<int> functions = {5, 7};
  int64_t tuples = 200000;
  std::string out;
};

struct Run {
  int function = 0;
  const char* algorithm = nullptr;
  int threads = 0;
  double build_seconds = 0;  ///< median over kReps builds
  double build_q1 = 0;       ///< lower quartile of the build times
  double build_q3 = 0;       ///< upper quartile
  double total_seconds = 0;
  BuildStats stats;
};

/// Builds per point: enough for a median and quartiles that one build the
/// host disturbs cannot move.
constexpr int kReps = 5;

constexpr Algorithm kAlgorithms[] = {Algorithm::kBasic, Algorithm::kFwk,
                                     Algorithm::kMwk, Algorithm::kSubtree};

bool ParseIntList(const std::string& raw, std::vector<int>* out) {
  out->clear();
  for (const std::string& part : SplitString(raw, ',')) {
    int64_t v = 0;
    if (!ParseInt64(TrimWhitespace(part), &v) || v < 1) return false;
    out->push_back(static_cast<int>(v));
  }
  return !out->empty();
}

/// kReps builds of one configuration, summarized by the median build (its
/// time, total time and counters) and the quartiles of the build times.
Run Measure(const Dataset& data, int function, Algorithm algorithm,
            int threads) {
  std::vector<Run> reps;
  for (int r = 0; r < kReps; ++r) {
    RunResult result = RunBuild(data, algorithm, threads, /*env=*/nullptr);
    Run run;
    run.function = function;
    run.algorithm = AlgorithmName(algorithm);
    run.threads = threads;
    run.build_seconds = result.stats.build_seconds;
    run.total_seconds = result.stats.total_seconds;
    run.stats = result.stats.build_stats;
    reps.push_back(run);
  }
  std::sort(reps.begin(), reps.end(), [](const Run& a, const Run& b) {
    return a.build_seconds < b.build_seconds;
  });
  // With five sorted times the quartiles fall on ranks 1 and 3.
  Run median = reps[kReps / 2];
  median.build_q1 = reps[kReps / 4].build_seconds;
  median.build_q3 = reps[kReps - 1 - kReps / 4].build_seconds;
  return median;
}

void MeasureOverhead(const Dataset& data) {
  // Same configuration twice: untraced, then with a live TraceRecorder, so
  // the delta is the full tracing-on price (buffer appends + drain setup).
  double untraced = 0, traced = 0;
  for (int r = 0; r < kReps; ++r) {
    RunResult plain = RunBuild(data, Algorithm::kMwk, 2, nullptr);
    if (r == 0 || plain.stats.build_seconds < untraced) {
      untraced = plain.stats.build_seconds;
    }
    ClassifierOptions options;
    options.build.algorithm = Algorithm::kMwk;
    options.build.num_threads = 2;
    TraceRecorder recorder;
    options.build.trace = &recorder;
    auto result = TrainClassifier(data, options);
    if (!result.ok()) {
      std::fprintf(stderr, "traced build failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || result->stats.build_seconds < traced) {
      traced = result->stats.build_seconds;
    }
  }
  std::printf("\ntracing-on overhead (MWK, P=2): untraced %.4fs, traced "
              "%.4fs (%+.2f%%)\n",
              untraced, traced,
              untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0);
}

std::string RunsToJson(const Config& config, const std::vector<Run>& runs) {
  std::string out = StringPrintf(
      "{\"suite\": \"parallel_builders\", \"schema_version\": 1,\n"
      " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
      "\"tuples\": %lld, \"attrs\": 9, \"env\": \"mem\", \"window\": 4, "
      "\"reps\": %d, \"quick\": %s},\n \"runs\": [",
      HardwareThreads(), BenchScale(), static_cast<long long>(config.tuples),
      kReps, config.quick ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out += StringPrintf(
        "%s\n  {\"function\": %d, \"algorithm\": \"%s\", \"threads\": %d, "
        "\"build_seconds\": %.6f, \"build_seconds_q1\": %.6f, "
        "\"build_seconds_q3\": %.6f, \"total_seconds\": %.6f, "
        "\"wait_seconds\": %.6f, \"e_seconds\": %.6f, \"w_seconds\": %.6f, "
        "\"s_seconds\": %.6f, \"barrier_waits\": %llu, "
        "\"condvar_waits\": %llu, \"records_scanned\": %llu, "
        "\"records_split\": %llu}",
        i == 0 ? "" : ",", r.function, r.algorithm, r.threads,
        r.build_seconds, r.build_q1, r.build_q3, r.total_seconds,
        static_cast<double>(r.stats.wait_nanos) / 1e9,
        static_cast<double>(r.stats.e_nanos) / 1e9,
        static_cast<double>(r.stats.w_nanos) / 1e9,
        static_cast<double>(r.stats.s_nanos) / 1e9,
        static_cast<unsigned long long>(r.stats.barrier_waits),
        static_cast<unsigned long long>(r.stats.condvar_waits),
        static_cast<unsigned long long>(r.stats.records_scanned),
        static_cast<unsigned long long>(r.stats.records_split));
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
    } else if (arg == "--overhead") {
      config.overhead = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.threads)) {
        std::fprintf(stderr, "bad --threads list\n");
        return 1;
      }
    } else if (arg == "--functions" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.functions)) {
        std::fprintf(stderr, "bad --functions list\n");
        return 1;
      }
    } else if (arg == "--tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.tuples) || config.tuples < 100) {
        std::fprintf(stderr, "bad --tuples\n");
        return 1;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      config.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: speedup_builders [--quick] [--threads 1,2,4]\n"
                   "         [--functions 5,7] [--tuples N] [--out F.json]\n"
                   "         [--overhead]\n");
      return 1;
    }
  }
  if (config.quick) config.tuples = std::min<int64_t>(config.tuples, 8000);
  const int64_t tuples = ScaledTuples(config.tuples);
  config.tuples = tuples;

  PrintBanner("parallel", "builder speedups (threads x algorithm, mem env)");

  std::vector<Run> runs;
  for (int function : config.functions) {
    const Dataset data = MakeDataset(function, 9, tuples);
    // One warmup build to fault in the dataset before any timed run.
    RunBuild(data, Algorithm::kSerial, 1, nullptr);

    TablePrinter table({"algorithm", "P", "build s", "IQR s", "speedup",
                        "wait share", "E s", "W s", "S s"});
    for (Algorithm algorithm : kAlgorithms) {
      double base = 0;
      for (int threads : config.threads) {
        const Run run = Measure(data, function, algorithm, threads);
        if (threads == config.threads.front() && threads == 1) {
          base = run.build_seconds;
        }
        const double speedup =
            base > 0 && run.build_seconds > 0 ? base / run.build_seconds : 0;
        table.AddRow({run.algorithm, Fmt("%d", threads),
                      Fmt("%.4f", run.build_seconds),
                      Fmt("%.4f", run.build_q3 - run.build_q1),
                      base > 0 ? Fmt("%.2f", speedup) : "n/a",
                      Fmt("%.3f", run.stats.WaitShare()),
                      Fmt("%.4f", static_cast<double>(run.stats.e_nanos) / 1e9),
                      Fmt("%.4f", static_cast<double>(run.stats.w_nanos) / 1e9),
                      Fmt("%.4f",
                          static_cast<double>(run.stats.s_nanos) / 1e9)});
        runs.push_back(run);
      }
    }
    std::printf("\nF%d, %lld tuples:\n", function,
                static_cast<long long>(tuples));
    table.Print();
  }

  if (config.overhead) {
    const Dataset data = MakeDataset(config.functions.front(), 9, tuples);
    MeasureOverhead(data);
  }

  if (!config.out.empty()) {
    std::ofstream out(config.out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", config.out.c_str());
      return 1;
    }
    out << RunsToJson(config, runs);
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
