// Forest training sweep: trees x threads x inner algorithm x schedule on an
// Agrawal function, reporting train time, the planner's thread split, and
// the speedup vs the same configuration at P=1 -- the two-level-parallelism
// evidence for the ensemble subsystem. The sorted engine runs once per
// inner algorithm; the binned engine (which has no inner algorithm) runs
// beside it, and its rows also report the one shared quantize + bin pass
// that precedes its members. A second section sweeps ensemble size with
// bagging + feature sampling and reports OOB accuracy vs T.
//
//   forest_speedup [--quick] [--trees 2,8] [--threads 1,2,4]
//                  [--inner basic,mwk] [--function 5] [--tuples N]
//                  [--out runs.json]
//
// Emits paper-style tables on stdout and (with --out) a JSON document with
// "suite": "forest_speedup" that tools/bench_to_json.py converts into the
// checked-in BENCH_forest.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ensemble/forest_builder.h"
#include "util/string_util.h"

namespace smptree {
namespace bench {
namespace {

struct Config {
  bool quick = false;
  std::vector<int> trees = {2, 8};
  std::vector<int> threads = {1, 2, 4};
  std::vector<Algorithm> inner = {Algorithm::kBasic, Algorithm::kMwk};
  int function = 5;
  int64_t tuples = 20000;
  std::string out;
};

struct Run {
  int trees = 0;
  int threads = 0;
  const char* engine = nullptr;
  const char* inner = nullptr;
  const char* schedule = nullptr;
  int concurrent_trees = 0;
  int inner_threads = 0;
  double train_seconds = 0;
  double bin_seconds = 0;  ///< binned: the shared quantize + bin pass
  double oob_accuracy = -1;
};

/// One timed series: the sorted engine with an inner algorithm, or the
/// binned engine.
struct Variant {
  Engine engine = Engine::kSorted;
  Algorithm inner = Algorithm::kSerial;

  /// The member algorithm name, as the folded stats report it.
  const char* inner_name() const {
    return engine == Engine::kBinned ? "BINNED" : AlgorithmName(inner);
  }
};

constexpr ForestSchedule kSchedules[] = {ForestSchedule::kTreesFirst,
                                         ForestSchedule::kInnerFirst};

bool ParseIntList(const std::string& raw, std::vector<int>* out) {
  out->clear();
  for (const std::string& part : SplitString(raw, ',')) {
    int64_t v = 0;
    if (!ParseInt64(TrimWhitespace(part), &v) || v < 1) return false;
    out->push_back(static_cast<int>(v));
  }
  return !out->empty();
}

bool ParseAlgorithmList(const std::string& raw, std::vector<Algorithm>* out) {
  out->clear();
  for (const std::string& part : SplitString(raw, ',')) {
    const auto name = TrimWhitespace(part);
    if (name == "serial") {
      out->push_back(Algorithm::kSerial);
    } else if (name == "basic") {
      out->push_back(Algorithm::kBasic);
    } else if (name == "fwk") {
      out->push_back(Algorithm::kFwk);
    } else if (name == "mwk") {
      out->push_back(Algorithm::kMwk);
    } else if (name == "subtree") {
      out->push_back(Algorithm::kSubtree);
    } else {
      return false;
    }
  }
  return !out->empty();
}

ForestOptions BaseOptions(Variant variant) {
  ForestOptions options;
  options.bootstrap = true;
  options.oob = false;  // the timed sweep measures training, not scoring
  options.features_per_node = 0;
  options.tree.build.engine = variant.engine;
  options.tree.build.algorithm = variant.inner;
  options.tree.build.num_threads = 1;
  return options;
}

/// Best (minimum train time) of `reps` runs.
Run Measure(const Dataset& data, int trees, int threads, Variant variant,
            ForestSchedule schedule, int reps) {
  Run best;
  for (int r = 0; r < reps; ++r) {
    ForestOptions options = BaseOptions(variant);
    options.num_trees = trees;
    options.num_threads = threads;
    options.schedule = schedule;
    auto result = TrainForest(data, options);
    if (!result.ok()) {
      std::fprintf(stderr, "forest build failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || result->stats.total_seconds < best.train_seconds) {
      best.trees = trees;
      best.threads = threads;
      best.engine = EngineName(variant.engine);
      best.inner = variant.inner_name();
      best.schedule = ForestScheduleName(schedule);
      best.concurrent_trees = result->stats.split.concurrent_trees;
      best.inner_threads = result->stats.split.inner_threads;
      best.train_seconds = result->stats.total_seconds;
      best.bin_seconds = result->stats.bin_seconds;
    }
  }
  return best;
}

/// OOB accuracy as the ensemble grows: bagging + sqrt-ish feature sampling,
/// the configuration a forest is actually trained with.
std::vector<Run> SweepOob(const Dataset& data, const Config& config) {
  std::vector<Run> runs;
  TablePrinter table({"T", "oob accuracy", "oob tuples", "train s"});
  const int max_trees =
      *std::max_element(config.trees.begin(), config.trees.end());
  for (int trees = 1; trees <= max_trees; trees *= 2) {
    ForestOptions options = BaseOptions(Variant());
    options.num_trees = trees;
    options.oob = true;
    options.features_per_node = 4;
    auto result = TrainForest(data, options);
    if (!result.ok()) {
      std::fprintf(stderr, "oob build failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    Run run;
    run.trees = trees;
    run.threads = 1;
    run.engine = EngineName(Engine::kSorted);
    run.inner = AlgorithmName(Algorithm::kSerial);
    run.schedule = "oob";
    run.concurrent_trees = 1;
    run.inner_threads = 1;
    run.train_seconds = result->stats.total_seconds;
    run.oob_accuracy = result->stats.oob_accuracy;
    runs.push_back(run);
    table.AddRow({Fmt("%d", trees), Fmt("%.4f", run.oob_accuracy),
                  Fmt("%lld", static_cast<long long>(
                                  result->stats.oob_tuples)),
                  Fmt("%.4f", run.train_seconds)});
  }
  std::printf("\nOOB accuracy vs ensemble size (bagging, 4 features/node):\n");
  table.Print();
  return runs;
}

std::string RunsToJson(const Config& config, const std::vector<Run>& runs) {
  std::string out = StringPrintf(
      "{\"suite\": \"forest_speedup\", \"schema_version\": 1,\n"
      " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
      "\"function\": %d, \"tuples\": %lld, \"attrs\": 9, \"quick\": %s},\n"
      " \"runs\": [",
      HardwareThreads(), BenchScale(), config.function,
      static_cast<long long>(config.tuples), config.quick ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out += StringPrintf(
        "%s\n  {\"trees\": %d, \"threads\": %d, \"engine\": \"%s\", "
        "\"inner\": \"%s\", \"schedule\": \"%s\", "
        "\"concurrent_trees\": %d, \"inner_threads\": %d, "
        "\"train_seconds\": %.6f, \"bin_seconds\": %.6f, "
        "\"oob_accuracy\": %.6f}",
        i == 0 ? "" : ",", r.trees, r.threads, r.engine, r.inner, r.schedule,
        r.concurrent_trees, r.inner_threads, r.train_seconds, r.bin_seconds,
        r.oob_accuracy);
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
    } else if (arg == "--trees" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.trees)) {
        std::fprintf(stderr, "bad --trees list\n");
        return 1;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.threads)) {
        std::fprintf(stderr, "bad --threads list\n");
        return 1;
      }
    } else if (arg == "--inner" && i + 1 < argc) {
      if (!ParseAlgorithmList(argv[++i], &config.inner)) {
        std::fprintf(stderr, "bad --inner list\n");
        return 1;
      }
    } else if (arg == "--function" && i + 1 < argc) {
      config.function = std::atoi(argv[++i]);
    } else if (arg == "--tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.tuples) || config.tuples < 100) {
        std::fprintf(stderr, "bad --tuples\n");
        return 1;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      config.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: forest_speedup [--quick] [--trees 2,8]\n"
                   "         [--threads 1,2,4] [--inner basic,mwk]\n"
                   "         [--function 5] [--tuples N] [--out F.json]\n");
      return 1;
    }
  }
  if (config.quick) config.tuples = std::min<int64_t>(config.tuples, 4000);
  const int reps = config.quick ? 1 : 2;
  const int64_t tuples = ScaledTuples(config.tuples);
  config.tuples = tuples;

  PrintBanner("forest", "forest speedups (trees x threads x inner builder)");

  const Dataset data = MakeDataset(config.function, 9, tuples);
  // Warmup: fault in the dataset before any timed run.
  {
    ForestOptions warm = BaseOptions(Variant());
    warm.num_trees = 1;
    auto warm_result = TrainForest(data, warm);
    if (!warm_result.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n",
                   warm_result.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<Variant> variants;
  for (Algorithm inner : config.inner) {
    variants.push_back({Engine::kSorted, inner});
  }
  variants.push_back({Engine::kBinned, Algorithm::kSerial});

  std::vector<Run> runs;
  for (const Variant& variant : variants) {
    for (ForestSchedule schedule : kSchedules) {
      TablePrinter table(
          {"T", "P", "split (CxI)", "train s", "bin s", "speedup"});
      for (int trees : config.trees) {
        double base = 0;
        for (int threads : config.threads) {
          const Run run =
              Measure(data, trees, threads, variant, schedule, reps);
          if (threads == config.threads.front() && threads == 1) {
            base = run.train_seconds;
          }
          const double speedup = base > 0 && run.train_seconds > 0
                                     ? base / run.train_seconds
                                     : 0;
          table.AddRow({Fmt("%d", trees), Fmt("%d", threads),
                        Fmt("%dx%d", run.concurrent_trees, run.inner_threads),
                        Fmt("%.4f", run.train_seconds),
                        Fmt("%.4f", run.bin_seconds),
                        base > 0 ? Fmt("%.2f", speedup) : "n/a"});
          runs.push_back(run);
        }
      }
      std::printf("\nF%d, %lld tuples, %s engine, inner %s, schedule %s:\n",
                  config.function, static_cast<long long>(tuples),
                  EngineName(variant.engine), variant.inner_name(),
                  ForestScheduleName(schedule));
      table.Print();
    }
  }

  std::vector<Run> oob_runs = SweepOob(data, config);
  runs.insert(runs.end(), oob_runs.begin(), oob_runs.end());

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
