// Inference throughput sweep: pointer-chasing per-tuple classification
// (ColumnBlock::GatherRow + DecisionTree::Classify / Forest::Probabilities
// -- the serving engine's scoring path before the flattened engine) against the
// flattened SoA path (FlatTree/FlatForest + BatchScorer's level-synchronous
// batch traversal), single thread, on trees and 15-member forests trained
// on each Agrawal function F1..F10, plus a batch-size sweep on one
// representative function. Labels from both paths are cross-checked every
// run -- a parity break fails the bench, so a speedup can never come from
// scoring a different tree.
//
//   infer_throughput [--quick] [--tuples N] [--train-tuples N] [--trees T]
//                    [--functions 1,5,7] [--out runs.json]
//
// Emits a paper-style table on stdout and (with --out) a JSON document with
// "suite": "infer_throughput" that tools/bench_to_json.py converts into the
// checked-in BENCH_infer.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/classifier.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "infer/batch_scorer.h"
#include "infer/flat_tree.h"
#include "util/string_util.h"

namespace smptree {
namespace bench {
namespace {

struct Config {
  bool quick = false;
  int64_t tuples = 60000;        ///< tuples scored per timed pass
  int64_t train_tuples = 20000;  ///< tuples the models are trained on
  int forest_trees = 15;
  std::vector<int> functions = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::string out;
};

struct Run {
  int function = 0;
  int64_t tree_nodes = 0;
  double tree_pointer_ns = 0;
  double tree_flat_ns = 0;
  double forest_pointer_ns = 0;
  double forest_flat_ns = 0;
};

struct SweepRow {
  int64_t batch = 0;
  double tree_pointer_ns = 0;
  double tree_flat_ns = 0;
  double forest_pointer_ns = 0;
  double forest_flat_ns = 0;
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

DecisionTree TrainTree(const Dataset& data) {
  ClassifierOptions options;
  options.build.num_threads = HardwareThreads();
  auto result = TrainClassifier(data, options);
  if (!result.ok()) {
    std::fprintf(stderr, "tree train failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result->tree);
}

Forest TrainBenchForest(const Dataset& data, int trees) {
  ForestOptions options;
  options.num_trees = trees;
  options.features_per_node = 3;
  options.num_threads = HardwareThreads();
  options.seed = 42;
  options.oob = false;
  auto result = TrainForest(data, options);
  if (!result.ok()) {
    std::fprintf(stderr, "forest train failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result->forest);
}

/// Splits `data` into batches of `batch_size` tuples (the last one ragged),
/// the granularity the serving engine actually scores at.
std::vector<Dataset> MakeBatches(const Dataset& data, int64_t batch_size) {
  std::vector<Dataset> batches;
  for (int64_t begin = 0; begin < data.num_tuples(); begin += batch_size) {
    const int64_t end = std::min(begin + batch_size, data.num_tuples());
    batches.emplace_back(data.schema());
    batches.back().AppendRange(data, begin, end);
  }
  return batches;
}

/// Best-of-`reps` wall seconds for one full pass of `body`.
template <typename Body>
double MeasureSeconds(int reps, const Body& body) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// The engine's pre-flattening scoring loop, verbatim: gather each row into
/// a scratch TupleValues and walk the pointer-linked tree.
void PointerScoreTree(const DecisionTree& tree, const std::vector<Dataset>& bs,
                      std::vector<ClassLabel>* labels) {
  labels->clear();
  TupleValues row;
  for (const Dataset& batch : bs) {
    for (int64_t t = 0; t < batch.num_tuples(); ++t) {
      batch.GatherRow(t, &row);
      labels->push_back(tree.Classify(row));
    }
  }
}

/// Pointer forest path: gather, vote across members, copy the vote shares
/// out per tuple (what the engine's worker loop used to do).
void PointerScoreForest(const Forest& forest, const std::vector<Dataset>& bs,
                        std::vector<ClassLabel>* labels,
                        std::vector<double>* probs) {
  labels->clear();
  probs->clear();
  TupleValues row;
  std::vector<double> prow;
  for (const Dataset& batch : bs) {
    for (int64_t t = 0; t < batch.num_tuples(); ++t) {
      batch.GatherRow(t, &row);
      labels->push_back(forest.Probabilities(row, &prow));
      probs->insert(probs->end(), prow.begin(), prow.end());
    }
  }
}

void FlatScoreTree(const FlatTree& tree, const std::vector<Dataset>& bs,
                   BatchScorer* scorer, std::vector<ClassLabel>* labels) {
  size_t off = 0;
  for (const Dataset& batch : bs) {
    scorer->ScoreTree(tree, batch, labels->data() + off);
    off += static_cast<size_t>(batch.num_tuples());
  }
}

void FlatScoreForest(const FlatForest& forest, const std::vector<Dataset>& bs,
                     BatchScorer* scorer, std::vector<ClassLabel>* labels,
                     std::vector<double>* probs) {
  const size_t k = static_cast<size_t>(forest.num_classes());
  size_t off = 0;
  for (const Dataset& batch : bs) {
    scorer->ScoreForest(forest, batch, labels->data() + off,
                        probs->data() + off * k);
    off += static_cast<size_t>(batch.num_tuples());
  }
}

void RequireLabelParity(const std::vector<ClassLabel>& a,
                        const std::vector<ClassLabel>& b, const char* what) {
  if (a != b) {
    std::fprintf(stderr, "PARITY BREAK: %s labels diverge\n", what);
    std::exit(1);
  }
}

double NsPerTuple(double seconds, int64_t tuples) {
  return tuples > 0 ? seconds * 1e9 / static_cast<double>(tuples) : 0;
}

double Speedup(double pointer_ns, double flat_ns) {
  return flat_ns > 0 ? pointer_ns / flat_ns : 0;
}

std::string RunsToJson(const Config& config, const std::vector<Run>& runs,
                       const std::vector<SweepRow>& sweep, int sweep_function,
                       int64_t batch_size) {
  std::string out = StringPrintf(
      "{\"suite\": \"infer_throughput\", \"schema_version\": 1,\n"
      " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
      "\"tuples\": %lld, \"train_tuples\": %lld, \"forest_trees\": %d, "
      "\"batch\": %lld, \"attrs\": 9, \"threads\": 1, \"quick\": %s},\n"
      " \"runs\": [",
      HardwareThreads(), BenchScale(), static_cast<long long>(config.tuples),
      static_cast<long long>(config.train_tuples), config.forest_trees,
      static_cast<long long>(batch_size), config.quick ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out += StringPrintf(
        "%s\n  {\"function\": %d, \"tuples\": %lld, \"tree_nodes\": %lld, "
        "\"forest_trees\": %d,\n"
        "   \"tree_pointer_ns_per_tuple\": %.2f, "
        "\"tree_flat_ns_per_tuple\": %.2f, \"tree_speedup\": %.3f,\n"
        "   \"forest_pointer_ns_per_tuple\": %.2f, "
        "\"forest_flat_ns_per_tuple\": %.2f, \"forest_speedup\": %.3f}",
        i == 0 ? "" : ",", r.function, static_cast<long long>(config.tuples),
        static_cast<long long>(r.tree_nodes), config.forest_trees,
        r.tree_pointer_ns, r.tree_flat_ns,
        Speedup(r.tree_pointer_ns, r.tree_flat_ns), r.forest_pointer_ns,
        r.forest_flat_ns, Speedup(r.forest_pointer_ns, r.forest_flat_ns));
  }
  out += StringPrintf("\n],\n \"sweep_function\": %d,\n \"batch_sweep\": [",
                      sweep_function);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& s = sweep[i];
    out += StringPrintf(
        "%s\n  {\"batch\": %lld, \"tree_pointer_ns_per_tuple\": %.2f, "
        "\"tree_flat_ns_per_tuple\": %.2f, "
        "\"forest_pointer_ns_per_tuple\": %.2f, "
        "\"forest_flat_ns_per_tuple\": %.2f}",
        i == 0 ? "" : ",", static_cast<long long>(s.batch), s.tree_pointer_ns,
        s.tree_flat_ns, s.forest_pointer_ns, s.forest_flat_ns);
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
    } else if (arg == "--train-tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.train_tuples) ||
          config.train_tuples < 100) {
        std::fprintf(stderr, "bad --train-tuples\n");
        return 1;
      }
    } else if (arg == "--trees" && i + 1 < argc) {
      config.forest_trees = std::atoi(argv[++i]);
      if (config.forest_trees < 1 || config.forest_trees > 500) {
        std::fprintf(stderr, "bad --trees (want 1..500)\n");
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
                   "usage: infer_throughput [--quick] [--tuples N]\n"
                   "         [--train-tuples N] [--trees T]\n"
                   "         [--functions 1,5,7] [--out F.json]\n");
      return 1;
    }
  }
  if (config.quick) {
    config.tuples = std::min<int64_t>(config.tuples, 8000);
    config.train_tuples = std::min<int64_t>(config.train_tuples, 4000);
  }
  const int reps = config.quick ? 2 : 5;
  config.tuples = ScaledTuples(config.tuples);
  const int64_t kServeBatch = 512;  ///< headline-table batch size

  PrintBanner("infer", "pointer-chasing vs flattened SoA inference "
                       "(single thread, parity-checked)");

  TablePrinter table({"F", "nodes", "tree ptr ns", "tree flat ns", "speedup",
                      "forest ptr ns", "forest flat ns", "speedup"});
  std::vector<Run> runs;
  // Kept alive for the batch sweep below: the models from the sweep
  // function's run (F7 when present, else the last function benched).
  const int sweep_function =
      std::count(config.functions.begin(), config.functions.end(), 7) > 0
          ? 7
          : config.functions.back();
  std::optional<DecisionTree> sweep_tree;
  std::optional<Forest> sweep_forest;
  std::optional<Dataset> sweep_data;

  for (int function : config.functions) {
    const Dataset train = MakeAgrawal(
        function, config.train_tuples, 42 + static_cast<uint64_t>(function));
    const Dataset score = MakeAgrawal(
        function, config.tuples, 9000 + static_cast<uint64_t>(function));
    DecisionTree tree = TrainTree(train);
    Forest forest = TrainBenchForest(train, config.forest_trees);
    const FlatTree flat_tree = FlatTree::Compile(tree);
    const FlatForest flat_forest = FlatForest::Compile(forest);
    const std::vector<Dataset> batches = MakeBatches(score, kServeBatch);
    const size_t n = static_cast<size_t>(score.num_tuples());
    const size_t k = static_cast<size_t>(flat_forest.num_classes());

    std::vector<ClassLabel> ptr_labels, flat_labels(n);
    std::vector<double> ptr_probs, flat_probs(n * k);
    BatchScorer scorer;

    Run run;
    run.function = function;
    run.tree_nodes = tree.num_nodes();
    // Warmup passes fault in the batches and the models before timing.
    PointerScoreTree(tree, batches, &ptr_labels);
    FlatScoreTree(flat_tree, batches, &scorer, &flat_labels);
    RequireLabelParity(ptr_labels, flat_labels, "tree");

    run.tree_pointer_ns = NsPerTuple(
        MeasureSeconds(reps,
                       [&] { PointerScoreTree(tree, batches, &ptr_labels); }),
        score.num_tuples());
    run.tree_flat_ns = NsPerTuple(
        MeasureSeconds(
            reps, [&] { FlatScoreTree(flat_tree, batches, &scorer,
                                      &flat_labels); }),
        score.num_tuples());

    PointerScoreForest(forest, batches, &ptr_labels, &ptr_probs);
    FlatScoreForest(flat_forest, batches, &scorer, &flat_labels, &flat_probs);
    RequireLabelParity(ptr_labels, flat_labels, "forest");
    if (ptr_probs != flat_probs) {
      std::fprintf(stderr, "PARITY BREAK: forest probs diverge\n");
      return 1;
    }
    run.forest_pointer_ns = NsPerTuple(
        MeasureSeconds(reps, [&] { PointerScoreForest(forest, batches,
                                                      &ptr_labels,
                                                      &ptr_probs); }),
        score.num_tuples());
    run.forest_flat_ns = NsPerTuple(
        MeasureSeconds(reps, [&] { FlatScoreForest(flat_forest, batches,
                                                   &scorer, &flat_labels,
                                                   &flat_probs); }),
        score.num_tuples());

    runs.push_back(run);
    table.AddRow({Fmt("F%d", function),
                  Fmt("%lld", static_cast<long long>(run.tree_nodes)),
                  Fmt("%.1f", run.tree_pointer_ns),
                  Fmt("%.1f", run.tree_flat_ns),
                  Fmt("%.2fx", Speedup(run.tree_pointer_ns, run.tree_flat_ns)),
                  Fmt("%.1f", run.forest_pointer_ns),
                  Fmt("%.1f", run.forest_flat_ns),
                  Fmt("%.2fx", Speedup(run.forest_pointer_ns,
                                       run.forest_flat_ns))});
    if (function == sweep_function) {
      sweep_tree = std::move(tree);
      sweep_forest = std::move(forest);
      sweep_data = MakeAgrawal(sweep_function, config.tuples,
                               9000 + static_cast<uint64_t>(sweep_function));
    }
  }
  std::printf("\nScoring ns/tuple, single thread, %lld tuples in batches of "
              "%lld, %d-tree forests:\n",
              static_cast<long long>(config.tuples),
              static_cast<long long>(kServeBatch), config.forest_trees);
  table.Print();

  // Batch-size sweep on the sweep function: how both paths respond to the
  // batch granularity the server actually sees (small request batches pay
  // per-batch overhead; the flat path additionally loses level-synchrony
  // benefits below one traversal block).
  std::vector<int64_t> sizes = {16, 64, 256, 1024, 4096};
  if (config.quick) sizes = {64, 1024};
  const FlatTree sweep_flat_tree = FlatTree::Compile(*sweep_tree);
  const FlatForest sweep_flat_forest = FlatForest::Compile(*sweep_forest);
  const size_t n = static_cast<size_t>(sweep_data->num_tuples());
  const size_t k = static_cast<size_t>(sweep_flat_forest.num_classes());
  std::vector<ClassLabel> ptr_labels, flat_labels(n);
  std::vector<double> ptr_probs, flat_probs(n * k);
  BatchScorer scorer;
  TablePrinter sweep_table({"batch", "tree ptr ns", "tree flat ns",
                            "forest ptr ns", "forest flat ns"});
  std::vector<SweepRow> sweep;
  for (const int64_t size : sizes) {
    const std::vector<Dataset> batches = MakeBatches(*sweep_data, size);
    SweepRow row;
    row.batch = size;
    row.tree_pointer_ns = NsPerTuple(
        MeasureSeconds(reps, [&] { PointerScoreTree(*sweep_tree, batches,
                                                    &ptr_labels); }),
        sweep_data->num_tuples());
    row.tree_flat_ns = NsPerTuple(
        MeasureSeconds(reps, [&] { FlatScoreTree(sweep_flat_tree, batches,
                                                 &scorer, &flat_labels); }),
        sweep_data->num_tuples());
    row.forest_pointer_ns = NsPerTuple(
        MeasureSeconds(reps, [&] { PointerScoreForest(*sweep_forest, batches,
                                                      &ptr_labels,
                                                      &ptr_probs); }),
        sweep_data->num_tuples());
    row.forest_flat_ns = NsPerTuple(
        MeasureSeconds(reps, [&] { FlatScoreForest(sweep_flat_forest, batches,
                                                   &scorer, &flat_labels,
                                                   &flat_probs); }),
        sweep_data->num_tuples());
    sweep.push_back(row);
    sweep_table.AddRow({Fmt("%lld", static_cast<long long>(size)),
                        Fmt("%.1f", row.tree_pointer_ns),
                        Fmt("%.1f", row.tree_flat_ns),
                        Fmt("%.1f", row.forest_pointer_ns),
                        Fmt("%.1f", row.forest_flat_ns)});
  }
  std::printf("\nBatch-size sweep on F%d (ns/tuple):\n", sweep_function);
  sweep_table.Print();

  if (!config.out.empty()) {
    std::ofstream out(config.out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", config.out.c_str());
      return 1;
    }
    out << RunsToJson(config, runs, sweep, sweep_function, kServeBatch);
    if (!out.flush()) {
      std::fprintf(stderr, "write failed for %s\n", config.out.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu runs, %zu sweep rows)\n", config.out.c_str(),
                runs.size(), sweep.size());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace smptree

int main(int argc, char** argv) {
  return smptree::bench::Main(argc, argv);
}
