// smptree command-line tool: generate benchmark data, train classifiers,
// evaluate models, and export trees -- the full library workflow without
// writing C++.
//
//   smptree_cli gen   --function 7 --attrs 32 --tuples 100000
//                     --out data.csv --schema-out schema.txt
//   smptree_cli train --schema schema.txt --data data.csv --algorithm mwk
//                     --threads 4 --model model.tree [--prune cost] [--env disk]
//                     [--eval test.csv]
//   smptree_cli train-forest --schema schema.txt --data data.csv
//                     --trees 8 --threads 4 --model model.forest
//                     [--schedule trees-first|inner-first] [--eval test.csv]
//   smptree_cli train-stream --function 7 --tuples 1000000 --model model.tree
//                     [--warmup 2000] [--grace 200] [--delta 1e-6] [--tau 0.05]
//                     [--memory-budget BYTES] [--snapshot-every N]
//                     [--serve-port P] [--eval test.csv]
//   smptree_cli eval  --schema schema.txt --model model.tree --data test.csv
//   smptree_cli show  --schema schema.txt --model model.tree --format dot
//   smptree_cli predict --schema schema.txt --model model.tree
//                     --data tuples.csv --out labels.csv
//
// eval/predict accept tree and forest model files alike (the file's header
// line says which); `--eval test.csv` after train/train-forest scores the
// freshly written model on a held-out CSV.
//
// Exit status is 0 on success, 1 on any error (message on stderr).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/dot_export.h"
#include "serve/batch.h"
#include "serve/model_store.h"
#include "core/metrics.h"
#include "core/sql_export.h"
#include "core/tree_io.h"
#include "data/csv.h"
#include "data/schema_io.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "ensemble/forest_io.h"
#include "infer/batch_scorer.h"
#include "infer/flat_tree.h"
#include "serve/service.h"
#include "stream/hoeffding_builder.h"
#include "stream/stream_source.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {
namespace {

using Flags = std::map<std::string, std::string>;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Like SMPTREE_ASSIGN_OR_RETURN but for the int-returning CLI handlers:
/// prints the error and returns exit code 1.
#define SMPTREE_ASSIGN_OR_RETURN_CLI(lhs, expr)                        \
  SMPTREE_ASSIGN_OR_RETURN_CLI_IMPL_(SMPTREE_CONCAT_(_cli_, __LINE__), \
                                     lhs, expr)
#define SMPTREE_ASSIGN_OR_RETURN_CLI_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                       \
  if (!tmp.ok()) return Fail(tmp.status().ToString());     \
  lhs = std::move(tmp).value()

int Usage() {
  std::fprintf(stderr,
               "usage: smptree_cli <gen|train|train-forest|train-stream|"
               "eval|show|predict> [--flag value]...\n"
               "  gen:   --function N [--classes K] [--attrs A] [--tuples N]\n"
               "         [--seed S] [--noise P] --out DATA.csv [--schema-out F]\n"
               "  train: --schema F --data F --model F [--algorithm serial|\n"
               "         basic|fwk|mwk|subtree|rec] [--threads P] [--window K]\n"
               "         [--engine sorted|binned] [--max-bins B]\n"
               "         [--subroutine basic|mwk] [--prune none|pessimistic|cost]\n"
               "         [--env mem|disk] [--min-split N] [--max-levels N]\n"
               "         [--criterion gini|entropy]\n"
               "         [--trace-out F.json] [--stats-out F.json]\n"
               "         [--eval TEST.csv]\n"
               "  train-forest: train flags (minus rec/--trace-out) plus\n"
               "         [--trees T] [--schedule trees-first|inner-first]\n"
               "         [--concurrent-trees N] [--features-per-node M]\n"
               "         [--bootstrap 0|1] [--oob 0|1] [--forest-seed S]\n"
               "  train-stream: --model F, input from --schema F --data\n"
               "         SHARD[,SHARD...] (csv or binary shards) or the\n"
               "         generator (--function N [--attrs A] [--tuples N]\n"
               "         [--seed S] [--noise P]); knobs: [--max-bins B]\n"
               "         [--reservoir N] [--warmup N] [--grace N] [--delta D]\n"
               "         [--tau T] [--memory-budget BYTES] [--snapshot-every N]\n"
               "         [--criterion gini|entropy] [--batch N]\n"
               "         [--serve-port P (0 = ephemeral)] [--eval TEST.csv]\n"
               "  eval:  --schema F --model F --data F\n"
               "  show:  --schema F --model F [--format text|sql|dot]\n"
               "  predict: --schema F --model F --data F [--out F]\n");
  return 1;
}

Result<Flags> ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got '" + arg + "'");
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + arg + " needs a value");
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string GetFlag(const Flags& flags, const std::string& name,
                    const std::string& fallback = "") {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

Result<int64_t> IntFlag(const Flags& flags, const std::string& name,
                        int64_t fallback) {
  const std::string raw = GetFlag(flags, name);
  if (raw.empty()) return fallback;
  int64_t v = 0;
  if (!ParseInt64(raw, &v)) {
    return Status::InvalidArgument("flag --" + name + ": bad integer '" +
                                   raw + "'");
  }
  return v;
}

Result<double> DoubleFlag(const Flags& flags, const std::string& name,
                          double fallback) {
  const std::string raw = GetFlag(flags, name);
  if (raw.empty()) return fallback;
  double v = 0.0;
  if (!ParseDouble(raw, &v)) {
    return Status::InvalidArgument("flag --" + name + ": bad number '" +
                                   raw + "'");
  }
  return v;
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "serial") return Algorithm::kSerial;
  if (name == "basic") return Algorithm::kBasic;
  if (name == "fwk") return Algorithm::kFwk;
  if (name == "mwk") return Algorithm::kMwk;
  if (name == "subtree") return Algorithm::kSubtree;
  if (name == "rec") return Algorithm::kRecordParallel;
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << content;
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

int RunGen(const Flags& flags) {
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t function,
                               IntFlag(flags, "function", 1));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t classes, IntFlag(flags, "classes", 2));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t attrs, IntFlag(flags, "attrs", 9));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t tuples, IntFlag(flags, "tuples", 1000));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t seed, IntFlag(flags, "seed", 42));
  const std::string out_path = GetFlag(flags, "out");
  if (out_path.empty()) return Fail("gen needs --out");
  double noise = 0.0;
  if (!GetFlag(flags, "noise").empty() &&
      !ParseDouble(GetFlag(flags, "noise"), &noise)) {
    return Fail("bad --noise");
  }

  Result<Dataset> data = [&]() -> Result<Dataset> {
    if (classes > 2) {
      MulticlassConfig cfg;
      cfg.num_classes = static_cast<int>(classes);
      cfg.num_attrs = static_cast<int>(attrs);
      cfg.num_tuples = tuples;
      cfg.seed = static_cast<uint64_t>(seed);
      cfg.label_noise = noise;
      return GenerateMulticlassSynthetic(cfg);
    }
    SyntheticConfig cfg;
    cfg.function = static_cast<int>(function);
    cfg.num_attrs = static_cast<int>(attrs);
    cfg.num_tuples = tuples;
    cfg.seed = static_cast<uint64_t>(seed);
    cfg.label_noise = noise;
    return GenerateSynthetic(cfg);
  }();
  if (!data.ok()) return Fail(data.status().ToString());

  Status s = WriteCsv(*data, out_path);
  if (!s.ok()) return Fail(s.ToString());
  const std::string schema_out = GetFlag(flags, "schema-out");
  if (!schema_out.empty()) {
    s = WriteSchemaFile(data->schema(), schema_out);
    if (!s.ok()) return Fail(s.ToString());
  }
  std::printf("wrote %lld tuples to %s\n",
              static_cast<long long>(data->num_tuples()), out_path.c_str());
  return 0;
}

Result<Dataset> LoadData(const Flags& flags) {
  const std::string schema_path = GetFlag(flags, "schema");
  const std::string data_path = GetFlag(flags, "data");
  if (schema_path.empty() || data_path.empty()) {
    return Status::InvalidArgument("--schema and --data are required");
  }
  SMPTREE_ASSIGN_OR_RETURN(Schema schema, ReadSchemaFile(schema_path));
  return ReadCsv(schema, data_path);
}

/// Parses the training flags shared by `train` and `train-forest` into
/// ClassifierOptions (algorithm, threads, window, pruning, env, criterion).
Result<ClassifierOptions> ParseTrainOptions(const Flags& flags) {
  ClassifierOptions options;
  SMPTREE_ASSIGN_OR_RETURN(
      options.build.algorithm,
      ParseAlgorithm(GetFlag(flags, "algorithm", "mwk")));
  SMPTREE_ASSIGN_OR_RETURN(
      options.build.subtree_subroutine,
      ParseAlgorithm(GetFlag(flags, "subroutine", "basic")));
  SMPTREE_ASSIGN_OR_RETURN(int64_t threads, IntFlag(flags, "threads", 1));
  SMPTREE_ASSIGN_OR_RETURN(int64_t window, IntFlag(flags, "window", 4));
  SMPTREE_ASSIGN_OR_RETURN(int64_t min_split, IntFlag(flags, "min-split", 2));
  SMPTREE_ASSIGN_OR_RETURN(int64_t max_levels,
                           IntFlag(flags, "max-levels", 0));
  options.build.num_threads = static_cast<int>(threads);
  options.build.window = static_cast<int>(window);
  options.build.min_split = min_split;
  options.build.max_levels = static_cast<int>(max_levels);
  const std::string engine = GetFlag(flags, "engine", "sorted");
  if (engine == "binned") {
    options.build.engine = Engine::kBinned;
  } else if (engine != "sorted") {
    return Status::InvalidArgument("--engine must be sorted or binned");
  }
  SMPTREE_ASSIGN_OR_RETURN(int64_t max_bins, IntFlag(flags, "max-bins", 256));
  options.build.max_bins = static_cast<int>(max_bins);
  const std::string env_name = GetFlag(flags, "env", "mem");
  if (env_name == "disk") {
    options.build.env = Env::Posix();
  } else if (env_name != "mem") {
    return Status::InvalidArgument("--env must be mem or disk");
  }
  const std::string criterion = GetFlag(flags, "criterion", "gini");
  if (criterion == "entropy") {
    options.build.gini.criterion = SplitCriterion::kEntropy;
  } else if (criterion != "gini") {
    return Status::InvalidArgument("--criterion must be gini or entropy");
  }
  const std::string prune = GetFlag(flags, "prune", "none");
  if (prune == "pessimistic") {
    options.prune.method = PruneOptions::Method::kPessimistic;
  } else if (prune == "cost") {
    options.prune.method = PruneOptions::Method::kCostComplexity;
  } else if (prune != "none") {
    return Status::InvalidArgument(
        "--prune must be none, pessimistic or cost");
  }
  return options;
}

/// Scores every tuple of `data` against the model file through the
/// flattened inference engine -- the same compile + BatchScorer path the
/// serving workers use, so CLI numbers and served numbers come off one
/// code path. `*num_trees` gets the member count (1 for a tree).
Result<std::vector<ClassLabel>> FlatScoreDataset(
    const Schema& schema, const std::string& model_path, const Dataset& data,
    int* num_trees) {
  SMPTREE_ASSIGN_OR_RETURN(bool is_forest,
                           ModelStore::IsForestFile(model_path));
  const Batch batch = Batch::FromDataset(data, 0, data.num_tuples());
  std::vector<ClassLabel> labels(static_cast<size_t>(data.num_tuples()));
  BatchScorer scorer;
  if (is_forest) {
    SMPTREE_ASSIGN_OR_RETURN(Forest forest,
                             ModelStore::LoadForestFile(schema, model_path));
    *num_trees = forest.num_trees();
    scorer.ScoreForest(FlatForest::Compile(forest), batch, labels.data(),
                       /*probs=*/nullptr);
  } else {
    SMPTREE_ASSIGN_OR_RETURN(DecisionTree tree,
                             ModelStore::LoadTreeFile(schema, model_path));
    *num_trees = 1;
    scorer.ScoreTree(FlatTree::Compile(tree), batch, labels.data());
  }
  return labels;
}

/// `--eval test.csv` after train/train-forest (and the `eval` subcommand):
/// scores the model file on a labelled CSV -- accuracy + confusion matrix
/// through core/metrics, with the model kind sniffed from the file and the
/// scoring done by the flattened batch path.
int EvalModelOnData(const Schema& schema, const std::string& model_path,
                    const Dataset& test, const std::string& display_name) {
  int num_trees = 0;
  SMPTREE_ASSIGN_OR_RETURN_CLI(
      std::vector<ClassLabel> labels,
      FlatScoreDataset(schema, model_path, test, &num_trees));
  ConfusionMatrix cm(schema.num_classes());
  for (int64_t t = 0; t < test.num_tuples(); ++t) {
    cm.Add(test.label(t), labels[static_cast<size_t>(t)]);
  }
  if (num_trees > 1) {
    std::printf("eval %s (forest, %d trees): %lld tuples\n%s",
                display_name.c_str(), num_trees,
                static_cast<long long>(test.num_tuples()),
                cm.ToString(schema).c_str());
  } else {
    std::printf("eval %s (tree): %lld tuples\n%s", display_name.c_str(),
                static_cast<long long>(test.num_tuples()),
                cm.ToString(schema).c_str());
  }
  return 0;
}

int EvalModelOnCsv(const Schema& schema, const std::string& model_path,
                   const std::string& eval_path) {
  SMPTREE_ASSIGN_OR_RETURN_CLI(Dataset test, ReadCsv(schema, eval_path));
  return EvalModelOnData(schema, model_path, test, eval_path);
}

int RunTrain(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string model_path = GetFlag(flags, "model");
  if (model_path.empty()) return Fail("train needs --model");

  SMPTREE_ASSIGN_OR_RETURN_CLI(ClassifierOptions options,
                               ParseTrainOptions(flags));

  // Optional observability outputs: a Chrome trace of the build and/or the
  // BuildStats JSON summary (docs/OBSERVABILITY.md).
  const std::string trace_out = GetFlag(flags, "trace-out");
  const std::string stats_out = GetFlag(flags, "stats-out");
  TraceRecorder recorder;
  if (!trace_out.empty() || !stats_out.empty()) {
    options.build.trace = &recorder;
  }

  auto result = TrainClassifier(*data, options);
  if (!result.ok()) return Fail(result.status().ToString());
  Status s = WriteFile(model_path, SerializeTree(*result->tree));
  if (!s.ok()) return Fail(s.ToString());

  const TrainStats& stats = result->stats;
  std::printf(
      "trained %s on %lld tuples: %.3fs total "
      "(setup %.3f, sort %.3f, build %.3f, prune %.3f)\n"
      "tree: %lld nodes, %d levels; %lld pruned; training accuracy %.4f\n"
      "model written to %s\n",
      options.build.engine == Engine::kBinned
          ? "BINNED"
          : AlgorithmName(options.build.algorithm),
      static_cast<long long>(data->num_tuples()), stats.total_seconds,
      stats.setup_seconds, stats.sort_seconds, stats.build_seconds,
      stats.prune_seconds, static_cast<long long>(result->tree->num_nodes()),
      result->tree->Stats().levels,
      static_cast<long long>(stats.nodes_pruned),
      TreeAccuracy(*result->tree, *data), model_path.c_str());
  if (options.build.num_threads > 1 || !trace_out.empty() ||
      !stats_out.empty()) {
    std::printf(
        "phases (compute, summed over %d threads): E %.3fs, W %.3fs, "
        "S %.3fs, H %.3fs; blocked %.3fs (wait share %.1f%%)\n",
        options.build.num_threads, stats.e_phase_seconds,
        stats.w_phase_seconds, stats.s_phase_seconds, stats.h_phase_seconds,
        stats.wait_seconds, 100.0 * stats.build_stats.WaitShare());
  }
  if (!trace_out.empty()) {
    s = WriteFile(trace_out, recorder.ToChromeJson());
    if (!s.ok()) return Fail(s.ToString());
    std::printf("trace written to %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  if (!stats_out.empty()) {
    s = WriteFile(stats_out, stats.build_stats.ToJson() + "\n");
    if (!s.ok()) return Fail(s.ToString());
    std::printf("build stats written to %s\n", stats_out.c_str());
  }
  const std::string eval_path = GetFlag(flags, "eval");
  if (!eval_path.empty()) {
    return EvalModelOnCsv(data->schema(), model_path, eval_path);
  }
  return 0;
}

/// `train-stream`: incremental Hoeffding-tree training (stream/) from either
/// the Agrawal generator or sharded on-disk data, with optional live serving
/// -- `--serve-port P` starts the full InferenceService and hot-publishes a
/// snapshot into its ModelStore every `--snapshot-every` tuples, so /v1/predict
/// answers with the current tree while training is still running and /statz
/// carries a live "stream" section.
int RunTrainStream(const Flags& flags) {
  const std::string model_path = GetFlag(flags, "model");
  if (model_path.empty()) return Fail("train-stream needs --model");

  // Input: disk shards when --schema is given, the generator otherwise.
  std::unique_ptr<StreamSource> source;
  const std::string schema_path = GetFlag(flags, "schema");
  if (!schema_path.empty()) {
    SMPTREE_ASSIGN_OR_RETURN_CLI(Schema schema, ReadSchemaFile(schema_path));
    const std::string data = GetFlag(flags, "data");
    if (data.empty()) return Fail("train-stream with --schema needs --data");
    SMPTREE_ASSIGN_OR_RETURN_CLI(
        std::unique_ptr<DiskStreamSource> disk,
        DiskStreamSource::Open(schema, SplitString(data, ',')));
    source = std::move(disk);
  } else {
    SyntheticConfig cfg;
    SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t function,
                                 IntFlag(flags, "function", 1));
    SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t attrs, IntFlag(flags, "attrs", 9));
    SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t tuples,
                                 IntFlag(flags, "tuples", 100000));
    SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t seed, IntFlag(flags, "seed", 42));
    SMPTREE_ASSIGN_OR_RETURN_CLI(double noise, DoubleFlag(flags, "noise", 0));
    cfg.function = static_cast<int>(function);
    cfg.num_attrs = static_cast<int>(attrs);
    cfg.num_tuples = tuples;
    cfg.seed = static_cast<uint64_t>(seed);
    cfg.label_noise = noise;
    source = std::make_unique<SyntheticStreamSource>(cfg);
  }

  HoeffdingOptions options;
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t max_bins,
                               IntFlag(flags, "max-bins", 64));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t reservoir,
                               IntFlag(flags, "reservoir", 2048));
  SMPTREE_ASSIGN_OR_RETURN_CLI(options.warmup_tuples,
                               IntFlag(flags, "warmup", 2000));
  SMPTREE_ASSIGN_OR_RETURN_CLI(options.grace_period,
                               IntFlag(flags, "grace", 200));
  SMPTREE_ASSIGN_OR_RETURN_CLI(options.delta,
                               DoubleFlag(flags, "delta", 1e-6));
  SMPTREE_ASSIGN_OR_RETURN_CLI(options.tau, DoubleFlag(flags, "tau", 0.05));
  SMPTREE_ASSIGN_OR_RETURN_CLI(
      int64_t budget,
      IntFlag(flags, "memory-budget", int64_t{64} << 20));
  SMPTREE_ASSIGN_OR_RETURN_CLI(options.snapshot_every,
                               IntFlag(flags, "snapshot-every", 0));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t sketch_seed,
                               IntFlag(flags, "sketch-seed", 1));
  options.max_bins = static_cast<int>(max_bins);
  options.reservoir_size = static_cast<int>(reservoir);
  options.memory_budget_bytes = static_cast<uint64_t>(budget);
  options.seed = static_cast<uint64_t>(sketch_seed);
  const std::string criterion = GetFlag(flags, "criterion", "gini");
  if (criterion == "entropy") {
    options.gini.criterion = SplitCriterion::kEntropy;
  } else if (criterion != "gini") {
    return Fail("--criterion must be gini or entropy");
  }
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t serve_port,
                               IntFlag(flags, "serve-port", -1));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t batch_size, IntFlag(flags, "batch",
                                                           1024));
  if (batch_size < 1) return Fail("--batch must be >= 1");

  // Declared before the builder so the publish hook (which captures it by
  // reference) stays valid for the builder's whole life; filled in below,
  // after Init, once there is a tree to seed the store with. Until then the
  // hook is a no-op.
  std::unique_ptr<InferenceService> service;
  const bool serving = serve_port >= 0;
  if (serving) {
    if (options.snapshot_every == 0) options.snapshot_every = 10000;
    options.publish = [&service](DecisionTree&& snapshot, int64_t tuples) {
      if (service == nullptr) return Status::OK();
      // lint: atomic-order(InferenceService::store() is an accessor)
      return service->store().Install(
          std::move(snapshot),
          StringPrintf("train-stream@%lld",
                       static_cast<long long>(tuples)));
    };
  }

  HoeffdingTreeBuilder builder(source->schema(), options);
  Status s = builder.Init();
  if (!s.ok()) return Fail(s.ToString());

  if (serving) {
    SMPTREE_ASSIGN_OR_RETURN_CLI(std::unique_ptr<ModelStore> store,
                                 ModelStore::Create(builder.Snapshot()));
    ServiceOptions service_options;
    service_options.http.port = static_cast<uint16_t>(serve_port);
    service_options.stream_stats = [&builder] { return builder.StatsJson(); };
    service = std::make_unique<InferenceService>(std::move(store),
                                                 std::move(service_options));
    s = service->Start();
    if (!s.ok()) return Fail(s.ToString());
    std::printf("serving on port %u while training "
                "(hot-publish every %lld tuples)\n",
                service->port(),
                static_cast<long long>(options.snapshot_every));
    // Scripts parse the port from redirected output while training runs.
    std::fflush(stdout);
  }

  Timer timer;
  StreamBatch batch;
  while (true) {
    auto delivered = source->NextBatch(batch_size, &batch);
    if (!delivered.ok()) return Fail(delivered.status().ToString());
    if (*delivered == 0) break;
    s = builder.Ingest(batch);
    if (!s.ok()) return Fail(s.ToString());
  }
  s = builder.Finish();
  if (!s.ok()) return Fail(s.ToString());
  const double seconds = timer.Seconds();

  s = WriteFile(model_path, SerializeTree(builder.tree()));
  if (!s.ok()) return Fail(s.ToString());

  const StreamStats stats = builder.Stats();
  std::printf(
      "streamed %lld tuples in %.3fs (%.0f tuples/s)\n"
      "tree: %lld nodes, %lld splits; %lld active + %lld deactivated "
      "leaves\n"
      "memory: %s sketch, %s leaf histograms; %lld snapshots published\n"
      "model written to %s\n",
      static_cast<long long>(stats.tuples), seconds,
      seconds > 0 ? static_cast<double>(stats.tuples) / seconds : 0.0,
      static_cast<long long>(stats.nodes),
      static_cast<long long>(stats.splits),
      static_cast<long long>(stats.active_leaves),
      static_cast<long long>(stats.deactivated_leaves),
      HumanBytes(stats.sketch_bytes).c_str(),
      HumanBytes(stats.histogram_bytes).c_str(),
      static_cast<long long>(stats.snapshots), model_path.c_str());
  if (service != nullptr) service->Stop();

  const std::string eval_path = GetFlag(flags, "eval");
  if (!eval_path.empty()) {
    return EvalModelOnCsv(source->schema(), model_path, eval_path);
  }
  return 0;
}

int RunTrainForest(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string model_path = GetFlag(flags, "model");
  if (model_path.empty()) return Fail("train-forest needs --model");

  ForestOptions options;
  SMPTREE_ASSIGN_OR_RETURN_CLI(options.tree, ParseTrainOptions(flags));
  // --threads is the forest-wide budget; the planner decides how much of it
  // each member build gets.
  options.num_threads = options.tree.build.num_threads;
  options.tree.build.num_threads = 1;
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t trees, IntFlag(flags, "trees", 10));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t features,
                               IntFlag(flags, "features-per-node", 0));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t bootstrap,
                               IntFlag(flags, "bootstrap", 1));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t oob, IntFlag(flags, "oob", 1));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t seed,
                               IntFlag(flags, "forest-seed", 42));
  SMPTREE_ASSIGN_OR_RETURN_CLI(int64_t concurrent,
                               IntFlag(flags, "concurrent-trees", 0));
  options.num_trees = static_cast<int>(trees);
  options.features_per_node = static_cast<int>(features);
  options.bootstrap = bootstrap != 0;
  options.oob = oob != 0;
  options.seed = static_cast<uint64_t>(seed);
  options.concurrent_trees = static_cast<int>(concurrent);
  const std::string schedule = GetFlag(flags, "schedule", "trees-first");
  if (schedule == "trees-first") {
    options.schedule = ForestSchedule::kTreesFirst;
  } else if (schedule == "inner-first") {
    options.schedule = ForestSchedule::kInnerFirst;
  } else {
    return Fail("--schedule must be trees-first or inner-first");
  }

  auto result = TrainForest(*data, options);
  if (!result.ok()) return Fail(result.status().ToString());
  Status s = WriteFile(model_path, SerializeForest(*result->forest));
  if (!s.ok()) return Fail(s.ToString());

  const ForestTrainStats& stats = result->stats;
  const ForestStats shape = result->forest->Stats();
  std::printf(
      "trained forest of %d trees (%s inner, schedule %s: %d concurrent x "
      "%d inner threads) on %lld tuples in %.3fs\n"
      "forest: %lld nodes, mean depth %.1f, max depth %d\n",
      result->forest->num_trees(),
      AlgorithmName(options.tree.build.algorithm),
      ForestScheduleName(options.schedule), stats.split.concurrent_trees,
      stats.split.inner_threads, static_cast<long long>(data->num_tuples()),
      stats.total_seconds, static_cast<long long>(shape.total_nodes),
      shape.mean_levels, shape.max_levels);
  if (stats.oob_accuracy >= 0.0) {
    std::printf("oob accuracy: %.4f over %lld out-of-bag tuples\n",
                stats.oob_accuracy,
                static_cast<long long>(stats.oob_tuples));
  }
  std::printf("model written to %s\n", model_path.c_str());

  const std::string stats_out = GetFlag(flags, "stats-out");
  if (!stats_out.empty()) {
    s = WriteFile(stats_out, stats.build_stats.ToJson() + "\n");
    if (!s.ok()) return Fail(s.ToString());
    std::printf("build stats written to %s\n", stats_out.c_str());
  }
  const std::string eval_path = GetFlag(flags, "eval");
  if (!eval_path.empty()) {
    return EvalModelOnCsv(data->schema(), model_path, eval_path);
  }
  return 0;
}

Result<DecisionTree> LoadModel(const Flags& flags, const Schema& schema) {
  const std::string model_path = GetFlag(flags, "model");
  if (model_path.empty()) {
    return Status::InvalidArgument("--model is required");
  }
  SMPTREE_ASSIGN_OR_RETURN(std::string text, ReadFile(model_path));
  return DeserializeTree(schema, text);
}

int RunEval(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string model_path = GetFlag(flags, "model");
  if (model_path.empty()) return Fail("eval needs --model");
  return EvalModelOnData(data->schema(), model_path, *data, model_path);
}

int RunShow(const Flags& flags) {
  const std::string schema_path = GetFlag(flags, "schema");
  if (schema_path.empty()) return Fail("show needs --schema");
  auto schema = ReadSchemaFile(schema_path);
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto tree = LoadModel(flags, *schema);
  if (!tree.ok()) return Fail(tree.status().ToString());

  const std::string format = GetFlag(flags, "format", "text");
  if (format == "text") {
    std::printf("%s", tree->ToString().c_str());
  } else if (format == "sql") {
    std::printf("%s\n", TreeToSqlCase(*tree).c_str());
  } else if (format == "dot") {
    std::printf("%s", TreeToDot(*tree).c_str());
  } else {
    return Fail("--format must be text, sql or dot");
  }
  return 0;
}

int RunPredict(const Flags& flags) {
  // Scores a CSV with the model and writes one predicted class name per
  // line. Loads the model through ModelStore (the same validated load path
  // the inference server uses) and scores it through the same flattened
  // BatchScorer the serving workers run, so a model that serves is exactly
  // a model this subcommand accepts and predicts identically. The input
  // uses the standard CSV layout; its label column is ignored.
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string model_path = GetFlag(flags, "model");
  if (model_path.empty()) return Fail("predict needs --model");
  int num_trees = 0;
  SMPTREE_ASSIGN_OR_RETURN_CLI(
      std::vector<ClassLabel> labels,
      FlatScoreDataset(data->schema(), model_path, *data, &num_trees));

  std::string out = "class\n";
  for (int64_t t = 0; t < data->num_tuples(); ++t) {
    out += data->schema().class_name(labels[static_cast<size_t>(t)]);
    out += "\n";
  }
  const std::string out_path = GetFlag(flags, "out");
  if (out_path.empty()) {
    std::printf("%s", out.c_str());
    return 0;
  }
  Status s = WriteFile(out_path, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("wrote %lld predictions to %s\n",
              static_cast<long long>(data->num_tuples()), out_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (!flags.ok()) {
    Fail(flags.status().ToString());
    return Usage();
  }
  if (command == "gen") return RunGen(*flags);
  if (command == "train") return RunTrain(*flags);
  if (command == "train-forest") return RunTrainForest(*flags);
  if (command == "train-stream") return RunTrainStream(*flags);
  if (command == "eval") return RunEval(*flags);
  if (command == "show") return RunShow(*flags);
  if (command == "predict") return RunPredict(*flags);
  return Usage();
}

}  // namespace
}  // namespace smptree

int main(int argc, char** argv) { return smptree::Main(argc, argv); }
