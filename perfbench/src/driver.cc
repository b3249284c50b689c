// perfbench_driver: runs ONE workload of the end-to-end benchmark in this
// process -- generate data -> train -> serialize -> deploy into a live
// InferenceService -> serve /v1/predict over loopback HTTP -- and prints one
// JSON object with the run's metrics, its correctness counts, a host record
// per phase and, with --trace 1, the per-layer breakdown. perfbench/run.py
// builds and invokes it; see perfbench/README.md for the metric contract.
//
// Every layer number is measured from here, around calls into the public
// API of each module; nothing inside the library is instrumented. Counters
// the library already returns (TrainStats, BuildStats, EngineStats,
// StreamStats) are read as-is.
//
// Thread budget (4 cores): a timed phase never has more runnable threads
// than cores. Training uses 4 threads with the server idle; serving uses one
// blocking client connection, so client -> event loop -> dispatch worker ->
// engine worker is a chain with one link busy at a time; on stream-publish
// the single-threaded trainer runs beside that chain.

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/tree.h"
#include "core/tree_io.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "ensemble/forest_io.h"
#include "infer/batch_scorer.h"
#include "infer/flat_tree.h"
#include "load.h"
#include "measure.h"
#include "serve/batch.h"
#include "serve/engine.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/model_store.h"
#include "serve/service.h"
#include "stream/hoeffding_builder.h"
#include "stream/stream_source.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using smptree::Batch;
using smptree::BatchScorer;
using smptree::ClassLabel;
using smptree::Dataset;
using smptree::DecisionTree;
using smptree::Forest;
using smptree::InferenceService;
using smptree::JsonNumber;
using smptree::JsonQuote;
using smptree::ModelStore;
using smptree::Result;
using smptree::Schema;
using smptree::ServingModelPtr;
using smptree::Status;

// ---------------------------------------------------------------------------
// Workloads. Agrawal F7 over 32 attributes is the paper's F7-A32 family.
// The open-loop rates are fixed numbers at about a tenth of each workload's
// quiet closed-loop capacity on the 4-vCPU reference host: at a third, a
// burst of host steal halved capacity and the backlog swamped p50.

enum class Kind : unsigned char { kExact, kForest, kStream };

struct Workload {
  std::string name;
  Kind kind = Kind::kExact;
  int64_t train_tuples = 0;    ///< batch training set, or tuples streamed
  int64_t test_tuples = 0;     ///< held-out set (accuracy, request bodies)
  int64_t request_tuples = 0;  ///< tuples per /v1/predict
  int64_t bodies = 0;          ///< distinct request bodies, cycled
  double open_rate_rps = 0.0;  ///< fixed open-loop offered rate
  int num_trees = 0;           ///< forest members
  int64_t publish_every = 0;   ///< stream: tuples between publishes
};

constexpr int kFunction = 7;
constexpr int kAttrs = 32;
constexpr int kTrainThreads = 4;
constexpr int kSetupReps = 3;
constexpr double kTimeoutS = 1.0;
constexpr int64_t kStreamBatch = 1000;

std::optional<Workload> MakeWorkload(const std::string& name, bool toy) {
  Workload w;
  w.name = name;
  if (name == "exact-mwk") {
    // The paper's own setup: F7-A32-D250K, sorted engine, MWK, window 4,
    // P=4 on the in-memory Env. One tree, served one tuple per request.
    w.kind = Kind::kExact;
    w.train_tuples = toy ? 20000 : 250000;
    w.test_tuples = toy ? 4000 : 50000;
    w.request_tuples = 1;
    w.bodies = 2048;
    w.open_rate_rps = 1000;
  } else if (name == "forest-binned") {
    // 15-member bagged forest, binned engine, trees-first on 4 threads;
    // served 256 tuples per request.
    w.kind = Kind::kForest;
    w.train_tuples = toy ? 10000 : 100000;
    w.test_tuples = toy ? 4000 : 50000;
    w.request_tuples = 256;
    w.bodies = 64;
    w.open_rate_rps = 60;
    w.num_trees = 15;
  } else if (name == "stream-publish") {
    // Hoeffding tree over a synthetic stream, hot-publishing into the
    // live ModelStore about 100 times while a client keeps predicting.
    w.kind = Kind::kStream;
    w.train_tuples = toy ? 100000 : 2000000;
    w.test_tuples = toy ? 4000 : 50000;
    w.request_tuples = 8;
    w.bodies = 1024;
    w.open_rate_rps = 600;
    w.publish_every = w.train_tuples / 100;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string workdir = ".";
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

/// Repeats `fn` at least `min_reps` times and until `min_seconds` have
/// passed, returning each repetition's milliseconds.
template <typename Fn>
std::vector<double> RepeatMs(int min_reps, double min_seconds, Fn fn) {
  std::vector<double> ms;
  const double start = NowSeconds();
  while (static_cast<int>(ms.size()) < min_reps ||
         (NowSeconds() - start < min_seconds && ms.size() < 2000)) {
    const double t0 = NowSeconds();
    fn();
    ms.push_back((NowSeconds() - t0) * 1e3);
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Inputs.

/// The held-out set comes from a seed no training input uses.
uint64_t HeldOutSeed(uint64_t seed) { return seed + 0x9E3779B97F4A7C15ull; }

std::string PredictBody(const Dataset& data, int64_t begin, int64_t count) {
  std::string body = "{\"tuples\": [";
  for (int64_t t = 0; t < count; ++t) {
    if (t > 0) body += ",";
    body += "[";
    for (int a = 0; a < data.num_attrs(); ++a) {
      if (a > 0) body += ",";
      const smptree::AttrValue v = data.value(begin + t, a);
      if (data.schema().attr(a).is_categorical()) {
        body += smptree::StringPrintf("%d", v.cat);
      } else {
        body += smptree::StringPrintf("%.9g", static_cast<double>(v.f));
      }
    }
    body += "]";
  }
  return body + "]}";
}

struct Inputs {
  std::optional<Dataset> train;  ///< empty for the stream workload
  Dataset test;
  RequestSet requests;
};

Inputs GenerateInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  smptree::SyntheticConfig config;
  config.function = kFunction;
  config.num_attrs = kAttrs;
  if (w.kind != Kind::kStream) {
    config.num_tuples = w.train_tuples;
    config.seed = seed;
    in.train = Check(smptree::GenerateSynthetic(config), "generate train");
  }
  config.num_tuples = w.test_tuples;
  config.seed = HeldOutSeed(seed);
  in.test = Check(smptree::GenerateSynthetic(config), "generate held-out");
  for (int64_t b = 0; b < w.bodies; ++b) {
    const int64_t first =
        (b * w.request_tuples) % (w.test_tuples - w.request_tuples + 1);
    in.requests.first_row.push_back(first);
    in.requests.bodies.push_back(PredictBody(in.test, first, w.request_tuples));
  }
  return in;
}

/// The model a fresh server holds before the workload's own is deployed:
/// a single leaf. Its epoch-1 answers are verified like any other.
DecisionTree PlaceholderTree(const Schema& schema) {
  DecisionTree tree(schema);
  smptree::ClassHistogram counts(schema.num_classes());
  counts.Add(0);
  tree.CreateRoot(counts);
  return tree;
}

// CPU placement. The whole serving side -- event loop, dispatch worker,
// engine worker and the benchmark's client -- shares the last CPU. With one
// blocking connection that chain runs one link at a time anyway, and on one
// CPU each hop is a local context switch; spread over CPUs every hop wakes
// an idle vCPU, which on a virtual machine costs a hypervisor round trip
// that grows with host load (it cut closed-loop throughput 2-5x under
// steal). Training uses every CPU while serving is idle; the stream trainer
// keeps to the CPUs serving does not use. Threads inherit the placement of
// the thread that creates them.
enum class Placement : unsigned char { kAll, kServing, kTraining };

void Place(Placement placement) {
  const int cpus = OnlineCpus();
  const int serving = cpus - 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < cpus; ++c) {
    const bool use = placement == Placement::kAll ||
                     (placement == Placement::kServing) == (c == serving) ||
                     cpus == 1;
    if (use) CPU_SET(c, &set);
  }
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    Die("cannot set CPU affinity");
  }
}

smptree::ServiceOptions ServeOptions() {
  smptree::ServiceOptions options;
  options.engine.num_workers = 1;
  options.http.num_threads = 1;
  options.http.port = 0;
  return options;
}

// ---------------------------------------------------------------------------
// One run.

/// Repetitions of the whole train -> deploy -> first-answer flow in a run;
/// time_to_serve_s is their median, so one burst of host interference
/// during one training does not decide the figure.
constexpr int kFlowReps = 3;

/// One repetition of the flow: its duration and the layer components of it.
struct Flow {
  double seconds = 0.0;
  std::map<std::string, double> parts;
};

class Runner {
 public:
  Runner(Options options, Workload workload)
      : opt_(std::move(options)), w_(std::move(workload)) {}

  void Run();
  void Print() const;

 private:
  void Setup();
  Flow BatchFlow();
  Flow StreamFlow();
  /// Pushes the model file repeatedly: Reload samples go to deploy_ms_;
  /// traced runs also time LoadTreeFile/LoadForestFile, Compile and
  /// Install on each round, under the same conditions.
  void DeployBurst(const std::string& path, bool reload);
  void ServeOpenLoop(double seconds);
  void ServeClosedLoop(double seconds);
  void TraceReplay();
  void ZeroUnusedLayers();
  void Finish();
  /// Build-side layer metrics from the counters training returns; for a
  /// forest the member figures are summed (members overlap in time).
  void RecordBuild(std::span<const smptree::TrainStats> members,
                   const smptree::BuildStats& build);
  void Verify(const LoadResult& load, const char* phase);
  void FirstVerifiedPredict(int64_t epoch);
  void Remember(const ServingModelPtr& model) { models_[model->epoch] = model; }
  /// Drops every kept snapshot except `epoch` (after its answers are
  /// verified), so kept snapshots do not pile up across repetitions.
  void ForgetAllBut(int64_t epoch);
  const std::vector<int32_t>& Expected(int64_t epoch, int32_t body);
  void Fail(const std::string& message);
  std::string ModelPath() const;
  /// `full` seconds, or a tenth of it at toy size.
  double Budget(double full) const { return opt_.toy ? full / 10 : full; }

  const Options opt_;
  const Workload w_;
  MetricTable e2e_;
  MetricTable layer_;
  std::vector<PhaseRecord> phases_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;

  Inputs in_;
  std::unique_ptr<InferenceService> service_;
  std::map<int64_t, ServingModelPtr> models_;
  std::map<std::pair<int64_t, int32_t>, std::vector<int32_t>> expected_;

  // Raw samples, pooled over the run.
  std::vector<Flow> flows_;
  std::vector<double> deploy_ms_;
  std::vector<double> load_ms_, compile_ms_, install_ms_;
  std::vector<double> snapshot_ms_, publish_install_ms_;
  std::vector<double> cpu_us_per_tuple_;
  std::vector<double> closed_windows_;
  std::vector<double> open_latency_ms_;
  std::vector<double> lateness_ms_;
  int64_t open_switches_ = 0, open_answers_ = 0;
  int64_t requests_ = 0, dropped_ = 0, timeouts_ = 0;
  /// Requests attempted / failed / dropped / timed out, by phase name.
  std::map<std::string, std::array<int64_t, 4>> phase_requests_;
  std::map<std::string, std::map<std::string, double>> parts_;

  std::vector<double> calibration_ms_{CalibrationMs()};
  double run_start_ = NowSeconds();
  double cpu_start_ = ProcessCpuSeconds();
  CpuJiffies jiffies_start_ = ReadCpuJiffies();
};

void Runner::Fail(const std::string& message) {
  if (failures_.size() < 20) failures_.push_back(message);
  ++failed_;
}

std::string Runner::ModelPath() const {
  return opt_.workdir + "/model-" + w_.name + "-" +
         std::to_string(static_cast<long long>(getpid())) + ".bin";
}

void Runner::ForgetAllBut(int64_t epoch) {
  ServingModelPtr keep = models_.at(epoch);
  models_.clear();
  expected_.clear();
  Remember(keep);
}

const std::vector<int32_t>& Runner::Expected(int64_t epoch, int32_t body) {
  const auto key = std::make_pair(epoch, body);
  auto it = expected_.find(key);
  if (it != expected_.end()) return it->second;
  std::vector<int32_t> codes;
  const ServingModelPtr& model = models_.at(epoch);
  const int64_t first = in_.requests.first_row[static_cast<size_t>(body)];
  for (int64_t t = 0; t < w_.request_tuples; ++t) {
    codes.push_back(model->Classify(in_.test.Tuple(first + t)));
  }
  return expected_.emplace(key, std::move(codes)).first->second;
}

void Runner::Verify(const LoadResult& load, const char* phase) {
  attempted_ += load.attempted;
  requests_ += load.attempted;
  dropped_ += load.dropped;
  timeouts_ += load.timeouts;
  const int64_t failed_before = failed_;
  if (load.errors > 0) {
    failed_ += load.errors;
    if (failures_.size() < 20) {
      failures_.push_back(std::string(phase) + ": " +
                          std::to_string(load.errors) + " failed requests");
    }
  }
  for (const Answer& a : load.answers) {
    if (models_.count(a.epoch) == 0) {
      Fail(std::string(phase) + ": answer from unknown epoch " +
           std::to_string(a.epoch));
    } else if (a.codes != Expected(a.epoch, a.body)) {
      Fail(std::string(phase) + ": label mismatch on body " +
           std::to_string(a.body) + " epoch " + std::to_string(a.epoch));
    }
  }
  std::array<int64_t, 4>& counts = phase_requests_[phase];
  counts[0] += load.attempted;
  counts[1] += failed_ - failed_before;
  counts[2] += load.dropped;
  counts[3] += load.timeouts;
}

void Runner::FirstVerifiedPredict(int64_t epoch) {
  smptree::HttpClientConnection conn("127.0.0.1", service_->port());
  ++attempted_;
  ++requests_;
  auto response = conn.Call("POST", "/v1/predict", in_.requests.bodies[0]);
  Answer a;
  std::array<int64_t, 4>& counts = phase_requests_["first_predict"];
  ++counts[0];
  if (!response.ok() || response->status != 200 ||
      !ParseAnswer(response->body, &a.epoch, &a.codes)) {
    Fail("first predict failed");
    ++counts[1];
  } else if (a.epoch != epoch || a.codes != Expected(epoch, 0)) {
    Fail("first predict not answered correctly by the final model");
    ++counts[1];
  }
}

void Runner::Setup() {
  // Single-threaded input generation plus server start, repeated; the
  // last repetition's inputs and server are the ones the run uses.
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (service_ != nullptr) {
      service_->Stop();
      service_.reset();
    }
    PhaseScope phase("setup", &phases_);
    const double t0 = NowSeconds();
    in_ = GenerateInputs(w_, opt_.seed);
    const double t1 = NowSeconds();
    auto store = Check(ModelStore::Create(PlaceholderTree(in_.test.schema())),
                       "create store");
    Place(Placement::kServing);
    service_ = std::make_unique<InferenceService>(std::move(store),
                                                  ServeOptions());
    Check(service_->Start(), "start service");
    Place(Placement::kAll);
    setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(t1 - t0);
  }
  Remember(service_->store().Current());
  e2e_.Set("setup_s", Median(setup_s), "s");
  layer_.Set("data.generate_s", Median(generate_s), "s");
  parts_["setup_s"]["data.generate_s"] = Median(generate_s);
}

void Runner::RecordBuild(std::span<const smptree::TrainStats> members,
                         const smptree::BuildStats& build) {
  double attr_lists = 0, presort = 0, build_s = 0;
  uint64_t read = 0, written = 0;
  for (const smptree::TrainStats& st : members) {
    attr_lists += st.setup_seconds;
    presort += st.sort_seconds;
    build_s += st.build_seconds;
    read += st.records_read;
    written += st.records_written;
  }
  layer_.Set("core.attr_lists_s", attr_lists, "s");
  layer_.Set("core.presort_s", presort, "s");
  layer_.Set("parallel.build_s", build_s, "s");
  layer_.Set("parallel.e_cpu_s", static_cast<double>(build.e_nanos) / 1e9, "s");
  layer_.Set("parallel.w_cpu_s", static_cast<double>(build.w_nanos) / 1e9, "s");
  layer_.Set("parallel.s_cpu_s", static_cast<double>(build.s_nanos) / 1e9, "s");
  layer_.Set("parallel.wait_share", build.WaitShare(), "ratio");
  layer_.Set("parallel.barrier_waits", static_cast<double>(build.barrier_waits),
             "count");
  layer_.Set("parallel.condvar_waits", static_cast<double>(build.condvar_waits),
             "count");
  layer_.Set("storage.records_read", static_cast<double>(read), "count");
  layer_.Set("storage.records_written", static_cast<double>(written), "count");
  layer_.Set("binned.h_cpu_s", static_cast<double>(build.h_nanos) / 1e9, "s");
  layer_.Set("binned.bins_scanned", static_cast<double>(build.bins_scanned),
             "count");
}

Flow Runner::BatchFlow() {
  ModelStore& store = service_->store();
  const std::string path = ModelPath();
  Flow flow;
  PhaseScope phase("train_deploy", &phases_);
  const double t0 = NowSeconds();
  std::string bytes;
  if (w_.kind == Kind::kExact) {
    smptree::ClassifierOptions options;
    options.build.algorithm = smptree::Algorithm::kMwk;
    options.build.engine = smptree::Engine::kSorted;
    options.build.num_threads = kTrainThreads;
    options.build.window = 4;
    auto result = Check(smptree::TrainClassifier(*in_.train, options), "train");
    const double ts = NowSeconds();
    bytes = smptree::SerializeTree(*result.tree);
    flow.parts["io.serialize_s"] = NowSeconds() - ts;
    const smptree::TrainStats& st = result.stats;
    RecordBuild({&st, 1}, st.build_stats);
    flow.parts["core.attr_lists_s"] = st.setup_seconds;
    flow.parts["core.presort_s"] = st.sort_seconds;
    flow.parts["parallel.build_s"] = st.build_seconds;
    flow.parts["core.prune_s"] = st.prune_seconds;
  } else {
    smptree::ForestOptions options;
    options.num_trees = w_.num_trees;
    options.seed = opt_.seed;
    options.num_threads = kTrainThreads;
    options.schedule = smptree::ForestSchedule::kTreesFirst;
    options.oob = false;
    options.tree.build.engine = smptree::Engine::kBinned;
    auto result = Check(smptree::TrainForest(*in_.train, options), "train");
    const double ts = NowSeconds();
    bytes = smptree::SerializeForest(*result.forest);
    flow.parts["io.serialize_s"] = NowSeconds() - ts;
    RecordBuild(result.stats.trees, result.stats.build_stats);
    layer_.Set("ensemble.build_s", result.stats.total_seconds, "s");
    layer_.Set("ensemble.nodes",
               static_cast<double>(result.forest->total_nodes()), "count");
    flow.parts["ensemble.build_s"] = result.stats.total_seconds;
  }

  const double tw = NowSeconds();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    if (!out.good()) Die("cannot write " + path);
  }
  flow.parts["io.write_s"] = NowSeconds() - tw;
  const double tr = NowSeconds();
  Check(store.Reload(path), "deploy");
  flow.parts["serve.reload_s"] = NowSeconds() - tr;
  Remember(store.Current());
  const double tp = NowSeconds();
  FirstVerifiedPredict(store.epoch());
  const double t1 = NowSeconds();
  flow.parts["serve.first_predict_s"] = t1 - tp;
  flow.seconds = t1 - t0;
  layer_.Set("io.model_bytes", static_cast<double>(bytes.size()), "bytes");
  phase.End();
  ForgetAllBut(store.epoch());
  DeployBurst(path, /*reload=*/true);
  return flow;
}

void Runner::DeployBurst(const std::string& path, bool reload) {
  ModelStore& store = service_->store();
  const Schema& schema = store.schema();
  const bool forest = store.Current()->kind == smptree::ModelKind::kForest;
  PhaseScope phase("deploy", &phases_);
  const double start = NowSeconds();
  for (int rep = 0; rep < 5 || NowSeconds() - start < Budget(0.4); ++rep) {
    if (reload) {
      const double t0 = NowSeconds();
      Check(store.Reload(path), "redeploy");
      deploy_ms_.push_back((NowSeconds() - t0) * 1e3);
    }
    if (!opt_.trace) continue;
    const double t0 = NowSeconds();
    if (forest) {
      Forest f = Check(ModelStore::LoadForestFile(schema, path), "load");
      const double t1 = NowSeconds();
      smptree::FlatForest::Compile(f);
      const double t2 = NowSeconds();
      Check(store.InstallForest(std::move(f), path), "install");
      load_ms_.push_back((t1 - t0) * 1e3);
      compile_ms_.push_back((t2 - t1) * 1e3);
      install_ms_.push_back((NowSeconds() - t2) * 1e3);
    } else {
      DecisionTree t = Check(ModelStore::LoadTreeFile(schema, path), "load");
      const double t1 = NowSeconds();
      smptree::FlatTree::Compile(t);
      const double t2 = NowSeconds();
      Check(store.Install(std::move(t), path), "install");
      load_ms_.push_back((t1 - t0) * 1e3);
      compile_ms_.push_back((t2 - t1) * 1e3);
      install_ms_.push_back((NowSeconds() - t2) * 1e3);
    }
  }
  Remember(store.Current());
  ForgetAllBut(store.epoch());
}

void Runner::ServeOpenLoop(double seconds) {
  const uint16_t port = service_->port();
  {
    // Warm-up: fills caches and the server's lazy state; verified but not
    // timed.
    PhaseScope phase("warmup", &phases_);
    LoadResult warm;
    std::thread client([&] {
      Place(Placement::kServing);
      warm = RunClosedLoop(port, in_.requests, Budget(0.2), 0.1);
    });
    client.join();
    Verify(warm, "warmup");
  }
  PhaseScope phase("open_loop", &phases_);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> progress{0};
  LoadResult load;
  std::thread client([&] {
    Place(Placement::kServing);
    load = RunOpenLoop(port, in_.requests, w_.open_rate_rps, &stop,
                       kTimeoutS, &progress);
  });
  CpuPerTupleWindows cpu({pthread_self(), client.native_handle()},
                         Budget(0.5));
  const int64_t switches0 = ContextSwitches();
  const double end = NowSeconds() + seconds;
  while (NowSeconds() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cpu.Sample(progress.load(std::memory_order_relaxed));
  }
  cpu.Close(progress.load(std::memory_order_relaxed));
  stop.store(true, std::memory_order_release);
  client.join();
  open_switches_ += ContextSwitches() - switches0;
  open_answers_ += static_cast<int64_t>(load.answers.size());
  phase.End();
  Verify(load, "open_loop");
  for (double s : load.latency_s) open_latency_ms_.push_back(s * 1e3);
  for (double s : load.lateness_s) lateness_ms_.push_back(s * 1e3);
  for (double v : cpu.us_per_tuple()) cpu_us_per_tuple_.push_back(v);
}

void Runner::ServeClosedLoop(double seconds) {
  PhaseScope phase("closed_loop", &phases_);
  LoadResult load;
  std::thread client([&] {
    Place(Placement::kServing);
    load = RunClosedLoop(service_->port(), in_.requests, seconds, Budget(0.2));
  });
  client.join();
  phase.End();
  Verify(load, "closed_loop");
  for (double v : load.window_tuples_per_s) closed_windows_.push_back(v);
}

Flow Runner::StreamFlow() {
  ModelStore& store = service_->store();
  Flow flow;
  std::vector<double> install_ms, publish_ms;
  smptree::HoeffdingOptions options;
  options.seed = opt_.seed;
  options.publish = [&](DecisionTree&& snapshot, int64_t) -> Status {
    const double t0 = NowSeconds();
    Status s = store.Install(std::move(snapshot), "stream");
    install_ms.push_back((NowSeconds() - t0) * 1e3);
    if (s.ok()) Remember(store.Current());
    return s;
  };
  smptree::SyntheticConfig config;
  config.function = kFunction;
  config.num_attrs = kAttrs;
  config.num_tuples = w_.train_tuples;
  config.seed = opt_.seed;
  smptree::SyntheticStreamSource source(config);
  smptree::HoeffdingTreeBuilder builder(source.schema(), options);
  Check(builder.Init(), "stream init");

  Place(Placement::kTraining);
  PhaseScope phase("train_serve", &phases_);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> progress{0};
  LoadResult load;
  std::thread client([&] {
    Place(Placement::kServing);
    load = RunOpenLoop(service_->port(), in_.requests, w_.open_rate_rps, &stop,
                       kTimeoutS, &progress);
  });
  CpuPerTupleWindows cpu({pthread_self(), client.native_handle()},
                         Budget(0.5));
  const int64_t switches0 = ContextSwitches();
  const double t0 = NowSeconds();
  double source_s = 0.0, ingest_s = 0.0;
  smptree::StreamBatch batch;
  int64_t ingested = 0;
  int64_t next_publish = w_.publish_every;
  for (;;) {
    const double ta = NowSeconds();
    const int64_t n = Check(source.NextBatch(kStreamBatch, &batch), "source");
    const double tb = NowSeconds();
    source_s += tb - ta;
    if (n == 0) break;
    Check(builder.Ingest(batch), "ingest");
    const double tc = NowSeconds();
    ingest_s += tc - tb;
    ingested += n;
    if (ingested >= next_publish && ingested < w_.train_tuples) {
      Check(builder.Publish(), "publish");
      publish_ms.push_back((NowSeconds() - tc) * 1e3);
      next_publish += w_.publish_every;
    }
    cpu.Sample(progress.load(std::memory_order_relaxed));
  }
  const double tf = NowSeconds();
  Check(builder.Finish(), "finish");
  const double tp = NowSeconds();
  FirstVerifiedPredict(store.epoch());
  const double t1 = NowSeconds();
  cpu.Close(progress.load(std::memory_order_relaxed));
  stop.store(true, std::memory_order_release);
  client.join();
  open_switches_ += ContextSwitches() - switches0;
  open_answers_ += static_cast<int64_t>(load.answers.size());
  phase.End();
  Place(Placement::kAll);
  Verify(load, "train_serve");
  ForgetAllBut(store.epoch());

  for (double s : load.latency_s) open_latency_ms_.push_back(s * 1e3);
  for (double s : load.lateness_s) lateness_ms_.push_back(s * 1e3);
  for (double v : cpu.us_per_tuple()) cpu_us_per_tuple_.push_back(v);
  // Snapshot cost is each timed Publish minus the Install its hook ran;
  // the publish inside Finish() is not one of them.
  double publish_total = 0.0;
  for (size_t i = 0; i < publish_ms.size(); ++i) {
    deploy_ms_.push_back(publish_ms[i]);
    snapshot_ms_.push_back(publish_ms[i] - install_ms[i]);
    publish_install_ms_.push_back(install_ms[i]);
    publish_total += publish_ms[i] / 1e3;
  }
  const smptree::StreamStats st = builder.Stats();
  layer_.Set("stream.source_s", source_s, "s");
  layer_.Set("stream.ingest_s", ingest_s, "s");
  layer_.Set("stream.splits", static_cast<double>(st.splits), "count");
  layer_.Set("stream.nodes", static_cast<double>(st.nodes), "count");
  layer_.Set("stream.deactivated_leaves",
             static_cast<double>(st.deactivated_leaves), "count");
  layer_.Set("stream.state_bytes",
             static_cast<double>(st.sketch_bytes + st.histogram_bytes),
             "bytes");
  layer_.Set("stream.publishes", static_cast<double>(st.snapshots), "count");
  flow.parts["stream.source_s"] = source_s;
  flow.parts["stream.ingest_s"] = ingest_s;
  flow.parts["stream.publish_s"] = publish_total;
  flow.parts["stream.finish_s"] = tp - tf;
  flow.parts["serve.first_predict_s"] = t1 - tp;
  flow.seconds = t1 - t0;
  return flow;
}

void Runner::TraceReplay() {
  // Replays the run's own model and request bodies through each layer's
  // public functions on this one thread, after the served phases, on the
  // CPU the server used.
  Place(Placement::kServing);
  ModelStore& store = service_->store();
  const ServingModelPtr model = store.Current();
  const Schema& schema = store.schema();
  const bool forest = model->kind == smptree::ModelKind::kForest;
  const int min_reps = opt_.toy ? 3 : 11;
  const double min_s = Budget(0.3);
  PhaseScope phase("trace_replay", &phases_);

  std::string bytes;
  const std::vector<double> serialize_ms = RepeatMs(min_reps, min_s, [&] {
    bytes = forest ? smptree::SerializeForest(*model->forest)
                   : smptree::SerializeTree(model->tree);
  });
  layer_.Set("io.serialize_ms", Median(serialize_ms), "ms");
  if (w_.kind == Kind::kStream) {
    // The stream workload deploys through Publish; its final tree is
    // pushed through the file path here so the deploy layers are measured
    // on every workload.
    const std::string path = ModelPath();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    layer_.Set("io.model_bytes", static_cast<double>(bytes.size()), "bytes");
    DeployBurst(path, /*reload=*/false);
  }
  layer_.Set("serve.store_load_ms", Median(load_ms_), "ms");
  layer_.Set("infer.compile_ms", Median(compile_ms_), "ms");
  layer_.Set("serve.store_install_ms", Median(install_ms_), "ms");
  if (w_.kind == Kind::kStream) {
    parts_["deploy_ms"]["stream.snapshot_ms"] = Median(snapshot_ms_);
    parts_["deploy_ms"]["stream.install_ms"] = Median(publish_install_ms_);
  } else {
    parts_["deploy_ms"]["serve.store_load_ms"] = Median(load_ms_);
    parts_["deploy_ms"]["serve.store_install_ms"] = Median(install_ms_);
  }
  double residual = e2e_.Get("deploy_ms");
  for (const auto& [name, value] : parts_["deploy_ms"]) residual -= value;
  layer_.Set("deploy.residual_ms", residual, "ms");
  layer_.Set("serve.model_bytes_pointer",
             static_cast<double>(model->pointer_bytes()), "bytes");
  layer_.Set("serve.model_bytes_flat", static_cast<double>(model->flat_bytes()),
             "bytes");

  // Decode: JSON parse + Batch::FromJson over every request body.
  std::vector<Batch> batches;
  const size_t num_bodies = in_.requests.bodies.size();
  const std::vector<double> decode_ms = RepeatMs(min_reps, min_s, [&] {
    batches.clear();
    for (const std::string& body : in_.requests.bodies) {
      auto doc = Check(smptree::ParseJson(body), "parse");
      batches.push_back(Check(Batch::FromJson(schema, doc), "batch"));
    }
  });
  const double decode_us =
      Median(decode_ms) * 1e3 / static_cast<double>(num_bodies);
  layer_.Set("serve.json_decode_us", decode_us, "us");

  // Score: BatchScorer over the same batches, one thread.
  const ServingModelPtr current = store.Current();
  BatchScorer scorer;
  std::vector<ClassLabel> labels(static_cast<size_t>(w_.request_tuples));
  std::vector<double> probs(static_cast<size_t>(w_.request_tuples) *
                            static_cast<size_t>(schema.num_classes()));
  const std::vector<double> score_ms = RepeatMs(min_reps, min_s, [&] {
    for (const Batch& b : batches) {
      if (forest) {
        scorer.ScoreForest(*current->flat_forest, b, labels.data(),
                           probs.data());
      } else {
        scorer.ScoreTree(current->flat_tree, b, labels.data());
      }
    }
  });
  const double tuples_per_round =
      static_cast<double>(num_bodies) * static_cast<double>(w_.request_tuples);
  const double score_ns = Median(score_ms) * 1e6 / tuples_per_round;
  layer_.Set("infer.score_ns_per_tuple", score_ns, "ns");

  // Engine: in-process PredictionEngine::Predict, no HTTP; its answers are
  // verified against the snapshot that produced them.
  Remember(current);
  std::vector<double> engine_us;
  const double engine_start = NowSeconds();
  for (size_t i = 0; engine_us.size() < 200 ||
                     (NowSeconds() - engine_start < min_s &&
                      engine_us.size() < 20000);
       ++i) {
    const size_t b = i % num_bodies;
    Batch copy = batches[b];
    const double t0 = NowSeconds();
    auto outcome = service_->engine().Predict(std::move(copy));
    engine_us.push_back((NowSeconds() - t0) * 1e6);
    ++attempted_;
    if (!outcome.ok()) {
      Fail("engine predict failed: " + outcome.status().ToString());
      continue;
    }
    const std::vector<int32_t> got(outcome->labels.begin(),
                                   outcome->labels.end());
    if (models_.count(outcome->model_epoch) == 0 ||
        got != Expected(outcome->model_epoch, static_cast<int32_t>(b))) {
      Fail("engine label mismatch");
    }
  }
  const double engine_p50 = Median(engine_us);
  const double http_p50_us = e2e_.Get("predict_p50_ms") * 1e3;
  layer_.Set("serve.engine_p50_us", engine_p50, "us");
  layer_.Set("serve.front_end_us", http_p50_us - decode_us - engine_p50, "us");

  const double per_tuple = static_cast<double>(w_.request_tuples);
  parts_["predict_p50_ms"]["serve.json_decode_us"] = decode_us / 1e3;
  parts_["predict_p50_ms"]["serve.engine_p50_us"] = engine_p50 / 1e3;
  parts_["served_tuples_per_s"]["serve.json_decode_us/tuple"] =
      decode_us / per_tuple;
  parts_["served_tuples_per_s"]["infer.score_ns_per_tuple"] = score_ns / 1e3;
  parts_["serve_cpu_us_per_tuple"]["serve.json_decode_us/tuple"] =
      decode_us / per_tuple;
  parts_["serve_cpu_us_per_tuple"]["infer.score_ns_per_tuple"] =
      score_ns / 1e3;
  const double mb = 1024.0 * 1024.0;
  double data_bytes = static_cast<double>(in_.test.SizeBytes());
  if (in_.train) data_bytes += static_cast<double>(in_.train->SizeBytes());
  parts_["peak_rss_mb"]["data.bytes"] = data_bytes / mb;
  parts_["peak_rss_mb"]["serve.model_bytes_pointer"] =
      static_cast<double>(model->pointer_bytes()) / mb;
  parts_["peak_rss_mb"]["serve.model_bytes_flat"] =
      static_cast<double>(model->flat_bytes()) / mb;
  if (w_.kind == Kind::kStream) {
    parts_["peak_rss_mb"]["stream.state_bytes"] =
        layer_.Get("stream.state_bytes") / mb;
  }
  Place(Placement::kAll);
}

void Runner::ZeroUnusedLayers() {
  // A layer this workload does not run reports 0, so every workload
  // prints the same metric set.
  const char* const exact_layers[] = {
      "core.attr_lists_s", "core.presort_s",   "parallel.build_s",
      "parallel.e_cpu_s",  "parallel.w_cpu_s", "parallel.s_cpu_s",
      "binned.h_cpu_s",    "ensemble.build_s"};
  const char* const exact_counts[] = {
      "parallel.barrier_waits", "parallel.condvar_waits",
      "storage.records_read",   "storage.records_written",
      "binned.bins_scanned",    "ensemble.nodes"};
  if (w_.kind == Kind::kStream) {
    for (const char* name : exact_layers) layer_.Set(name, 0.0, "s");
    for (const char* name : exact_counts) layer_.Set(name, 0.0, "count");
    layer_.Set("parallel.wait_share", 0.0, "ratio");
    return;
  }
  if (w_.kind == Kind::kExact) {
    layer_.Set("ensemble.build_s", 0.0, "s");
    layer_.Set("ensemble.nodes", 0.0, "count");
  }
  layer_.Set("stream.source_s", 0.0, "s");
  layer_.Set("stream.ingest_s", 0.0, "s");
  layer_.Set("stream.snapshot_ms", 0.0, "ms");
  layer_.Set("stream.install_ms", 0.0, "ms");
  for (const char* name : {"stream.splits", "stream.nodes",
                           "stream.deactivated_leaves", "stream.publishes"}) {
    layer_.Set(name, 0.0, "count");
  }
  layer_.Set("stream.state_bytes", 0.0, "bytes");
}

void Runner::Run() {
  Setup();
  // Serving is measured in a slice after every flow rather than in one
  // block, so each figure samples the host across the whole run.
  for (int rep = 0; rep < kFlowReps; ++rep) {
    if (w_.kind == Kind::kStream) {
      flows_.push_back(StreamFlow());
    } else {
      flows_.push_back(BatchFlow());
      ServeOpenLoop(opt_.seconds * 0.5 / kFlowReps);
    }
    ServeClosedLoop(opt_.seconds * 0.4 / kFlowReps);
  }
  // time_to_serve_s is the median flow; its components are that flow's.
  std::vector<Flow> sorted = flows_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Flow& a, const Flow& b) { return a.seconds < b.seconds; });
  const Flow& median_flow = sorted[sorted.size() / 2];
  e2e_.Set("time_to_serve_s", median_flow.seconds, "s");
  parts_["time_to_serve_s"] = median_flow.parts;
  e2e_.Set("deploy_ms", Median(deploy_ms_), "ms");
  if (w_.kind == Kind::kStream) {
    layer_.Set("stream.snapshot_ms", Median(snapshot_ms_), "ms");
    layer_.Set("stream.install_ms", Median(publish_install_ms_), "ms");
  }
  e2e_.Set("served_tuples_per_s", Median(closed_windows_), "1/s");

  e2e_.Set("predict_p50_ms", Percentile(open_latency_ms_, 0.5), "ms");
  e2e_.Set("serve_cpu_us_per_tuple", Median(cpu_us_per_tuple_), "us");

  // Held-out accuracy of the final model (deterministic per seed).
  const ServingModelPtr model = service_->store().Current();
  int64_t right = 0;
  for (int64_t t = 0; t < in_.test.num_tuples(); ++t) {
    right += model->Classify(in_.test.Tuple(t)) == in_.test.label(t) ? 1 : 0;
  }
  e2e_.Set("test_accuracy",
           static_cast<double>(right) /
               static_cast<double>(in_.test.num_tuples()),
           "ratio");
  layer_.Set("core.tree_nodes", static_cast<double>(model->total_nodes()),
             "count");
  layer_.Set("serve.batch_mean_tuples",
             service_->engine().Stats().batch_mean_tuples, "count");
  ZeroUnusedLayers();
  if (opt_.trace) TraceReplay();
  Finish();
}

void Runner::Finish() {
  service_->Stop();
  ::unlink(ModelPath().c_str());
  e2e_.Set("peak_rss_mb", PeakRssMb(), "MB");

  layer_.Set("serve.requests", static_cast<double>(requests_), "count");
  layer_.Set("serve.failed", static_cast<double>(failed_), "count");
  layer_.Set("serve.dropped", static_cast<double>(dropped_), "count");
  layer_.Set("serve.timeouts", static_cast<double>(timeouts_), "count");
  layer_.Set("serve.ctx_switches_per_request",
             static_cast<double>(open_switches_) /
                 static_cast<double>(std::max<int64_t>(open_answers_, 1)),
             "count");
  layer_.Set("serve.open_loop_samples",
             static_cast<double>(open_latency_ms_.size()), "count");
  layer_.Set("serve.generator_lateness_ms", Median(lateness_ms_), "ms");
  layer_.Set("serve.predict_p90_ms", Percentile(open_latency_ms_, 0.9), "ms");
  layer_.Set("serve.predict_p99_ms", Percentile(open_latency_ms_, 0.99), "ms");
  layer_.Set("host.steal_share",
             StealShare(jiffies_start_, ReadCpuJiffies()), "ratio");
  layer_.Set("host.cpu_s", ProcessCpuSeconds() - cpu_start_, "s");
  calibration_ms_.push_back(CalibrationMs());
  layer_.Set("host.calibration_ms", Median(calibration_ms_), "ms");
}

void Runner::Print() const {
  std::string phases = "[";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const PhaseRecord& p = phases_[i];
    if (i > 0) phases += ", ";
    phases += "{\"name\": " + JsonQuote(p.name) +
              ", \"wall_s\": " + JsonNumber(p.wall_s) +
              ", \"cpu_s\": " + JsonNumber(p.cpu_s) +
              ", \"threads\": " + std::to_string(p.threads) +
              ", \"busy_threads\": " +
              JsonNumber(p.wall_s > 0 ? p.cpu_s / p.wall_s : 0.0) +
              ", \"steal_share\": " + JsonNumber(p.steal_share) + "}";
  }
  phases += "]";
  std::string failures = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonQuote(failures_[i]);
  }
  failures += "]";
  std::string requests = "{";
  for (const auto& [phase, c] : phase_requests_) {
    requests += (requests.size() > 1 ? ", " : "") + JsonQuote(phase) +
                ": {\"attempted\": " + std::to_string(c[0]) +
                ", \"failed\": " + std::to_string(c[1]) +
                ", \"dropped\": " + std::to_string(c[2]) +
                ", \"timeouts\": " + std::to_string(c[3]) + "}";
  }
  requests += "}";
  std::string parts = "{";
  for (const auto& [metric, list] : parts_) {
    parts += (parts.size() > 1 ? ", " : "") + JsonQuote(metric) + ": {";
    bool first = true;
    for (const auto& [name, value] : list) {
      parts += (first ? "" : ", ") + JsonQuote(name) + ": " +
               JsonNumber(value);
      first = false;
    }
    parts += "}";
  }
  parts += "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"failures\": %s, "
      "\"metrics\": %s, \"layers\": %s, \"components\": %s, "
      "\"host\": {\"cpu_model\": %s, \"nproc\": %d, \"wall_s\": %s, "
      "\"phases\": %s, \"requests\": %s}}\n",
      JsonQuote(w_.name).c_str(), static_cast<unsigned long long>(opt_.seed),
      opt_.trace ? 1 : 0, failed_ == 0 ? "true" : "false",
      static_cast<long long>(attempted_), static_cast<long long>(failed_),
      failures.c_str(), e2e_.ToJson().c_str(), layer_.ToJson().c_str(),
      parts.c_str(), JsonQuote(CpuModel()).c_str(), OnlineCpus(),
      JsonNumber(NowSeconds() - run_start_).c_str(), phases.c_str(),
      requests.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload exact-mwk|forest-binned|"
               "stream-publish --seed N --seconds S --trace 0|1 "
               "[--toy] [--workdir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      opt.toy = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      return perfbench::Usage();
    }
  }
  auto workload = perfbench::MakeWorkload(opt.workload, opt.toy);
  if (!workload || opt.seconds <= 0) return perfbench::Usage();

  perfbench::Runner runner(opt, *workload);
  runner.Run();
  runner.Print();
  return 0;
}
