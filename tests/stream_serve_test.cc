// In-process end-to-end test of streaming training against live serving:
// a HoeffdingTreeBuilder trains on a background thread, hot-publishing
// snapshots into a real InferenceService's ModelStore, while the test POSTs
// /v1/predict over an actual socket and checks the answers against the
// exact snapshot that served them. This is the serving invariant of
// stream/hoeffding_builder.h exercised through the whole stack.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "serve/http_client.h"
#include "serve/model_store.h"
#include "serve/service.h"
#include "stream/hoeffding_builder.h"
#include "stream/stream_source.h"
#include "util/string_util.h"

namespace smptree {
namespace {

/// One predict-request tuple in schema attribute order: codes for
/// categoricals, numbers for continuous.
std::string TupleJson(const Schema& schema, const TupleValues& values) {
  std::string out = "[";
  for (int a = 0; a < schema.num_attrs(); ++a) {
    if (a > 0) out += ",";
    out += schema.attr(a).is_categorical()
               ? StringPrintf("%d", values[static_cast<size_t>(a)].cat)
               : StringPrintf("%.9g", values[static_cast<size_t>(a)].f);
  }
  return out + "]";
}

/// Pulls `"key": <integer>` out of a JSON response body.
int64_t JsonInt(const std::string& body, const std::string& key) {
  const size_t at = body.find("\"" + key + "\": ");
  EXPECT_NE(at, std::string::npos) << key << " in " << body;
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + key.size() + 4);
}

/// Parses the "codes" array of a predict response.
std::vector<ClassLabel> PredictCodes(const std::string& body) {
  std::vector<ClassLabel> codes;
  const size_t open = body.find("\"codes\": [");
  EXPECT_NE(open, std::string::npos) << body;
  if (open == std::string::npos) return codes;
  size_t p = open + 10;
  while (p < body.size() && body[p] != ']') {
    codes.push_back(static_cast<ClassLabel>(std::atoi(body.c_str() + p)));
    p = body.find_first_of(",]", p);
    if (body[p] == ',') ++p;
  }
  return codes;
}

TEST(StreamServeTest, HotPublishedModelAnswersPredictDuringTraining) {
  const Schema schema = SyntheticSchema(9);

  // Builder publishes into the service's store; the service pointer is
  // filled in after the builder exists (the hook no-ops until then).
  std::unique_ptr<InferenceService> service;
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.grace_period = 100;
  options.snapshot_every = 2000;
  options.publish = [&service](DecisionTree&& snapshot, int64_t tuples) {
    if (service == nullptr) return Status::OK();
    return service->store().Install(
        std::move(snapshot),
        StringPrintf("stream@%lld", static_cast<long long>(tuples)));
  };
  HoeffdingTreeBuilder builder(schema, options);
  ASSERT_TRUE(builder.Init().ok());

  auto store = ModelStore::Create(builder.Snapshot());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ServiceOptions service_options;
  service_options.engine.num_workers = 2;
  service_options.http.port = 0;
  service_options.http.num_threads = 2;
  service_options.stream_stats = [&builder] { return builder.StatsJson(); };
  service =
      std::make_unique<InferenceService>(std::move(*store), service_options);
  ASSERT_TRUE(service->Start().ok());

  // Train an unbounded F1 stream on a background thread, throttled so the
  // probing below reliably lands between publishes.
  std::atomic<bool> stop{false};
  std::atomic<bool> trainer_ok{true};
  std::thread trainer([&] {
    SyntheticConfig cfg;
    cfg.function = 1;
    cfg.num_attrs = 9;
    cfg.num_tuples = 0;  // unbounded; the main thread stops us
    cfg.seed = 42;
    SyntheticStreamSource source(cfg);
    StreamBatch batch;
    while (!stop.load(std::memory_order_acquire)) {
      auto n = source.NextBatch(512, &batch);
      if (!n.ok() || !builder.Ingest(batch).ok()) {
        trainer_ok.store(false, std::memory_order_release);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  HttpClientConnection client("127.0.0.1", service->port());

  // Wait until at least two hot publishes landed (epoch 1 is the pre-stream
  // root), so we are demonstrably serving a mid-training tree.
  for (int i = 0; i < 2000 && service->store().epoch() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service->store().epoch(), 3) << "no hot publish arrived";

  // Probe tuples the trainer has never seen.
  auto held_out = GenerateSynthetic([] {
    SyntheticConfig cfg;
    cfg.function = 1;
    cfg.num_attrs = 9;
    cfg.num_tuples = 64;
    cfg.seed = 31337;
    return cfg;
  }());
  ASSERT_TRUE(held_out.ok());
  std::string tuples_json;
  for (int64_t t = 0; t < held_out->num_tuples(); ++t) {
    if (t > 0) tuples_json += ",";
    tuples_json += TupleJson(schema, held_out->Tuple(t));
  }
  const std::string request = "{\"tuples\": [" + tuples_json + "]}";

  // Exact correctness against the serving snapshot: when the response's
  // epoch matches a snapshot we hold across the call, every code must equal
  // that snapshot's Classify. Publishes race the probe, so retry until one
  // lands inside a single epoch.
  bool verified = false;
  for (int attempt = 0; attempt < 100 && !verified; ++attempt) {
    const ServingModelPtr snapshot = service->store().Current();
    auto response = client.Call("POST", "/v1/predict", request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    const std::vector<ClassLabel> codes = PredictCodes(response->body);
    ASSERT_EQ(static_cast<int64_t>(codes.size()), held_out->num_tuples());
    if (JsonInt(response->body, "epoch") != snapshot->epoch) continue;
    for (int64_t t = 0; t < held_out->num_tuples(); ++t) {
      EXPECT_EQ(codes[static_cast<size_t>(t)],
                snapshot->Classify(held_out->Tuple(t)))
          << "tuple " << t << " at epoch " << snapshot->epoch;
    }
    verified = true;
  }
  EXPECT_TRUE(verified) << "predict never landed inside one model epoch";

  // /statz carries the live "stream" section fed by the builder.
  auto statz = client.Call("GET", "/statz", "");
  ASSERT_TRUE(statz.ok());
  ASSERT_EQ(statz->status, 200);
  EXPECT_NE(statz->body.find("\"stream\": {"), std::string::npos)
      << statz->body;
  EXPECT_NE(statz->body.find("\"frozen\": true"), std::string::npos);
  EXPECT_GT(JsonInt(statz->body, "splits"), 0);

  stop.store(true, std::memory_order_release);
  trainer.join();
  ASSERT_TRUE(trainer_ok.load());
  ASSERT_TRUE(builder.Finish().ok());

  // The final publish serves a converged F1 tree: high held-out accuracy
  // through the real socket path.
  auto final_test = GenerateSynthetic([] {
    SyntheticConfig cfg;
    cfg.function = 1;
    cfg.num_attrs = 9;
    cfg.num_tuples = 2000;
    cfg.seed = 777;
    return cfg;
  }());
  ASSERT_TRUE(final_test.ok());
  int64_t hits = 0;
  for (int64_t base = 0; base < final_test->num_tuples(); base += 250) {
    std::string probe;
    const int64_t end = std::min(base + 250, final_test->num_tuples());
    for (int64_t t = base; t < end; ++t) {
      if (t > base) probe += ",";
      probe += TupleJson(schema, final_test->Tuple(t));
    }
    auto response =
        client.Call("POST", "/v1/predict", "{\"tuples\": [" + probe + "]}");
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    const std::vector<ClassLabel> codes = PredictCodes(response->body);
    ASSERT_EQ(static_cast<int64_t>(codes.size()), end - base);
    for (int64_t t = base; t < end; ++t) {
      if (codes[static_cast<size_t>(t - base)] == final_test->label(t)) {
        ++hits;
      }
    }
  }
  const double accuracy =
      static_cast<double>(hits) / static_cast<double>(final_test->num_tuples());
  EXPECT_GT(accuracy, 0.9) << "served accuracy after training: " << accuracy;

  service->Stop();
}

}  // namespace
}  // namespace smptree
