// In-process end-to-end test of the HTTP serving surface: a real
// InferenceService on an ephemeral loopback port, exercised through the
// real HttpClientConnection -- actual sockets, actual wire format.

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/tree_io.h"
#include "ensemble/forest.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/model_store.h"
#include "serve/service.h"

namespace smptree {
namespace {

Schema CarSchema() {
  Schema s;
  s.AddContinuous("age");
  s.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  s.SetClassNames({"high", "low"});
  return s;
}

ClassHistogram Hist(int64_t a, int64_t b) {
  ClassHistogram h(2);
  h.Add(0, a);
  h.Add(1, b);
  return h;
}

/// age < 27.5 ? high : (car in {sports} ? high : low)
DecisionTree CarTree() {
  DecisionTree tree(CarSchema());
  const NodeId root = tree.CreateRoot(Hist(3, 3));
  SplitTest age_test;
  age_test.attr = 0;
  age_test.threshold = 27.5f;
  tree.SetSplit(root, age_test);
  tree.AddChild(root, true, Hist(2, 0));
  const NodeId right = tree.AddChild(root, false, Hist(1, 3));
  SplitTest car_test;
  car_test.attr = 1;
  car_test.categorical = true;
  car_test.subset = 0b010;
  tree.SetSplit(right, car_test);
  tree.AddChild(right, true, Hist(1, 0));
  tree.AddChild(right, false, Hist(0, 3));
  return tree;
}

DecisionTree LeafTree(ClassLabel label) {
  DecisionTree tree(CarSchema());
  tree.CreateRoot(label == 0 ? Hist(5, 1) : Hist(1, 5));
  return tree;
}

class ServeHttpTest : public testing::Test {
 protected:
  void SetUp() override {
    auto store = ModelStore::Create(CarTree());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ServiceOptions options;
    options.engine.num_workers = 2;
    options.http.port = 0;  // ephemeral
    options.http.num_threads = 2;
    service_ = std::make_unique<InferenceService>(std::move(*store), options);
    ASSERT_TRUE(service_->Start().ok());
    client_ = std::make_unique<HttpClientConnection>("127.0.0.1",
                                                     service_->port());
  }

  void TearDown() override {
    client_.reset();
    if (service_ != nullptr) service_->Stop();
  }

  HttpClientResponse Call(const std::string& method, const std::string& path,
                          const std::string& body = "") {
    auto response = client_->Call(method, path, body);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : HttpClientResponse{};
  }

  std::unique_ptr<InferenceService> service_;
  std::unique_ptr<HttpClientConnection> client_;
};

TEST_F(ServeHttpTest, PredictMatchesTreeClassify) {
  const HttpClientResponse response = Call(
      "POST", "/v1/predict",
      R"({"tuples": [[20, "sedan"], [40, "sports"], [40, 0], [null, "sedan"]]})");
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;
  EXPECT_EQ(doc->Find("epoch")->number_value(), 1.0);

  // Mirror the wire tuples locally; missing categorical values are not a
  // thing, but a null continuous age must take the missing-goes-left path.
  const DecisionTree reference = CarTree();
  const float ages[] = {20, 40, 40, kMissingValue};
  const int32_t cars[] = {0, 1, 0, 0};
  const auto& codes = doc->Find("codes")->array_items();
  const auto& labels = doc->Find("labels")->array_items();
  ASSERT_EQ(codes.size(), 4u);
  ASSERT_EQ(labels.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    TupleValues v(2);
    v[0].f = ages[i];
    v[1].cat = cars[i];
    const ClassLabel want = reference.Classify(v);
    EXPECT_EQ(static_cast<ClassLabel>(codes[i].number_value()), want);
    EXPECT_EQ(labels[i].string_value(), want == 0 ? "high" : "low");
  }
}

TEST_F(ServeHttpTest, PredictRejectsBadRequests) {
  EXPECT_EQ(Call("POST", "/v1/predict", "{not json").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", R"({"rows": []})").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", R"({"tuples": []})").status, 400);
  // Wrong arity.
  EXPECT_EQ(Call("POST", "/v1/predict", R"({"tuples": [[20]]})").status, 400);
  // Unknown categorical value name, out-of-range code.
  EXPECT_EQ(
      Call("POST", "/v1/predict", R"({"tuples": [[20, "jetpack"]]})").status,
      400);
  EXPECT_EQ(Call("POST", "/v1/predict", R"({"tuples": [[20, 7]]})").status,
            400);
  // Codes outside int's range are rejected, not converted (UBSan aborts on
  // the float-to-int overflow a convert-then-check would do).
  for (const char* code : {"1e300", "-1e300", "2147483648"}) {
    EXPECT_EQ(Call("POST", "/v1/predict",
                   std::string(R"({"tuples": [[20, )") + code + "]]}")
                  .status,
              400)
        << code;
  }
}

TEST_F(ServeHttpTest, PredictRejectsNonFiniteContinuousValues) {
  // 1e400 parses to +-inf and 1e39 overflows float: a 400 naming the tuple
  // and the attribute, never a score computed from an infinity.
  for (const char* age : {"1e400", "-1e400", "1e39"}) {
    const HttpClientResponse response =
        Call("POST", "/v1/predict",
             std::string(R"({"tuples": [[20, "sedan"], [)") + age +
                 R"(, "sedan"]]})");
    EXPECT_EQ(response.status, 400) << age;
    EXPECT_NE(response.body.find("tuple 1"), std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("'age'"), std::string::npos)
        << response.body;
  }
  // The largest finite float still scores.
  EXPECT_EQ(Call("POST", "/v1/predict",
                 R"({"tuples": [[3.4e38, "sedan"]]})")
                .status,
            200);
}

TEST_F(ServeHttpTest, RoutingErrors) {
  EXPECT_EQ(Call("GET", "/v1/nope").status, 404);
  EXPECT_EQ(Call("GET", "/v1/predict").status, 405);  // POST-only path
  EXPECT_EQ(Call("POST", "/healthz", "{}").status, 405);
}

TEST_F(ServeHttpTest, HealthzReportsEpoch) {
  const HttpClientResponse response = Call("GET", "/healthz");
  ASSERT_EQ(response.status, 200);
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("status")->string_value(), "ok");
  EXPECT_EQ(doc->Find("epoch")->number_value(), 1.0);
}

TEST_F(ServeHttpTest, ReloadSwapsModelAndBumpsEpoch) {
  const std::string path = testing::TempDir() + "/http_reload.tree";
  {
    std::ofstream out(path);
    out << SerializeTree(LeafTree(0));  // everything classifies "high"
  }
  const HttpClientResponse reload =
      Call("POST", "/v1/reload", "{\"model\": " + JsonQuote(path) + "}");
  ASSERT_EQ(reload.status, 200) << reload.body;
  auto doc = ParseJson(reload.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("epoch")->number_value(), 2.0);
  EXPECT_EQ(doc->Find("nodes")->number_value(), 1.0);

  // Predictions now come from the new model at the new epoch.
  const HttpClientResponse predict =
      Call("POST", "/v1/predict", R"({"tuples": [[60, "sedan"]]})");
  ASSERT_EQ(predict.status, 200);
  auto pdoc = ParseJson(predict.body);
  ASSERT_TRUE(pdoc.ok());
  EXPECT_EQ(pdoc->Find("epoch")->number_value(), 2.0);
  EXPECT_EQ(pdoc->Find("labels")->array_items()[0].string_value(), "high");
}

TEST_F(ServeHttpTest, ReloadFailureKeepsServing) {
  EXPECT_EQ(Call("POST", "/v1/reload",
                 R"({"model": "/nonexistent/model.tree"})")
                .status,
            404);
  EXPECT_EQ(Call("POST", "/v1/reload", R"({"nope": 1})").status, 400);
  // Still epoch 1, still answering.
  const HttpClientResponse predict =
      Call("POST", "/v1/predict", R"({"tuples": [[60, "sedan"]]})");
  ASSERT_EQ(predict.status, 200);
  EXPECT_EQ(ParseJson(predict.body)->Find("epoch")->number_value(), 1.0);
}

TEST_F(ServeHttpTest, StatzCountsTraffic) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        Call("POST", "/v1/predict", R"({"tuples": [[20, 0], [40, 1]]})")
            .status,
        200);
  }
  const HttpClientResponse response = Call("GET", "/statz");
  ASSERT_EQ(response.status, 200);
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;
  EXPECT_EQ(doc->Find("model_epoch")->number_value(), 1.0);
  EXPECT_EQ(doc->Find("batches")->number_value(), 3.0);
  EXPECT_EQ(doc->Find("tuples")->number_value(), 6.0);
  EXPECT_EQ(doc->Find("workers")->number_value(), 2.0);
  ASSERT_NE(doc->Find("latency"), nullptr);
  EXPECT_GE(doc->Find("latency")->Find("p99_ms")->number_value(), 0.0);
  // Connection-path counters of the front end.
  const JsonValue* http = doc->Find("http");
  ASSERT_NE(http, nullptr) << response.body;
  EXPECT_EQ(http->Find("front_end")->string_value(), "epoll");
  EXPECT_GE(http->Find("accepted")->number_value(), 1.0);
  EXPECT_GE(http->Find("requests")->number_value(), 4.0);
  EXPECT_EQ(http->Find("open_connections")->number_value(), 1.0);
  EXPECT_EQ(http->Find("protocol_errors")->number_value(), 0.0);
}

TEST_F(ServeHttpTest, KeepAliveServesSequentialRequests) {
  // Same connection, many requests -- exercises the keep-alive loop.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(Call("GET", "/healthz").status, 200);
  }
}

TEST(ServeHttpReloadDisabledTest, ReloadAnswers403) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  ServiceOptions options;
  options.engine.num_workers = 1;
  options.http.port = 0;
  options.allow_reload = false;
  InferenceService service(std::move(*store), options);
  ASSERT_TRUE(service.Start().ok());
  HttpClientConnection client("127.0.0.1", service.port());
  auto response = client.Call("POST", "/v1/reload", R"({"model": "x"})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 403);
  service.Stop();
}

// Wire parity: /v1/predict bodies are pinned byte for byte. The goldens
// are the bodies the printf-based encoder produced; the forest's 10-member
// vote shares (k/10) print differently at precision 17 than in shortest
// form, and one class name needs escaping.

Schema ThreeClassSchema() {
  Schema s;
  s.AddContinuous("age");
  s.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  s.SetClassNames({"high", "low", "mid \"x\\y\""});
  return s;
}

/// Class counts (of 3) whose majority is `label`.
std::array<int64_t, 3> Majority3(ClassLabel label) {
  std::array<int64_t, 3> counts = {1, 1, 1};
  counts[label] = 10;
  return counts;
}

ClassHistogram Hist3(const std::vector<std::array<int64_t, 3>>& parts) {
  ClassHistogram h(3);
  for (const auto& counts : parts) {
    for (int c = 0; c < 3; ++c) h.Add(c, counts[static_cast<size_t>(c)]);
  }
  return h;
}

/// age < threshold ? left : (car in {sports} ? 2 : right)
DecisionTree ThreeClassTree(float threshold, ClassLabel left,
                            ClassLabel right) {
  const auto l = Majority3(left), m = Majority3(2), r = Majority3(right);
  DecisionTree tree(ThreeClassSchema());
  const NodeId root = tree.CreateRoot(Hist3({l, m, r}));
  SplitTest age_test;
  age_test.attr = 0;
  age_test.threshold = threshold;
  tree.SetSplit(root, age_test);
  tree.AddChild(root, true, Hist3({l}));
  const NodeId rest = tree.AddChild(root, false, Hist3({m, r}));
  SplitTest car_test;
  car_test.attr = 1;
  car_test.categorical = true;
  car_test.subset = 0b010;
  tree.SetSplit(rest, car_test);
  tree.AddChild(rest, true, Hist3({m}));
  tree.AddChild(rest, false, Hist3({r}));
  return tree;
}

std::string PredictBodyFrom(std::unique_ptr<ModelStore> store,
                            const std::string& request) {
  ServiceOptions options;
  options.engine.num_workers = 1;
  options.http.port = 0;
  InferenceService service(std::move(store), options);
  EXPECT_TRUE(service.Start().ok());
  HttpClientConnection client("127.0.0.1", service.port());
  auto response = client.Call("POST", "/v1/predict", request);
  service.Stop();
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return "";
  EXPECT_EQ(response->status, 200) << response->body;
  return response->body;
}

TEST(PredictWireTest, TreeBodyIsPinned) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(
      PredictBodyFrom(std::move(*store),
                      R"({"tuples": [[20, "sedan"], [40, "sports"], [40, 0],)"
                      R"( [null, "truck"], [27.5, 2]]})"),
      R"({"epoch": 1, "codes": [0,0,1,0,1], )"
      R"("labels": ["high","high","low","high","low"]})"
      "\n");
}

TEST(PredictWireTest, ForestBodyWithProbsIsPinned) {
  Forest forest(ThreeClassSchema());
  for (int m = 0; m < 10; ++m) {
    ASSERT_TRUE(forest
                    .AddTree(ThreeClassTree(
                        20.0f + 5.0f * static_cast<float>(m),
                        static_cast<ClassLabel>(m % 3),
                        static_cast<ClassLabel>((m + 1) % 3)))
                    .ok());
  }
  auto store = ModelStore::Create(std::move(forest));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(
      PredictBodyFrom(std::move(*store),
                      R"({"tuples": [[18, "sedan"], [33, "sports"],)"
                      R"( [47, "truck"], [null, 0], [60, 1], [29.5, 2]]})"),
      R"({"epoch": 1, "codes": [0,2,0,0,2,2], "labels": ["high",)"
      R"("mid \"x\\y\"","high","high","mid \"x\\y\"","mid \"x\\y\""], )"
      R"("probs": [[0.40000000000000002,0.29999999999999999,)"
      R"(0.29999999999999999],[0.29999999999999999,0.20000000000000001,)"
      R"(0.5],[0.40000000000000002,0.29999999999999999,)"
      R"(0.29999999999999999],[0.40000000000000002,0.29999999999999999,)"
      R"(0.29999999999999999],[0.10000000000000001,0,0.90000000000000002],)"
      R"([0.29999999999999999,0.29999999999999999,0.40000000000000002]]})"
      "\n");
}

}  // namespace
}  // namespace smptree
