// Forest serving: the ModelStore forest kind (load, install, hot reload,
// rejection of bad forest files without evicting the installed model) and
// the PredictionEngine's vote/probability outputs -- including the no-torn-
// votes property for a batch held in flight across a reload.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "core/tree_io.h"
#include "data/schema_io.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "ensemble/forest_io.h"
#include "serve/engine.h"
#include "serve/model_store.h"

namespace smptree {
namespace {

Dataset TestData(uint64_t seed = 11) {
  SyntheticConfig cfg;
  cfg.function = 5;
  cfg.num_tuples = 900;
  cfg.num_attrs = 9;
  cfg.seed = seed;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*data);
}

Forest TrainSmallForest(const Dataset& data, int trees, uint64_t seed = 42) {
  ForestOptions options;
  options.num_trees = trees;
  options.seed = seed;
  options.oob = false;
  auto result = TrainForest(data, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result->forest);
}

std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(ServingModelTest, ForestKindReportsShapeAndScores) {
  const Dataset data = TestData();
  Forest forest = TrainSmallForest(data, 4);
  const int64_t nodes = forest.total_nodes();
  const ClassLabel expected = forest.Classify(data, 0);

  auto store = ModelStore::Create(std::move(forest));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ServingModelPtr model = (*store)->Current();
  EXPECT_EQ(model->kind, ModelKind::kForest);
  EXPECT_STREQ(model->kind_name(), "forest");
  EXPECT_EQ(model->num_trees(), 4);
  EXPECT_EQ(model->total_nodes(), nodes);
  EXPECT_EQ(model->Classify(data.Tuple(0)), expected);

  std::vector<double> probs;
  EXPECT_EQ(model->Probabilities(data.Tuple(0), &probs), expected);
  double mass = 0.0;
  for (const double p : probs) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(ServingModelTest, TreeKindProbabilitiesAreOneHot) {
  const Dataset data = TestData();
  auto trained = TrainClassifier(data, ClassifierOptions());
  ASSERT_TRUE(trained.ok());
  const ClassLabel expected = trained->tree->Classify(data, 0);
  auto store = ModelStore::Create(std::move(*trained->tree));
  ASSERT_TRUE(store.ok());
  ServingModelPtr model = (*store)->Current();
  EXPECT_EQ(model->kind, ModelKind::kTree);
  EXPECT_EQ(model->num_trees(), 1);
  std::vector<double> probs;
  EXPECT_EQ(model->Probabilities(data.Tuple(0), &probs), expected);
  for (size_t c = 0; c < probs.size(); ++c) {
    EXPECT_DOUBLE_EQ(probs[c],
                     c == static_cast<size_t>(expected) ? 1.0 : 0.0);
  }
}

TEST(ModelStoreTest, OpensForestFileBySniffingHeader) {
  const Dataset data = TestData();
  Forest forest = TrainSmallForest(data, 3);
  const std::string model_path =
      WriteTempFile("sniff.forest", SerializeForest(forest));
  const std::string schema_path = testing::TempDir() + "/sniff.schema";
  ASSERT_TRUE(WriteSchemaFile(data.schema(), schema_path).ok());

  auto is_forest = ModelStore::IsForestFile(model_path);
  ASSERT_TRUE(is_forest.ok());
  EXPECT_TRUE(*is_forest);

  auto store = ModelStore::Open(schema_path, model_path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->Current()->kind, ModelKind::kForest);
  EXPECT_EQ((*store)->Current()->num_trees(), 3);
  EXPECT_EQ((*store)->Current()->source, model_path);
}

TEST(ModelStoreTest, ReloadSwapsTreeForForestAndBack) {
  const Dataset data = TestData();
  auto trained = TrainClassifier(data, ClassifierOptions());
  ASSERT_TRUE(trained.ok());
  auto store = ModelStore::Create(std::move(*trained->tree));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Current()->kind, ModelKind::kTree);

  Forest forest = TrainSmallForest(data, 3);
  const std::string forest_path =
      WriteTempFile("swap.forest", SerializeForest(forest));
  ASSERT_TRUE((*store)->Reload(forest_path).ok());
  EXPECT_EQ((*store)->Current()->kind, ModelKind::kForest);
  EXPECT_EQ((*store)->Current()->num_trees(), 3);
  EXPECT_EQ((*store)->epoch(), 2);

  // And back to a tree.
  auto retrained = TrainClassifier(data, ClassifierOptions());
  ASSERT_TRUE(retrained.ok());
  const std::string tree_path =
      WriteTempFile("swap.tree", SerializeTree(*retrained->tree));
  ASSERT_TRUE((*store)->Reload(tree_path).ok());
  EXPECT_EQ((*store)->Current()->kind, ModelKind::kTree);
  EXPECT_EQ((*store)->epoch(), 3);
}

TEST(ModelStoreTest, BadForestFileDoesNotEvictInstalledModel) {
  const Dataset data = TestData();
  Forest forest = TrainSmallForest(data, 3);
  const std::string good = SerializeForest(forest);
  auto store = ModelStore::Create(std::move(forest));
  ASSERT_TRUE(store.ok());
  const int64_t epoch_before = (*store)->epoch();

  // Truncated container (cut mid-member).
  const std::string truncated_path =
      WriteTempFile("bad1.forest", good.substr(0, good.size() / 2));
  EXPECT_TRUE((*store)->Reload(truncated_path).IsCorruption());

  // Corrupted member line.
  std::string corrupt = good;
  corrupt[corrupt.find("\nN ") + 1] = 'X';
  const std::string corrupt_path = WriteTempFile("bad2.forest", corrupt);
  EXPECT_FALSE((*store)->Reload(corrupt_path).ok());

  // Wrong member count.
  std::string miscounted = good;
  miscounted.replace(miscounted.find("trees=3"), 7, "trees=7");
  const std::string miscounted_path =
      WriteTempFile("bad3.forest", miscounted);
  EXPECT_FALSE((*store)->Reload(miscounted_path).ok());

  // The installed forest is untouched: same epoch, still scoring.
  EXPECT_EQ((*store)->epoch(), epoch_before);
  ServingModelPtr model = (*store)->Current();
  EXPECT_EQ(model->kind, ModelKind::kForest);
  EXPECT_EQ(model->num_trees(), 3);
  EXPECT_NO_FATAL_FAILURE(model->Classify(data.Tuple(0)));
}

TEST(PredictionEngineTest, ForestBatchReturnsVoteShares) {
  const Dataset data = TestData();
  Forest forest = TrainSmallForest(data, 5);
  // Reference copies before the store takes ownership.
  std::vector<ClassLabel> expected_labels;
  std::vector<double> expected_probs;
  std::vector<double> row_probs;
  for (int64_t t = 0; t < 64; ++t) {
    expected_labels.push_back(forest.Probabilities(data.Tuple(t), &row_probs));
    expected_probs.insert(expected_probs.end(), row_probs.begin(),
                          row_probs.end());
  }

  auto store = ModelStore::Create(std::move(forest));
  ASSERT_TRUE(store.ok());
  EngineOptions options;
  options.num_workers = 2;
  PredictionEngine engine(store->get(), options);

  auto outcome = engine.Predict(TakePrefix(data, 64).block());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->num_classes, data.num_classes());
  ASSERT_EQ(outcome->labels.size(), 64u);
  ASSERT_EQ(outcome->probs.size(), expected_probs.size());
  for (size_t i = 0; i < expected_labels.size(); ++i) {
    EXPECT_EQ(outcome->labels[i], expected_labels[i]) << "tuple " << i;
  }
  for (size_t i = 0; i < expected_probs.size(); ++i) {
    EXPECT_DOUBLE_EQ(outcome->probs[i], expected_probs[i]) << "prob " << i;
  }
}

// The forest counterpart of InFlightBatchSurvivesReload, plus the torn-vote
// check: a batch held across a reload must produce labels AND probabilities
// entirely from its snapshot -- a 1-member forest and a 15-member forest
// have incompatible vote denominators, so any mixing is detectable.
TEST(PredictionEngineTest, ForestBatchHeldAcrossReloadHasNoTornVotes) {
  const Dataset data = TestData();
  auto store_or = ModelStore::Create(TrainSmallForest(data, 1, /*seed=*/1));
  ASSERT_TRUE(store_or.ok());
  ModelStore* store = store_or->get();

  std::atomic<bool> batch_started{false};
  std::atomic<bool> release_batch{false};
  std::atomic<int> hooked{0};
  EngineOptions options;
  options.num_workers = 1;
  options.test_batch_hook = [&](int64_t) {
    if (hooked.fetch_add(1) == 0) {
      batch_started.store(true, std::memory_order_release);
      while (!release_batch.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  PredictionEngine engine(store, options);

  Result<PredictOutcome> held = Status::Internal("not run");
  std::thread caller(
      [&] { held = engine.Predict(TakePrefix(data, 128).block()); });
  while (!batch_started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Swap in a much larger forest while the batch is pinned mid-flight.
  ASSERT_TRUE(
      store->InstallForest(TrainSmallForest(data, 15, /*seed=*/2), "v2")
          .ok());
  EXPECT_EQ(store->epoch(), 2);
  release_batch.store(true, std::memory_order_release);
  caller.join();

  // Every probability in the held batch is a multiple of 1/1 (the snapshot
  // had one member): exactly 0 or 1. A torn read against the 15-member
  // forest would leak k/15 fractions.
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->model_epoch, 1);
  for (const double p : held->probs) {
    EXPECT_TRUE(p == 0.0 || p == 1.0) << "torn vote share " << p;
  }

  // A fresh batch sees the new forest: vote shares in fifteenths.
  auto after = engine.Predict(TakePrefix(data, 16).block());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->model_epoch, 2);
  for (const double p : after->probs) {
    const double scaled = p * 15.0;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
  }
}

}  // namespace
}  // namespace smptree
