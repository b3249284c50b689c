// Flat models under hot reload: every install path compiles the flattened
// form into the epoch-stamped snapshot, and a batch pinned in flight across
// tree->forest->tree swaps gets labels, probabilities AND epoch from one
// snapshot. Plus the engine-stats surface the flat engine added:
// model_bytes for both representations and the batch-size histogram.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "serve/batch.h"
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

DecisionTree TrainTree(const Dataset& data, uint64_t noise_seed = 0) {
  ClassifierOptions options;
  (void)noise_seed;
  auto result = TrainClassifier(data, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result->tree);
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

std::vector<ClassLabel> OracleLabels(const ServingModel& model,
                                     const Dataset& data, int64_t count) {
  std::vector<ClassLabel> labels;
  for (int64_t t = 0; t < count; ++t) {
    labels.push_back(model.Classify(data.Tuple(t)));
  }
  return labels;
}

TEST(ServingModelTest, AllInstallPathsCarryCompiledFlatForm) {
  const Dataset data = TestData();
  auto store = ModelStore::Create(TrainTree(data));
  ASSERT_TRUE(store.ok());

  ServingModelPtr model = (*store)->Current();
  EXPECT_FALSE(model->flat_tree.empty());
  EXPECT_EQ(model->flat_tree.num_nodes(), model->tree.num_nodes());
  EXPECT_GT(model->flat_bytes(), 0u);
  EXPECT_GT(model->pointer_bytes(), model->flat_bytes());

  ASSERT_TRUE(
      (*store)->InstallForest(TrainSmallForest(data, 3), "v2").ok());
  model = (*store)->Current();
  ASSERT_TRUE(model->flat_forest.has_value());
  EXPECT_EQ(model->flat_forest->num_trees(), 3);
  EXPECT_TRUE(model->flat_tree.empty());  // the empty schema carrier
  EXPECT_GT(model->flat_bytes(), 0u);
}

// The ISSUE 8 satellite: pin a batch in flight, swap tree -> forest ->
// tree, and check each held outcome is entirely one snapshot's -- a tree
// snapshot yields no probs, a forest snapshot yields vote shares in its
// own denominator, and the epochs step 1 -> 2 -> 3.
TEST(PredictionEngineTest, TreeForestTreeSwapUnderPinnedBatches) {
  const Dataset data = TestData();
  constexpr int64_t kTuples = 128;

  DecisionTree tree_v1 = TrainTree(data);
  Forest forest_v2 = TrainSmallForest(data, 5, /*seed=*/2);
  DecisionTree tree_v3 = TrainTree(TestData(/*seed=*/77));

  auto store_or = ModelStore::Create(std::move(tree_v1));
  ASSERT_TRUE(store_or.ok());
  ModelStore* store = store_or->get();
  const std::vector<ClassLabel> oracle_v1 =
      OracleLabels(*store->Current(), data, kTuples);

  std::atomic<bool> pin_next{false};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  EngineOptions options;
  options.num_workers = 1;
  options.test_batch_hook = [&](int64_t) {
    if (pin_next.exchange(false)) {
      pinned.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  PredictionEngine engine(store, options);

  const auto pin_batch_and_swap =
      [&](const std::function<void()>& swap) -> Result<PredictOutcome> {
    pinned.store(false, std::memory_order_release);
    release.store(false, std::memory_order_release);
    pin_next.store(true, std::memory_order_release);
    Result<PredictOutcome> held = Status::Internal("not run");
    std::thread caller(
        [&] { held = engine.Predict(TakePrefix(data, kTuples).block()); });
    while (!pinned.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    swap();
    release.store(true, std::memory_order_release);
    caller.join();
    return held;
  };

  // Batch A: pinned on the epoch-1 tree while the forest swaps in.
  auto held_a = pin_batch_and_swap([&] {
    ASSERT_TRUE(
        store->InstallForest(std::move(forest_v2), "v2").ok());
  });
  ASSERT_TRUE(held_a.ok()) << held_a.status().ToString();
  EXPECT_EQ(held_a->model_epoch, 1);
  EXPECT_TRUE(held_a->probs.empty());  // tree snapshot: no vote shares
  EXPECT_EQ(held_a->num_classes, 0);
  ASSERT_EQ(held_a->labels.size(), static_cast<size_t>(kTuples));
  for (int64_t t = 0; t < kTuples; ++t) {
    EXPECT_EQ(held_a->labels[static_cast<size_t>(t)],
              oracle_v1[static_cast<size_t>(t)])
        << "tuple " << t;
  }

  // Batch B: pinned on the epoch-2 forest while a tree swaps back in.
  const std::vector<ClassLabel> oracle_v2 =
      OracleLabels(*store->Current(), data, kTuples);
  auto held_b = pin_batch_and_swap([&] {
    ASSERT_TRUE(store->Install(std::move(tree_v3), "v3").ok());
  });
  ASSERT_TRUE(held_b.ok()) << held_b.status().ToString();
  EXPECT_EQ(held_b->model_epoch, 2);
  EXPECT_EQ(held_b->num_classes, data.num_classes());
  ASSERT_EQ(held_b->probs.size(),
            static_cast<size_t>(kTuples * data.num_classes()));
  for (int64_t t = 0; t < kTuples; ++t) {
    EXPECT_EQ(held_b->labels[static_cast<size_t>(t)],
              oracle_v2[static_cast<size_t>(t)])
        << "tuple " << t;
  }
  for (const double p : held_b->probs) {
    // Vote shares in fifths: the epoch-2 snapshot's own denominator. A torn
    // read against either tree would leak 0/1-only rows or mixed labels.
    const double scaled = p * 5.0;
    EXPECT_EQ(scaled, static_cast<double>(static_cast<int>(scaled)))
        << "torn vote share " << p;
  }

  // A fresh batch scores on the epoch-3 tree.
  const std::vector<ClassLabel> oracle_v3 =
      OracleLabels(*store->Current(), data, kTuples);
  auto after = engine.Predict(TakePrefix(data, kTuples).block());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->model_epoch, 3);
  EXPECT_TRUE(after->probs.empty());
  for (int64_t t = 0; t < kTuples; ++t) {
    EXPECT_EQ(after->labels[static_cast<size_t>(t)],
              oracle_v3[static_cast<size_t>(t)]);
  }
}

// Sustained concurrent scoring while models hot-swap tree/forest/tree:
// every outcome must be internally consistent with the epoch it reports.
// Epoch e's expected labels are recorded before each install, so any
// snapshot mixing shows up as a label/probs/epoch mismatch.
TEST(PredictionEngineTest, ConcurrentScoringAcrossKindSwaps) {
  const Dataset data = TestData();
  constexpr int64_t kTuples = 32;
  constexpr int kInstalls = 12;

  auto store_or = ModelStore::Create(TrainTree(data));
  ASSERT_TRUE(store_or.ok());
  ModelStore* store = store_or->get();

  // expected[e - 1] = (labels, forest member count or 1) for epoch e.
  std::vector<std::vector<ClassLabel>> expected;
  std::vector<int> members;
  expected.push_back(OracleLabels(*store->Current(), data, kTuples));
  members.push_back(1);

  EngineOptions options;
  options.num_workers = 2;
  PredictionEngine engine(store, options);

  std::atomic<bool> stop{false};
  std::vector<PredictOutcome> outcomes;
  std::thread scorer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto outcome = engine.Predict(TakePrefix(data, kTuples).block());
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      outcomes.push_back(std::move(*outcome));
    }
  });

  for (int i = 0; i < kInstalls; ++i) {
    const bool install_forest = (i % 2) == 0;
    if (install_forest) {
      Forest forest =
          TrainSmallForest(data, 3 + (i % 3), static_cast<uint64_t>(i));
      std::vector<ClassLabel> labels;
      for (int64_t t = 0; t < kTuples; ++t) {
        labels.push_back(forest.Classify(data.Tuple(t)));
      }
      expected.push_back(std::move(labels));
      members.push_back(forest.num_trees());
      ASSERT_TRUE(store->InstallForest(std::move(forest), "swap").ok());
    } else {
      DecisionTree tree = TrainTree(TestData(static_cast<uint64_t>(100 + i)));
      std::vector<ClassLabel> labels;
      for (int64_t t = 0; t < kTuples; ++t) {
        labels.push_back(tree.Classify(data.Tuple(t)));
      }
      expected.push_back(std::move(labels));
      members.push_back(1);
      ASSERT_TRUE(store->Install(std::move(tree), "swap").ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  scorer.join();

  ASSERT_FALSE(outcomes.empty());
  for (const PredictOutcome& outcome : outcomes) {
    const size_t e = static_cast<size_t>(outcome.model_epoch);
    ASSERT_GE(e, 1u);
    ASSERT_LE(e, expected.size());
    const std::vector<ClassLabel>& oracle = expected[e - 1];
    ASSERT_EQ(outcome.labels.size(), oracle.size());
    for (size_t t = 0; t < oracle.size(); ++t) {
      ASSERT_EQ(outcome.labels[t], oracle[t])
          << "epoch " << e << " tuple " << t;
    }
    const int m = members[e - 1];
    if (m == 1) {
      EXPECT_TRUE(outcome.probs.empty()) << "epoch " << e;
    } else {
      ASSERT_EQ(outcome.probs.size(),
                static_cast<size_t>(kTuples * data.num_classes()));
      for (const double p : outcome.probs) {
        const double scaled = p * static_cast<double>(m);
        ASSERT_EQ(scaled, static_cast<double>(static_cast<int>(scaled)))
            << "epoch " << e << " share " << p;
      }
    }
  }
}

TEST(PredictionEngineTest, StatsReportModelBytesAndBatchSizes) {
  const Dataset data = TestData();
  auto store = ModelStore::Create(TrainTree(data));
  ASSERT_TRUE(store.ok());
  EngineOptions options;
  options.num_workers = 1;
  PredictionEngine engine(store->get(), options);

  ASSERT_TRUE(engine.Predict(TakePrefix(data, 32).block()).ok());
  ASSERT_TRUE(engine.Predict(TakePrefix(data, 100).block()).ok());

  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.model_bytes_flat, 0u);
  // The arena chunk alone (1024 x ~100-byte TreeNode) dwarfs the flat SoA
  // arrays for any tree this data produces.
  EXPECT_GT(stats.model_bytes_pointer, stats.model_bytes_flat);
  EXPECT_EQ(stats.batches, 2u);
  // 32 lands in log2 bucket 5 ([32,64)), 100 in bucket 6 ([64,128)).
  EXPECT_EQ(stats.batch_size_buckets[5], 1u);
  EXPECT_EQ(stats.batch_size_buckets[6], 1u);
  uint64_t total = 0;
  for (const uint64_t c : stats.batch_size_buckets) total += c;
  EXPECT_EQ(total, 2u);
  EXPECT_DOUBLE_EQ(stats.batch_mean_tuples, 66.0);
  EXPECT_GT(stats.batch_p50_tuples, 0u);
  EXPECT_GE(stats.batch_p99_tuples, stats.batch_p50_tuples);
}

}  // namespace
}  // namespace smptree
