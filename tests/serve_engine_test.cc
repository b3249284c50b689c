#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "serve/batch.h"
#include "serve/model_store.h"

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

Dataset CarRows() {
  Dataset data(CarSchema());
  const float ages[] = {20, 25, 27.5f, 30, 45, 60};
  for (int i = 0; i < 6; ++i) {
    TupleValues v(2);
    v[0].f = ages[i];
    v[1].cat = i % 3;
    EXPECT_TRUE(data.Append(v, 0).ok());  // labels ignored by Batch
  }
  return data;
}

TEST(PredictionEngineTest, LabelsMatchTreeClassify) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  EngineOptions options;
  options.num_workers = 2;
  PredictionEngine engine(store->get(), options);

  const Dataset data = CarRows();
  auto outcome =
      engine.Predict(data.block());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->model_epoch, 1);
  ASSERT_EQ(static_cast<int64_t>(outcome->labels.size()), data.num_tuples());
  const DecisionTree reference = CarTree();
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    EXPECT_EQ(outcome->labels[t], reference.Classify(data, t)) << "tuple " << t;
  }
}

TEST(PredictionEngineTest, MatchesTrainedClassifierOnSyntheticData) {
  SyntheticConfig cfg;
  cfg.function = 2;
  cfg.num_tuples = 1200;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  auto trained = TrainClassifier(*data, ClassifierOptions());
  ASSERT_TRUE(trained.ok());
  std::vector<ClassLabel> expected;
  for (int64_t t = 100; t < 400; ++t) {
    expected.push_back(trained->tree->Classify(*data, t));
  }

  auto store = ModelStore::Create(std::move(*trained->tree));
  ASSERT_TRUE(store.ok());
  PredictionEngine engine(store->get(), EngineOptions());

  Dataset rows(data->schema());
  rows.AppendRange(*data, 100, 400);
  auto outcome = engine.Predict(rows.block());
  ASSERT_TRUE(outcome.ok());
  for (int64_t t = 100; t < 400; ++t) {
    ASSERT_EQ(outcome->labels[t - 100], expected[t - 100]);
  }
}

TEST(PredictionEngineTest, RejectsEmptyAndMisshapenBatches) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  PredictionEngine engine(store->get(), EngineOptions());

  EXPECT_FALSE(engine.Predict(Batch()).ok());

  Schema narrow;
  narrow.AddContinuous("age");
  narrow.SetClassNames({"high", "low"});
  Dataset skinny(narrow);
  TupleValues one(1);
  one[0].f = 40.0f;
  ASSERT_TRUE(skinny.Append(one, 0).ok());
  EXPECT_FALSE(engine.Predict(TakePrefix(skinny, 1).block()).ok());

  EXPECT_EQ(engine.Stats().rejected, 2u);
  EXPECT_EQ(engine.Stats().batches, 0u);
}

TEST(PredictionEngineTest, PredictFailsAfterShutdown) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  PredictionEngine engine(store->get(), EngineOptions());
  engine.Shutdown();
  const Dataset data = CarRows();
  EXPECT_FALSE(engine.Predict(TakePrefix(data, 2).block()).ok());
}

TEST(PredictionEngineTest, ConcurrentPredictsFromManyThreads) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  EngineOptions options;
  options.num_workers = 3;  // 6 callers on 3 slots: callers must wait
  PredictionEngine engine(store->get(), options);

  const Dataset data = CarRows();
  const DecisionTree reference = CarTree();
  constexpr int kThreads = 6, kBatchesPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerThread; ++i) {
        auto outcome =
            engine.Predict(data.block());
        if (!outcome.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (int64_t r = 0; r < data.num_tuples(); ++r) {
          if (outcome->labels[r] != reference.Classify(data, r)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.batches, uint64_t{kThreads} * kBatchesPerThread);
  EXPECT_EQ(stats.tuples,
            uint64_t{kThreads} * kBatchesPerThread * data.num_tuples());
}

// The acceptance test for hot reload: a batch held in flight across the
// swap must (a) not block the swap, and (b) finish against the model it
// snapshotted, at that model's epoch.
TEST(PredictionEngineTest, InFlightBatchSurvivesReload) {
  auto created = ModelStore::Create(LeafTree(0));  // epoch 1 -> class 0
  ASSERT_TRUE(created.ok());
  ModelStore* store = created->get();

  std::atomic<bool> batch_started{false};
  std::atomic<bool> release_batch{false};
  std::atomic<int> hooked_batches{0};
  EngineOptions options;
  options.num_workers = 1;
  options.test_batch_hook = [&](int64_t) {
    // Hold only the first batch; later batches run unimpeded.
    if (hooked_batches.fetch_add(1) == 0) {
      batch_started.store(true, std::memory_order_release);
      while (!release_batch.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  PredictionEngine engine(store, options);

  const Dataset data = CarRows();
  Result<PredictOutcome> held = Status::Internal("not run");
  std::thread caller([&] {
    held = engine.Predict(data.block());
  });
  while (!batch_started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The batch is in flight (snapshot taken, not yet scored). The swap must
  // complete *now*, while the old model is still pinned by the batch.
  ASSERT_TRUE(store->Install(LeafTree(1), "v2").ok());  // epoch 2 -> class 1
  EXPECT_EQ(store->epoch(), 2);
  EXPECT_TRUE(batch_started.load());  // the held batch did not block Install

  release_batch.store(true, std::memory_order_release);
  caller.join();

  // The held batch finished on the model it snapshotted: epoch 1 labels.
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->model_epoch, 1);
  for (const ClassLabel label : held->labels) EXPECT_EQ(label, 0);

  // A fresh batch scores against the new model.
  auto after = engine.Predict(data.block());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->model_epoch, 2);
  for (const ClassLabel label : after->labels) EXPECT_EQ(label, 1);
}

// With every scoring slot busy, a caller waits (and is counted in
// queue_depth); Shutdown aborts the waiter but not the batch that holds the
// slot, which still completes against the model it snapshotted.
TEST(PredictionEngineTest, ShutdownAbortsCallerWaitingForSlot) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  std::atomic<bool> batch_started{false};
  std::atomic<bool> release_batch{false};
  EngineOptions options;
  options.num_workers = 1;
  options.test_batch_hook = [&](int64_t) {
    batch_started.store(true, std::memory_order_release);
    while (!release_batch.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  PredictionEngine engine(store->get(), options);

  const Dataset data = CarRows();
  Result<PredictOutcome> held = Status::Internal("not run");
  std::thread holder([&] {
    held = engine.Predict(data.block());
  });
  while (!batch_started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<PredictOutcome> waiter_result = Status::Internal("not run");
  std::thread waiter([&] {
    waiter_result =
        engine.Predict(data.block());
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.Stats().queue_depth == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.Stats().queue_depth, 1u);

  engine.Shutdown();
  waiter.join();
  ASSERT_FALSE(waiter_result.ok());
  EXPECT_TRUE(waiter_result.status().IsAborted())
      << waiter_result.status().ToString();
  EXPECT_EQ(engine.Stats().queue_depth, 0u);

  release_batch.store(true, std::memory_order_release);
  holder.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->model_epoch, 1);
  EXPECT_EQ(held->labels.size(), static_cast<size_t>(data.num_tuples()));
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(PredictionEngineTest, StatsReportLatencyQuantiles) {
  auto store = ModelStore::Create(CarTree());
  ASSERT_TRUE(store.ok());
  PredictionEngine engine(store->get(), EngineOptions());
  const Dataset data = CarRows();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Predict(TakePrefix(data, 6).block()).ok());
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.batches, 20u);
  EXPECT_EQ(stats.tuples, 120u);
  EXPECT_GT(stats.mean_nanos, 0.0);
  EXPECT_GE(stats.p99_nanos, stats.p50_nanos);
  EXPECT_GT(stats.workers, 0);
}

}  // namespace
}  // namespace smptree
