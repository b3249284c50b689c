// Every training entry point rejects data it cannot index: a categorical
// code past its cardinality, a label past the class alphabet, or a
// non-finite continuous value comes back as a Status before any model,
// bin or histogram is touched, and the stream trainer publishes nothing
// from a rejected batch.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "binned/quantizer.h"
#include "core/classifier.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "sliq/sliq_builder.h"
#include "stream/hoeffding_builder.h"

namespace smptree {
namespace {

constexpr int64_t kTuples = 600;
constexpr int64_t kBadTuple = 417;

Dataset MakeF1(int64_t tuples) {
  SyntheticConfig cfg;
  cfg.function = 1;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = 5;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*data);
}

struct BadCase {
  std::string name;
  Dataset data;
};

/// F1 data with one fault each: `elevel` (cardinality 5) code 250, label 9
/// of 2 classes, and a NaN salary.
std::vector<BadCase> BadCases() {
  std::vector<BadCase> cases;
  const Dataset good = MakeF1(kTuples);
  const Schema& schema = good.schema();

  cases.push_back({"code", good});
  cases.back().data.mutable_column(schema.FindAttr("elevel"))[kBadTuple].cat =
      250;
  cases.push_back({"label", good});
  cases.back().data.mutable_labels()[kBadTuple] = 9;
  cases.push_back({"nan", good});
  cases.back().data.mutable_column(schema.FindAttr("salary"))[kBadTuple].f =
      std::numeric_limits<float>::quiet_NaN();
  return cases;
}

TEST(TrainingInputTest, TrainClassifierRejectsOnEveryEngine) {
  for (const BadCase& bad : BadCases()) {
    for (Engine engine : {Engine::kSorted, Engine::kBinned}) {
      ClassifierOptions options;
      options.build.engine = engine;
      options.build.algorithm = Algorithm::kMwk;
      options.build.num_threads = 2;
      auto result = TrainClassifier(bad.data, options);
      EXPECT_FALSE(result.ok()) << bad.name << " " << EngineName(engine);
    }
  }
}

TEST(TrainingInputTest, TrainBinnedClassifierRejects) {
  // Bins from the clean set, so only the entry's own check stands between
  // the faulty tuple and the histograms.
  const Dataset good = MakeF1(kTuples);
  Quantizer quantizer;
  ASSERT_TRUE(quantizer.Build(good, 64).ok());
  BinMatrix bins;
  ASSERT_TRUE(bins.Materialize(good, quantizer).ok());
  ASSERT_TRUE(
      TrainBinnedClassifier(good, quantizer, bins, {}, ClassifierOptions())
          .ok());
  for (const BadCase& bad : BadCases()) {
    auto result = TrainBinnedClassifier(bad.data, quantizer, bins, {},
                                        ClassifierOptions());
    EXPECT_FALSE(result.ok()) << bad.name;
  }
}

TEST(TrainingInputTest, TrainForestRejectsOnEveryEngine) {
  for (const BadCase& bad : BadCases()) {
    for (Engine engine : {Engine::kSorted, Engine::kBinned}) {
      ForestOptions options;
      options.num_trees = 3;
      options.num_threads = 2;
      options.tree.build.engine = engine;
      auto result = TrainForest(bad.data, options);
      EXPECT_FALSE(result.ok()) << bad.name << " " << EngineName(engine);
    }
  }
}

TEST(TrainingInputTest, TrainSliqRejects) {
  for (const BadCase& bad : BadCases()) {
    auto result = TrainSliq(bad.data, SliqOptions());
    EXPECT_FALSE(result.ok()) << bad.name;
  }
}

TEST(TrainingInputTest, OneMessagePerFault) {
  const std::vector<BadCase> cases = BadCases();
  const char* expected[] = {
      "tuple 417 attr 'elevel': code 250 outside cardinality 5",
      "tuple 417: label 9 outside 2 classes",
      "row 417: non-finite continuous value 'nan' for attribute 'salary'"};
  for (size_t i = 0; i < cases.size(); ++i) {
    ClassifierOptions binned;
    binned.build.engine = Engine::kBinned;
    const std::string sorted(
        TrainClassifier(cases[i].data, ClassifierOptions()).status().message());
    EXPECT_EQ(sorted, expected[i]);
    EXPECT_EQ(TrainClassifier(cases[i].data, binned).status().message(),
              sorted);
    EXPECT_EQ(TrainSliq(cases[i].data, SliqOptions()).status().message(),
              sorted);
  }
}

TEST(TrainingInputTest, IngestRejectsTheWholeBatchAndPublishesNothing) {
  for (const BadCase& bad : BadCases()) {
    for (bool frozen : {false, true}) {
      int publishes = 0;
      HoeffdingOptions options;
      options.warmup_tuples = 200;
      options.grace_period = 50;
      options.snapshot_every = 100;
      options.publish = [&publishes](DecisionTree&&, int64_t) {
        ++publishes;
        return Status::OK();
      };
      HoeffdingTreeBuilder builder(bad.data.schema(), options);
      ASSERT_TRUE(builder.Init().ok());
      if (frozen) {
        // Past warmup, with splits and snapshots already made.
        ASSERT_TRUE(builder.Ingest(MakeF1(3000)).ok());
        ASSERT_TRUE(builder.Stats().frozen);
      }
      const StreamStats before = builder.Stats();
      const int publishes_before = publishes;

      EXPECT_FALSE(builder.Ingest(bad.data).ok()) << bad.name;
      const StreamStats after = builder.Stats();
      EXPECT_EQ(after.tuples, before.tuples) << bad.name;
      EXPECT_EQ(after.nodes, before.nodes) << bad.name;
      EXPECT_EQ(after.splits, before.splits) << bad.name;
      EXPECT_EQ(publishes, publishes_before) << bad.name;
    }
  }
}

}  // namespace
}  // namespace smptree
