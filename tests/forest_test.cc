// Forest training: options validation, the two-level thread planner,
// determinism in the master seed, OOB accounting, and the single-tree
// parity property -- a 1-tree forest with bootstrap off and full feature
// sampling must classify byte-identically to a bare tree trained from the
// same BuildOptions, for every inner builder.

#include "ensemble/forest_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "binned/quantizer.h"
#include "core/tree_io.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "ensemble/forest_io.h"

namespace smptree {
namespace {

Dataset TestData(int64_t tuples = 1500, int function = 5, uint64_t seed = 7) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_tuples = tuples;
  cfg.num_attrs = 9;
  cfg.seed = seed;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*data);
}

TEST(ForestOptionsTest, ValidateRejectsBadValues) {
  ForestOptions options;
  options.num_trees = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = ForestOptions();
  options.num_threads = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = ForestOptions();
  options.features_per_node = -1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = ForestOptions();
  options.concurrent_trees = -2;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = ForestOptions();
  options.tree.build.algorithm = Algorithm::kRecordParallel;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  EXPECT_TRUE(ForestOptions().Validate().ok());
}

TEST(PlanThreadSplitTest, TreesFirstSpendsThreadsOnTrees) {
  // T >= P: every thread builds its own tree.
  ThreadSplit s = PlanThreadSplit(8, 4, ForestSchedule::kTreesFirst, 0);
  EXPECT_EQ(s.concurrent_trees, 4);
  EXPECT_EQ(s.inner_threads, 1);

  // T < P: surplus threads flow into the inner builder.
  s = PlanThreadSplit(2, 8, ForestSchedule::kTreesFirst, 0);
  EXPECT_EQ(s.concurrent_trees, 2);
  EXPECT_EQ(s.inner_threads, 4);

  // Ragged split: never oversubscribe.
  s = PlanThreadSplit(3, 8, ForestSchedule::kTreesFirst, 0);
  EXPECT_EQ(s.concurrent_trees, 3);
  EXPECT_EQ(s.inner_threads, 2);
  EXPECT_LE(s.concurrent_trees * s.inner_threads, 8);
}

TEST(PlanThreadSplitTest, InnerFirstGivesAllThreadsToTheBuilder) {
  const ThreadSplit s =
      PlanThreadSplit(8, 4, ForestSchedule::kInnerFirst, 0);
  EXPECT_EQ(s.concurrent_trees, 1);
  EXPECT_EQ(s.inner_threads, 4);
}

TEST(PlanThreadSplitTest, OverridePinsOuterWidth) {
  ThreadSplit s = PlanThreadSplit(8, 4, ForestSchedule::kInnerFirst, 2);
  EXPECT_EQ(s.concurrent_trees, 2);
  EXPECT_EQ(s.inner_threads, 2);

  // Clamped to min(num_trees, num_threads).
  s = PlanThreadSplit(3, 8, ForestSchedule::kTreesFirst, 16);
  EXPECT_EQ(s.concurrent_trees, 3);
}

TEST(ForestBuilderTest, TrainsRequestedNumberOfTrees) {
  const Dataset data = TestData();
  ForestOptions options;
  options.num_trees = 5;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->forest->num_trees(), 5);
  EXPECT_EQ(result->stats.trees.size(), 5u);
  EXPECT_TRUE(result->forest->Validate().ok());
  // Bagged members differ (bootstrap resamples diverge immediately).
  EXPECT_FALSE(TreesEqual(result->forest->tree(0), result->forest->tree(1)));
}

TEST(ForestBuilderTest, DeterministicInSeedAcrossSchedules) {
  const Dataset data = TestData();
  ForestOptions options;
  options.num_trees = 4;
  options.features_per_node = 3;
  options.seed = 1234;
  options.num_threads = 1;
  auto a = TrainForest(data, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  // Same seed, 4 concurrent trees, inner-first override off -- the forest
  // must be identical no matter how the builds were scheduled.
  options.num_threads = 4;
  options.schedule = ForestSchedule::kTreesFirst;
  auto b = TrainForest(data, options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(ForestsEqual(*a->forest, *b->forest));

  // A different seed changes the forest.
  options.seed = 99;
  auto c = TrainForest(data, options);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_FALSE(ForestsEqual(*a->forest, *c->forest));
}

TEST(ForestBuilderTest, OobAccuracyIsComputedAndPlausible) {
  const Dataset data = TestData(2000);
  ForestOptions options;
  options.num_trees = 10;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With 10 resamples, essentially every tuple is OOB for some member.
  EXPECT_GT(result->stats.oob_tuples, data.num_tuples() * 9 / 10);
  EXPECT_GT(result->stats.oob_accuracy, 0.6);
  EXPECT_LE(result->stats.oob_accuracy, 1.0);
}

TEST(ForestBuilderTest, OobSkippedWithoutBootstrap) {
  const Dataset data = TestData(600);
  ForestOptions options;
  options.num_trees = 2;
  options.bootstrap = false;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.oob_accuracy, -1.0);
  EXPECT_EQ(result->stats.oob_tuples, 0);
}

TEST(ForestBuilderTest, AggregateBuildStatsFoldsMembers) {
  const Dataset data = TestData(800);
  ForestOptions options;
  options.num_trees = 3;
  options.num_threads = 2;
  options.tree.build.algorithm = Algorithm::kBasic;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const BuildStats& agg = result->stats.build_stats;
  EXPECT_EQ(agg.algorithm, "FOREST(BASIC)");
  EXPECT_EQ(agg.num_threads, 2);
  EXPECT_GT(agg.wall_nanos, 0u);
  uint64_t member_scans = 0;
  for (const TrainStats& m : result->stats.trees) {
    member_scans += m.build_stats.records_scanned;
  }
  EXPECT_EQ(agg.records_scanned, member_scans);
  EXPECT_FALSE(agg.levels.empty());
  // The fold must stay parseable by the same JSON tooling.
  EXPECT_NE(agg.ToJson().find("\"algorithm\": \"FOREST(BASIC)\""),
            std::string::npos);
}

TEST(ForestBuilderTest, BinnedEngineFlowsThroughToMembers) {
  // ForestOptions.tree is a full ClassifierOptions, so the binned engine
  // must reach every member and surface in the folded stats exactly like
  // the CLI's train-forest --engine=binned path.
  const Dataset data = TestData(1200);
  ForestOptions options;
  options.num_trees = 3;
  options.num_threads = 2;
  options.oob = true;
  options.tree.build.engine = Engine::kBinned;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->stats.trees.size(), 3u);
  for (const TrainStats& m : result->stats.trees) {
    EXPECT_EQ(m.build_stats.engine, std::string("binned"));
    EXPECT_GT(m.build_stats.bins_scanned, 0u);
    EXPECT_EQ(m.records_read, 0u);  // no attribute-list files in this engine
  }
  const BuildStats& agg = result->stats.build_stats;
  EXPECT_EQ(agg.engine, std::string("binned"));
  EXPECT_GT(agg.bins_scanned, 0u);
  EXPECT_GT(result->stats.oob_accuracy, 0.6);
}

TEST(ForestBuilderTest, BinnedForestAccuracyCloseToSortedForest) {
  // Same seed, same member resamples: only the split engine differs. The
  // binned forest's accuracy delta must stay small -- measured on held-out
  // data, reported in the assertion message when it drifts.
  const Dataset train = TestData(3000, 5, 7);
  const Dataset test = TestData(1500, 5, 977);
  ForestOptions sorted;
  sorted.num_trees = 5;
  sorted.seed = 99;
  ForestOptions binned = sorted;
  binned.tree.build.engine = Engine::kBinned;
  auto a = TrainForest(train, sorted);
  auto b = TrainForest(train, binned);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const double delta =
      ForestAccuracy(*b->forest, test) - ForestAccuracy(*a->forest, test);
  EXPECT_LE(std::abs(delta), 0.02) << "forest test-accuracy delta " << delta;
}

TEST(ForestBuilderTest, TwoLevelBuildMatchesSerialForest) {
  // 2 concurrent trees x 2 inner MWK threads vs fully serial: bit-equal.
  const Dataset data = TestData(1000);
  ForestOptions options;
  options.num_trees = 4;
  options.features_per_node = 4;
  options.tree.build.algorithm = Algorithm::kSerial;
  options.num_threads = 1;
  auto expected = TrainForest(data, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  options.tree.build.algorithm = Algorithm::kMwk;
  options.num_threads = 4;
  options.concurrent_trees = 2;
  auto actual = TrainForest(data, options);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->stats.split.concurrent_trees, 2);
  EXPECT_EQ(actual->stats.split.inner_threads, 2);
  // Parallel inner builders number nodes in scheduling order, which
  // perturbs per-node feature draws -- so compare against feature sampling
  // OFF to make the property exact.
  options.features_per_node = 0;
  auto full_parallel = TrainForest(data, options);
  ASSERT_TRUE(full_parallel.ok());
  options.tree.build.algorithm = Algorithm::kSerial;
  options.num_threads = 1;
  options.concurrent_trees = 0;
  auto full_serial = TrainForest(data, options);
  ASSERT_TRUE(full_serial.ok());
  EXPECT_TRUE(ForestsEqual(*full_serial->forest, *full_parallel->forest));
}

TEST(ForestBuilderTest, BinnedForestDeterministicAcrossSchedulesAndThreads) {
  // The binned engine numbers nodes in frontier order at every thread
  // count, so even with feature sampling the forest is byte-identical
  // however the P threads are split between trees and within trees.
  const Dataset data = TestData(1500);
  ForestOptions options;
  options.num_trees = 4;
  options.features_per_node = 3;
  options.seed = 1234;
  options.tree.build.engine = Engine::kBinned;
  options.num_threads = 1;
  auto expected = TrainForest(data, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string bytes = SerializeForest(*expected->forest);
  for (ForestSchedule schedule :
       {ForestSchedule::kTreesFirst, ForestSchedule::kInnerFirst}) {
    for (int threads : {1, 2, 4}) {
      options.schedule = schedule;
      options.num_threads = threads;
      auto actual = TrainForest(data, options);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(SerializeForest(*actual->forest), bytes)
          << ForestScheduleName(schedule) << " P=" << threads;
      EXPECT_EQ(actual->stats.oob_accuracy, expected->stats.oob_accuracy);
    }
  }
}

TEST(ForestBuilderTest, BinnedMembersEqualTheirBagOverTheForestQuantizer) {
  // Oracle: a binned member trains over the forest's one quantizer with its
  // bootstrap draw counts as row weights. It must be byte-identical to the
  // same build over the materialized bootstrap bag, binned with that same
  // quantizer -- so cut placement (full set vs. bag) is the only thing that
  // separates it from training on the bag alone.
  const Dataset data = TestData(1500);
  for (uint64_t seed : {3ull, 41ull, 977ull}) {
    for (int max_bins : {32, 64, 256}) {
      Quantizer quantizer;
      ASSERT_TRUE(quantizer.Build(data, max_bins).ok());
      for (int threads : {1, 4}) {
        ForestOptions options;
        options.num_trees = 3;
        options.features_per_node = 4;
        options.seed = seed;
        options.num_threads = threads;
        options.schedule = ForestSchedule::kInnerFirst;
        options.tree.build.engine = Engine::kBinned;
        options.tree.build.max_bins = max_bins;
        auto forest = TrainForest(data, options);
        ASSERT_TRUE(forest.ok()) << forest.status().ToString();
        for (int i = 0; i < options.num_trees; ++i) {
          const uint64_t member_seed = ForestMemberSeed(seed, i);
          auto bag = BootstrapSample(data, member_seed);
          ASSERT_TRUE(bag.ok());
          BinMatrix bag_bins;
          ASSERT_TRUE(bag_bins.Materialize(bag->sample, quantizer).ok());
          ClassifierOptions member = options.tree;
          member.build.num_threads = 1;
          member.build.feature_sampling.features_per_node =
              options.features_per_node;
          member.build.feature_sampling.seed = member_seed;
          auto oracle = TrainBinnedClassifier(bag->sample, quantizer,
                                              bag_bins, {}, member);
          ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
          EXPECT_EQ(SerializeTree(forest->forest->tree(i)),
                    SerializeTree(*oracle->tree))
              << "seed " << seed << " max_bins " << max_bins << " P="
              << threads << " member " << i;
        }
      }
    }
  }
}

TEST(ForestBuilderTest, BinnedOobMasksAreTheBootstrapSampleMasks) {
  // Refold the OOB vote from the masks BootstrapSample gives each member's
  // seed; the forest's own fold over its draw counts must agree exactly.
  const Dataset data = TestData(1200);
  ForestOptions options;
  options.num_trees = 6;
  options.seed = 5;
  options.num_threads = 3;
  options.tree.build.engine = Engine::kBinned;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int64_t n = data.num_tuples();
  const int k = data.num_classes();
  std::vector<int> votes(static_cast<size_t>(n * k), 0);
  for (int i = 0; i < options.num_trees; ++i) {
    const uint64_t member_seed = ForestMemberSeed(options.seed, i);
    auto bag = BootstrapSample(data, member_seed);
    ASSERT_TRUE(bag.ok());
    const std::vector<int32_t> counts = BootstrapCounts(n, member_seed);
    for (int64_t t = 0; t < n; ++t) {
      ASSERT_EQ(bag->oob[static_cast<size_t>(t)],
                counts[static_cast<size_t>(t)] == 0);
      if (!bag->oob[static_cast<size_t>(t)]) continue;
      ++votes[static_cast<size_t>(
          t * k + result->forest->tree(i).Classify(data, t))];
    }
  }
  int64_t counted = 0;
  int64_t correct = 0;
  for (int64_t t = 0; t < n; ++t) {
    const auto row = votes.begin() + t * k;
    const auto best = std::max_element(row, row + k);
    if (*best == 0) continue;
    ++counted;
    if (best - row == data.label(t)) ++correct;
  }
  EXPECT_EQ(result->stats.oob_tuples, counted);
  EXPECT_DOUBLE_EQ(result->stats.oob_accuracy,
                   static_cast<double>(correct) / static_cast<double>(counted));
}

TEST(ForestBuilderTest, BinnedOobAccuracyIsPlausible) {
  // OOB estimates held-out accuracy: within a few points of a fresh test
  // set drawn from the same function.
  const Dataset train = TestData(3000, 5, 7);
  const Dataset test = TestData(2000, 5, 977);
  ForestOptions options;
  options.num_trees = 10;
  options.num_threads = 4;
  options.tree.build.engine = Engine::kBinned;
  auto result = TrainForest(train, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.oob_tuples, train.num_tuples() * 9 / 10);
  EXPECT_GT(result->stats.bin_seconds, 0.0);
  const double held_out = ForestAccuracy(*result->forest, test);
  EXPECT_NEAR(result->stats.oob_accuracy, held_out, 0.05);
  for (const TrainStats& member : result->stats.trees) {
    EXPECT_EQ(member.sort_seconds, 0.0);  // the forest binned once
    EXPECT_EQ(member.setup_seconds, 0.0);
  }
}

/// Satellite property: a 1-tree forest with bootstrap off and full feature
/// sampling serializes byte-identically to the bare tree TrainClassifier
/// produces from the same BuildOptions -- for all five builders.
class SingleTreeParityTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SingleTreeParityTest, OneTreeForestEqualsBareTree) {
  const Dataset data = TestData(1200, 5);

  ClassifierOptions tree_options;
  tree_options.build.algorithm = GetParam();
  tree_options.build.num_threads =
      GetParam() == Algorithm::kSerial ? 1 : 3;
  auto bare = TrainClassifier(data, tree_options);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();

  ForestOptions options;
  options.num_trees = 1;
  options.bootstrap = false;
  options.oob = false;
  options.features_per_node = 0;  // full feature sampling
  options.tree = tree_options;
  options.num_threads = tree_options.build.num_threads;
  options.schedule = ForestSchedule::kInnerFirst;
  auto forest = TrainForest(data, options);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_EQ(forest->forest->num_trees(), 1);

  EXPECT_EQ(SerializeTree(*bare->tree),
            SerializeTree(forest->forest->tree(0)))
      << "forest member diverged from bare "
      << AlgorithmName(GetParam()) << " tree";
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, SingleTreeParityTest,
    ::testing::Values(Algorithm::kSerial, Algorithm::kBasic, Algorithm::kFwk,
                      Algorithm::kMwk, Algorithm::kSubtree),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmName(info.param));
    });

TEST(ForestTest, VoteAndProbabilitiesAgree) {
  const Dataset data = TestData(800);
  ForestOptions options;
  options.num_trees = 6;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok());
  const Forest& forest = *result->forest;

  std::vector<int64_t> votes;
  std::vector<double> probs;
  for (int64_t t = 0; t < 50; ++t) {
    const TupleValues row = data.Tuple(t);
    const ClassLabel by_vote = forest.Vote(row, &votes);
    const ClassLabel by_prob = forest.Probabilities(row, &probs);
    EXPECT_EQ(by_vote, by_prob);
    EXPECT_EQ(by_vote, forest.Classify(row));
    int64_t total = 0;
    double mass = 0.0;
    for (size_t c = 0; c < votes.size(); ++c) {
      total += votes[c];
      mass += probs[c];
      EXPECT_DOUBLE_EQ(probs[c], static_cast<double>(votes[c]) / 6.0);
    }
    EXPECT_EQ(total, 6);
    EXPECT_NEAR(mass, 1.0, 1e-9);
  }
}

TEST(ForestTest, EvaluateForestBeatsChance) {
  const Dataset data = TestData(1000);
  ForestOptions options;
  options.num_trees = 8;
  auto result = TrainForest(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(ForestAccuracy(*result->forest, data), 0.8);
}

TEST(ForestTest, AddTreeRejectsIncompatibleSchema) {
  const Dataset data = TestData(400);
  Schema other;
  other.AddContinuous("alien");
  other.SetClassNames({"x", "y"});
  Forest forest(data.schema());
  DecisionTree tree{other};
  ClassHistogram hist(2);
  hist.Add(0, 3);
  tree.CreateRoot(hist);
  EXPECT_TRUE(forest.AddTree(std::move(tree)).IsInvalidArgument());
  EXPECT_TRUE(forest.Validate().IsInvalidArgument());  // still empty
}

}  // namespace
}  // namespace smptree
