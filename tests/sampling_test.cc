#include "data/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "data/synthetic.h"
#include "dataset_equal.h"
#include "util/random.h"

namespace smptree {
namespace {

Dataset MakeData(int n) {
  SyntheticConfig cfg;
  cfg.function = 1;
  cfg.num_tuples = n;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(SplitTrainTestTest, PartitionsAllTuples) {
  const Dataset data = MakeData(1000);
  auto split = SplitTrainTest(data, 0.3, 42);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.num_tuples() + split->test.num_tuples(), 1000);
  EXPECT_NEAR(split->test.num_tuples() / 1000.0, 0.3, 0.06);
}

TEST(SplitTrainTestTest, DeterministicInSeed) {
  const Dataset data = MakeData(200);
  auto a = SplitTrainTest(data, 0.5, 7);
  auto b = SplitTrainTest(data, 0.5, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->train.num_tuples(), b->train.num_tuples());
}

TEST(SplitTrainTestTest, ZeroFractionKeepsAllInTrain) {
  const Dataset data = MakeData(50);
  auto split = SplitTrainTest(data, 0.0, 1);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.num_tuples(), 50);
  EXPECT_EQ(split->test.num_tuples(), 0);
}

TEST(SplitTrainTestTest, RejectsBadFraction) {
  const Dataset data = MakeData(10);
  EXPECT_TRUE(SplitTrainTest(data, -0.1, 1).status().IsInvalidArgument());
  EXPECT_TRUE(SplitTrainTest(data, 1.5, 1).status().IsInvalidArgument());
}

TEST(ShuffleDatasetTest, PermutesWithoutLoss) {
  const Dataset data = MakeData(300);
  auto shuffled = ShuffleDataset(data, 5);
  ASSERT_TRUE(shuffled.ok());
  ASSERT_EQ(shuffled->num_tuples(), 300);
  // Same multiset of (salary, label) pairs.
  std::multiset<std::pair<float, int>> before, after;
  for (int64_t t = 0; t < 300; ++t) {
    before.insert({data.value(t, 0).f, data.label(t)});
    after.insert({shuffled->value(t, 0).f, shuffled->label(t)});
  }
  EXPECT_EQ(before, after);
  // And actually permuted.
  int moved = 0;
  for (int64_t t = 0; t < 300; ++t) {
    moved += shuffled->value(t, 0).f != data.value(t, 0).f;
  }
  EXPECT_GT(moved, 100);
}

TEST(StratifiedSplitTest, PreservesClassProportions) {
  const Dataset data = MakeData(1000);
  auto split = StratifiedSplitTrainTest(data, 0.25, 11);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.num_tuples() + split->test.num_tuples(), 1000);
  const auto total = data.ClassCounts();
  const auto test_counts = split->test.ClassCounts();
  for (int c = 0; c < data.num_classes(); ++c) {
    // Per-class test share is round(0.25 * class_count): exact to rounding,
    // unlike the Bernoulli SplitTrainTest.
    const int64_t expect =
        static_cast<int64_t>(0.25 * static_cast<double>(total[c]) + 0.5);
    EXPECT_EQ(test_counts[c], expect) << "class " << c;
  }
}

TEST(StratifiedSplitTest, DeterministicInSeedAndVariesAcrossSeeds) {
  const Dataset data = MakeData(400);
  auto a = StratifiedSplitTrainTest(data, 0.5, 3);
  auto b = StratifiedSplitTrainTest(data, 0.5, 3);
  auto c = StratifiedSplitTrainTest(data, 0.5, 4);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_EQ(a->test.num_tuples(), b->test.num_tuples());
  bool same_as_b = true, same_as_c = a->test.num_tuples() ==
                                     c->test.num_tuples();
  for (int64_t t = 0; t < a->test.num_tuples(); ++t) {
    same_as_b &= a->test.value(t, 0).f == b->test.value(t, 0).f;
    if (same_as_c && t < c->test.num_tuples()) {
      same_as_c &= a->test.value(t, 0).f == c->test.value(t, 0).f;
    }
  }
  EXPECT_TRUE(same_as_b);
  EXPECT_FALSE(same_as_c);
}

TEST(StratifiedSplitTest, RejectsBadFraction) {
  const Dataset data = MakeData(10);
  EXPECT_TRUE(
      StratifiedSplitTrainTest(data, -0.1, 1).status().IsInvalidArgument());
  EXPECT_TRUE(
      StratifiedSplitTrainTest(data, 1.5, 1).status().IsInvalidArgument());
}

TEST(BootstrapSampleTest, SampleSizeMatchesAndOobIsComplement) {
  const Dataset data = MakeData(500);
  auto boot = BootstrapSample(data, 17);
  ASSERT_TRUE(boot.ok());
  EXPECT_EQ(boot->sample.num_tuples(), 500);
  ASSERT_EQ(boot->oob.size(), 500u);
  // The OOB mask is exactly the complement of the drawn multiset: every
  // drawn source value appears in the sample, every OOB tuple's count of
  // appearances is zero. Check via value multisets (attr 0 is continuous
  // with distinct-ish values, so collisions are unlikely but harmless --
  // we compare draw counts per exact float value).
  std::multiset<float> drawn;
  for (int64_t t = 0; t < boot->sample.num_tuples(); ++t) {
    drawn.insert(boot->sample.value(t, 0).f);
  }
  int64_t oob_count = 0;
  for (int64_t t = 0; t < 500; ++t) {
    const bool in_sample = drawn.count(data.value(t, 0).f) > 0;
    if (boot->oob[static_cast<size_t>(t)]) {
      ++oob_count;
    } else {
      EXPECT_TRUE(in_sample) << "in-bag tuple " << t << " missing";
    }
  }
  // E[OOB share] = (1-1/n)^n -> 1/e ~ 0.368.
  EXPECT_NEAR(static_cast<double>(oob_count) / 500.0, 0.368, 0.08);
}

TEST(BootstrapSampleTest, DeterministicInSeedAndVariesAcrossSeeds) {
  const Dataset data = MakeData(300);
  auto a = BootstrapSample(data, 9);
  auto b = BootstrapSample(data, 9);
  auto c = BootstrapSample(data, 10);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->oob, b->oob);
  EXPECT_NE(a->oob, c->oob);
  ASSERT_EQ(a->sample.num_tuples(), b->sample.num_tuples());
  for (int64_t t = 0; t < a->sample.num_tuples(); ++t) {
    ASSERT_EQ(a->sample.value(t, 0).f, b->sample.value(t, 0).f);
    ASSERT_EQ(a->sample.label(t), b->sample.label(t));
  }
}

TEST(BootstrapSampleTest, RejectsEmptyDataset) {
  const Dataset data = MakeData(2);
  Dataset empty(data.schema());
  EXPECT_TRUE(BootstrapSample(empty, 1).status().IsInvalidArgument());
}

TEST(TakePrefixTest, TakesAndClamps) {
  const Dataset data = MakeData(20);
  Dataset five = TakePrefix(data, 5);
  EXPECT_EQ(five.num_tuples(), 5);
  EXPECT_EQ(five.value(4, 0).f, data.value(4, 0).f);
  Dataset all = TakePrefix(data, 100);
  EXPECT_EQ(all.num_tuples(), 20);
}

// Row-wise references: the Tuple() + Append loops the sampling functions
// ran before they became one row gather on the column block. Each must
// agree with the library byte for byte.

TrainTestSplit RowWiseSplit(const Dataset& data, double fraction,
                            uint64_t seed) {
  Random rng(seed);
  TrainTestSplit split{Dataset(data.schema()), Dataset(data.schema())};
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    Dataset& target = rng.Bernoulli(fraction) ? split.test : split.train;
    EXPECT_TRUE(target.Append(data.Tuple(t), data.label(t)).ok());
  }
  return split;
}

TrainTestSplit RowWiseStratifiedSplit(const Dataset& data, double fraction,
                                      uint64_t seed) {
  std::vector<std::vector<int64_t>> by_class(
      static_cast<size_t>(data.num_classes()));
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    by_class[data.label(t)].push_back(t);
  }
  std::vector<bool> to_test(static_cast<size_t>(data.num_tuples()), false);
  Random rng(seed);
  for (std::vector<int64_t>& members : by_class) {
    for (int64_t i = static_cast<int64_t>(members.size()) - 1; i > 0; --i) {
      const int64_t j = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(i) + 1));
      std::swap(members[static_cast<size_t>(i)],
                members[static_cast<size_t>(j)]);
    }
    const int64_t take = static_cast<int64_t>(
        fraction * static_cast<double>(members.size()) + 0.5);
    for (int64_t i = 0; i < take; ++i) {
      to_test[static_cast<size_t>(members[static_cast<size_t>(i)])] = true;
    }
  }
  TrainTestSplit split{Dataset(data.schema()), Dataset(data.schema())};
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    Dataset& target = to_test[static_cast<size_t>(t)] ? split.test
                                                       : split.train;
    EXPECT_TRUE(target.Append(data.Tuple(t), data.label(t)).ok());
  }
  return split;
}

Dataset RowWiseBootstrap(const Dataset& data, uint64_t seed) {
  const std::vector<int32_t> draws = BootstrapCounts(data.num_tuples(), seed);
  Dataset sample(data.schema());
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    for (int32_t c = 0; c < draws[static_cast<size_t>(t)]; ++c) {
      EXPECT_TRUE(sample.Append(data.Tuple(t), data.label(t)).ok());
    }
  }
  return sample;
}

Dataset RowWiseShuffle(const Dataset& data, uint64_t seed) {
  std::vector<int64_t> order(static_cast<size_t>(data.num_tuples()));
  std::iota(order.begin(), order.end(), 0);
  Random rng(seed);
  for (int64_t i = data.num_tuples() - 1; i > 0; --i) {
    const int64_t j = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(i) + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  Dataset out(data.schema());
  for (const int64_t t : order) {
    EXPECT_TRUE(out.Append(data.Tuple(t), data.label(t)).ok());
  }
  return out;
}

Dataset RowWisePrefix(const Dataset& data, int64_t n) {
  Dataset out(data.schema());
  for (int64_t t = 0; t < std::min(n, data.num_tuples()); ++t) {
    EXPECT_TRUE(out.Append(data.Tuple(t), data.label(t)).ok());
  }
  return out;
}

TEST(SamplingOracleTest, RowGatherMatchesRowWiseAppend) {
  const Dataset data = MakeData(3000);
  for (const uint64_t seed : {uint64_t{3}, uint64_t{41}, uint64_t{977}}) {
    SCOPED_TRACE(seed);
    auto split = SplitTrainTest(data, 0.3, seed);
    ASSERT_TRUE(split.ok());
    const TrainTestSplit want_split = RowWiseSplit(data, 0.3, seed);
    ExpectSameTuples(split->train, want_split.train);
    ExpectSameTuples(split->test, want_split.test);

    auto strat = StratifiedSplitTrainTest(data, 0.25, seed);
    ASSERT_TRUE(strat.ok());
    const TrainTestSplit want_strat = RowWiseStratifiedSplit(data, 0.25, seed);
    ExpectSameTuples(strat->train, want_strat.train);
    ExpectSameTuples(strat->test, want_strat.test);

    auto boot = BootstrapSample(data, seed);
    ASSERT_TRUE(boot.ok());
    ExpectSameTuples(boot->sample, RowWiseBootstrap(data, seed));

    auto shuffled = ShuffleDataset(data, seed);
    ASSERT_TRUE(shuffled.ok());
    ExpectSameTuples(*shuffled, RowWiseShuffle(data, seed));

    const int64_t n = static_cast<int64_t>(seed) * 7;
    ExpectSameTuples(TakePrefix(data, n), RowWisePrefix(data, n));
  }
}

}  // namespace
}  // namespace smptree
