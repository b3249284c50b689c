#include "core/histogram.h"

#include <gtest/gtest.h>

#include "subset_histogram.h"

namespace smptree {
namespace {

TEST(ClassHistogramTest, AddRemoveTotal) {
  ClassHistogram h(3);
  h.Add(0);
  h.Add(1, 5);
  h.Add(2, 2);
  EXPECT_EQ(h.Total(), 8);
  h.Remove(1, 3);
  EXPECT_EQ(h.count(1), 2);
  EXPECT_EQ(h.Total(), 5);
}

TEST(ClassHistogramTest, MergeAndSubtract) {
  ClassHistogram a(2);
  a.Add(0, 3);
  a.Add(1, 1);
  ClassHistogram b(2);
  b.Add(0, 2);
  b.Add(1, 4);
  a.Merge(b);
  EXPECT_EQ(a.count(0), 5);
  EXPECT_EQ(a.count(1), 5);
  a.Subtract(b);
  EXPECT_EQ(a.count(0), 3);
  EXPECT_EQ(a.count(1), 1);
}

TEST(ClassHistogramTest, Purity) {
  ClassHistogram h(3);
  EXPECT_TRUE(h.IsPure());  // empty counts as pure
  h.Add(1, 10);
  EXPECT_TRUE(h.IsPure());
  h.Add(2);
  EXPECT_FALSE(h.IsPure());
}

TEST(ClassHistogramTest, MajorityAndErrors) {
  ClassHistogram h(3);
  h.Add(0, 2);
  h.Add(1, 7);
  h.Add(2, 1);
  EXPECT_EQ(h.Majority(), 1);
  EXPECT_EQ(h.ErrorCount(), 3);
}

TEST(ClassHistogramTest, MajorityTieBreaksLow) {
  ClassHistogram h(2);
  h.Add(0, 4);
  h.Add(1, 4);
  EXPECT_EQ(h.Majority(), 0);
}

TEST(GiniIndexTest, PureIsZero) {
  ClassHistogram h(2);
  h.Add(0, 100);
  EXPECT_DOUBLE_EQ(GiniIndex(h), 0.0);
}

TEST(GiniIndexTest, EvenTwoClassIsHalf) {
  ClassHistogram h(2);
  h.Add(0, 50);
  h.Add(1, 50);
  EXPECT_DOUBLE_EQ(GiniIndex(h), 0.5);
}

TEST(GiniIndexTest, EmptyIsZero) {
  ClassHistogram h(4);
  EXPECT_DOUBLE_EQ(GiniIndex(h), 0.0);
}

TEST(GiniIndexTest, KnownValue) {
  // p = (0.25, 0.75): gini = 1 - (1/16 + 9/16) = 6/16.
  ClassHistogram h(2);
  h.Add(0, 1);
  h.Add(1, 3);
  EXPECT_DOUBLE_EQ(GiniIndex(h), 0.375);
}

TEST(GiniSplitTest, WeightedAverage) {
  ClassHistogram l(2);
  l.Add(0, 10);  // pure left: gini 0
  ClassHistogram r(2);
  r.Add(0, 5);
  r.Add(1, 5);  // gini 0.5
  // (10/20)*0 + (10/20)*0.5 = 0.25
  EXPECT_DOUBLE_EQ(GiniSplit(l, r), 0.25);
}

TEST(GiniSplitTest, EmptySideIsWorst) {
  ClassHistogram l(2);
  ClassHistogram r(2);
  r.Add(0, 5);
  EXPECT_DOUBLE_EQ(GiniSplit(l, r), 1.0);
}

TEST(EntropyIndexTest, PureIsZero) {
  ClassHistogram h(2);
  h.Add(1, 42);
  EXPECT_DOUBLE_EQ(EntropyIndex(h), 0.0);
}

TEST(EntropyIndexTest, EvenTwoClassIsOneBit) {
  ClassHistogram h(2);
  h.Add(0, 8);
  h.Add(1, 8);
  EXPECT_DOUBLE_EQ(EntropyIndex(h), 1.0);
}

TEST(EntropyIndexTest, EvenFourClassIsTwoBits) {
  ClassHistogram h(4);
  for (int c = 0; c < 4; ++c) h.Add(c, 5);
  EXPECT_DOUBLE_EQ(EntropyIndex(h), 2.0);
}

TEST(EntropyIndexTest, KnownValue) {
  // p = (0.25, 0.75): H = 0.25*2 + 0.75*log2(4/3).
  ClassHistogram h(2);
  h.Add(0, 1);
  h.Add(1, 3);
  EXPECT_NEAR(EntropyIndex(h), 0.8112781244591328, 1e-12);
}

TEST(EntropyIndexTest, EmptyIsZero) {
  ClassHistogram h(3);
  EXPECT_DOUBLE_EQ(EntropyIndex(h), 0.0);
}

TEST(SplitImpurityTest, MatchesCriterion) {
  ClassHistogram l(2);
  l.Add(0, 10);
  ClassHistogram r(2);
  r.Add(0, 5);
  r.Add(1, 5);
  EXPECT_DOUBLE_EQ(SplitImpurity(l, r, SplitCriterion::kGini),
                   GiniSplit(l, r));
  // (10/20)*0 + (10/20)*1.0 = 0.5 bits.
  EXPECT_DOUBLE_EQ(SplitImpurity(l, r, SplitCriterion::kEntropy), 0.5);
}

TEST(SplitImpurityTest, EmptySideIsWorst) {
  ClassHistogram l(4);
  ClassHistogram r(4);
  r.Add(2, 3);
  EXPECT_DOUBLE_EQ(SplitImpurity(l, r, SplitCriterion::kEntropy), 2.0);
}

TEST(CountMatrixTest, AddAndTotals) {
  CountMatrix m(3, 2);
  m.Add(0, 0);
  m.Add(0, 1);
  m.Add(2, 1);
  m.Add(2, 1);
  EXPECT_EQ(m.count(0, 0), 1);
  EXPECT_EQ(m.count(0, 1), 1);
  EXPECT_EQ(m.count(2, 1), 2);
  EXPECT_EQ(m.ValueTotal(0), 2);
  EXPECT_EQ(m.ValueTotal(1), 0);
  EXPECT_EQ(m.ValueTotal(2), 2);
}

TEST(CountMatrixTest, SubsetHistogram) {
  CountMatrix m(4, 2);
  m.Add(0, 0);
  m.Add(1, 1);
  m.Add(2, 0);
  m.Add(3, 1);
  ClassHistogram h;
  SubsetHistogram(m, 0b0101, &h);  // values {0, 2}
  EXPECT_EQ(h.count(0), 2);
  EXPECT_EQ(h.count(1), 0);
  SubsetHistogram(m, 0b1111, &h);
  EXPECT_EQ(h.Total(), 4);
  SubsetHistogram(m, 0, &h);
  EXPECT_EQ(h.Total(), 0);
}

}  // namespace
}  // namespace smptree
