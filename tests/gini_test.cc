// Split-evaluation tests: exact expectations on hand-built lists, a
// brute-force cross-check property sweep over random data, and an
// exact-winner oracle for the categorical subset search.

#include "core/gini.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "subset_histogram.h"
#include "util/random.h"

namespace smptree {
namespace {

AttrRecord Cont(float v, ClassLabel label, Tid tid = 0) {
  AttrRecord r;
  r.value.f = v;
  r.tid = tid;
  r.label = label;
  r.unused = 0;
  return r;
}

AttrRecord Cat(int32_t v, ClassLabel label, Tid tid = 0) {
  AttrRecord r;
  r.value.cat = v;
  r.tid = tid;
  r.label = label;
  r.unused = 0;
  return r;
}

ClassHistogram HistOf(const std::vector<AttrRecord>& recs, int num_classes) {
  ClassHistogram h(num_classes);
  for (const auto& r : recs) h.Add(r.label);
  return h;
}

TEST(ContinuousSplitTest, PerfectSeparationFound) {
  std::vector<AttrRecord> recs = {Cont(1, 0), Cont(2, 0), Cont(3, 0),
                                  Cont(10, 1), Cont(11, 1)};
  GiniScratch scratch;
  const auto best =
      EvaluateContinuousAttr(5, recs, HistOf(recs, 2), GiniOptions{}, &scratch);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.test.attr, 5);
  EXPECT_FALSE(best.test.categorical);
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  EXPECT_GT(best.test.threshold, 3.0f);
  EXPECT_LE(best.test.threshold, 10.0f);
  EXPECT_EQ(best.left_count, 3);
  EXPECT_EQ(best.right_count, 2);
}

TEST(ContinuousSplitTest, AllValuesEqualGivesInvalid) {
  std::vector<AttrRecord> recs = {Cont(4, 0), Cont(4, 1), Cont(4, 0)};
  GiniScratch scratch;
  EXPECT_FALSE(
      EvaluateContinuousAttr(0, recs, HistOf(recs, 2), GiniOptions{}, &scratch).valid());
}

TEST(ContinuousSplitTest, SingleRecordGivesInvalid) {
  std::vector<AttrRecord> recs = {Cont(4, 0)};
  GiniScratch scratch;
  EXPECT_FALSE(
      EvaluateContinuousAttr(0, recs, HistOf(recs, 2), GiniOptions{}, &scratch).valid());
}

TEST(ContinuousSplitTest, ThresholdSeparatesAdjacentFloats) {
  // Adjacent representable floats: the midpoint must still send the lower
  // value left and the upper right.
  const float lo = 1.0f;
  const float hi = std::nextafter(lo, 2.0f);
  std::vector<AttrRecord> recs = {Cont(lo, 0), Cont(hi, 1)};
  GiniScratch scratch;
  const auto best =
      EvaluateContinuousAttr(0, recs, HistOf(recs, 2), GiniOptions{}, &scratch);
  ASSERT_TRUE(best.valid());
  AttrValue v;
  v.f = lo;
  EXPECT_TRUE(best.test.GoesLeft(v));
  v.f = hi;
  EXPECT_FALSE(best.test.GoesLeft(v));
}

TEST(ContinuousSplitTest, NoCandidateBetweenEqualValues) {
  // Split points exist only between distinct values; classes alternating
  // inside a run of equal values cannot be separated.
  std::vector<AttrRecord> recs = {Cont(1, 0), Cont(2, 0), Cont(2, 1),
                                  Cont(2, 1), Cont(3, 1)};
  GiniScratch scratch;
  const auto best =
      EvaluateContinuousAttr(0, recs, HistOf(recs, 2), GiniOptions{}, &scratch);
  ASSERT_TRUE(best.valid());
  // Best achievable: {1,2,2,2} vs {3} or {1} vs rest.
  EXPECT_TRUE(best.left_count == 1 || best.left_count == 4);
}

TEST(CategoricalSplitTest, PerfectSubsetFound) {
  std::vector<AttrRecord> recs = {Cat(0, 0), Cat(0, 0), Cat(1, 1),
                                  Cat(2, 0), Cat(1, 1)};
  GiniScratch scratch;
  GiniOptions options;
  const auto best = EvaluateCategoricalAttr(3, recs, HistOf(recs, 2), 3,
                                            options, &scratch);
  ASSERT_TRUE(best.valid());
  EXPECT_TRUE(best.test.categorical);
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  // {0,2} vs {1} (or complement; ascending mask order keeps the smaller).
  EXPECT_EQ(best.test.subset, 0b010u);
  EXPECT_EQ(best.left_count, 2);
}

TEST(CategoricalSplitTest, SingleValueGivesInvalid) {
  std::vector<AttrRecord> recs = {Cat(1, 0), Cat(1, 1)};
  GiniScratch scratch;
  GiniOptions options;
  EXPECT_FALSE(EvaluateCategoricalAttr(0, recs, HistOf(recs, 2), 4, options,
                                       &scratch)
                   .valid());
}

TEST(CategoricalSplitTest, GreedyMatchesExhaustiveOnSeparableData) {
  // Perfectly separable by value parity; greedy must find a 0-gini subset
  // just like the exhaustive search.
  std::vector<AttrRecord> recs;
  Random rng(4);
  for (int i = 0; i < 400; ++i) {
    const int v = static_cast<int>(rng.Uniform(14));
    recs.push_back(Cat(v, v % 2));
  }
  GiniScratch scratch;
  GiniOptions exhaustive;
  exhaustive.max_exhaustive_cardinality = 14;
  GiniOptions greedy;
  greedy.max_exhaustive_cardinality = 4;  // force the greedy path
  const auto a = EvaluateCategoricalAttr(0, recs, HistOf(recs, 2), 14,
                                         exhaustive, &scratch);
  const auto b =
      EvaluateCategoricalAttr(0, recs, HistOf(recs, 2), 14, greedy, &scratch);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_DOUBLE_EQ(a.gini, 0.0);
  EXPECT_DOUBLE_EQ(b.gini, 0.0);
}

TEST(CategoricalSplitTest, GreedyNeverWorseThanSingletons) {
  Random rng(11);
  std::vector<AttrRecord> recs;
  for (int i = 0; i < 300; ++i) {
    const int v = static_cast<int>(rng.Uniform(20));
    recs.push_back(Cat(v, rng.Uniform(2) == 0 ? (v < 10 ? 0 : 1)
                                              : static_cast<int>(rng.Uniform(2))));
  }
  const ClassHistogram total = HistOf(recs, 2);
  GiniScratch scratch;
  GiniOptions greedy;
  greedy.max_exhaustive_cardinality = 4;
  const auto best =
      EvaluateCategoricalAttr(0, recs, total, 20, greedy, &scratch);
  ASSERT_TRUE(best.valid());
  // Hill-climbing starts from singletons, so it is at least as good as the
  // best single-value subset.
  GiniOptions probe_opts;
  CountMatrix matrix(20, 2);
  for (const auto& r : recs) matrix.Add(r.value.cat, r.label);
  for (int v = 0; v < 20; ++v) {
    ClassHistogram left;
    SubsetHistogram(matrix, uint64_t{1} << v, &left);
    if (left.Total() == 0 || left.Total() == total.Total()) continue;
    ClassHistogram right = total;
    right.Subtract(left);
    EXPECT_LE(best.gini, GiniSplit(left, right) + 1e-12);
  }
}

TEST(LargeCategoricalTest, SeparableDomainReachesZeroGini) {
  // Cardinality 200: classes split by code < 120 vs >= 120.
  std::vector<AttrRecord> recs;
  Random rng(21);
  for (int i = 0; i < 2000; ++i) {
    const int v = static_cast<int>(rng.Uniform(200));
    recs.push_back(Cat(v, v < 120 ? 0 : 1, static_cast<Tid>(i)));
  }
  GiniScratch scratch;
  const auto best =
      EvaluateCategoricalLargeAttr(0, recs, HistOf(recs, 2), 200, &scratch);
  ASSERT_TRUE(best.valid());
  ASSERT_NE(best.test.big_subset, nullptr);
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  int64_t left = 0;
  for (const auto& r : recs) left += best.test.GoesLeft(r.value);
  EXPECT_EQ(left, best.left_count);
  EXPECT_EQ(best.left_count + best.right_count,
            static_cast<int64_t>(recs.size()));
}

TEST(LargeCategoricalTest, SingleValueInvalid) {
  std::vector<AttrRecord> recs = {Cat(70, 0), Cat(70, 1)};
  GiniScratch scratch;
  EXPECT_FALSE(
      EvaluateCategoricalLargeAttr(0, recs, HistOf(recs, 2), 100, &scratch)
          .valid());
}

TEST(LargeCategoricalTest, MatchesSmallGreedyAtBoundary) {
  // Same data evaluated as a 64-value domain (small greedy, uint64 mask)
  // and as if it were a 65-value domain (large path): identical gini.
  std::vector<AttrRecord> recs;
  Random rng(33);
  for (int i = 0; i < 800; ++i) {
    const int v = static_cast<int>(rng.Uniform(64));
    recs.push_back(Cat(v, (v * 7) % 3 == 0 ? 0 : 1, static_cast<Tid>(i)));
  }
  GiniScratch scratch;
  GiniOptions options;
  options.max_exhaustive_cardinality = 4;  // force greedy on the small path
  const auto small =
      EvaluateCategoricalAttr(0, recs, HistOf(recs, 2), 64, options, &scratch);
  const auto large =
      EvaluateCategoricalLargeAttr(0, recs, HistOf(recs, 2), 65, &scratch);
  ASSERT_TRUE(small.valid());
  ASSERT_TRUE(large.valid());
  EXPECT_NEAR(small.gini, large.gini, 1e-12);
  EXPECT_EQ(small.left_count, large.left_count);
}

// Brute-force cross-check: the sweep must find the same optimum a quadratic
// scan finds, across random instances of both attribute kinds.
class GiniPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GiniPropertyTest, ContinuousMatchesBruteForce) {
  Random rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.Uniform(60));
  const int num_classes = 2 + static_cast<int>(rng.Uniform(3));
  std::vector<AttrRecord> recs;
  for (int i = 0; i < n; ++i) {
    recs.push_back(Cont(static_cast<float>(rng.Uniform(12)),
                        static_cast<ClassLabel>(rng.Uniform(num_classes)),
                        static_cast<Tid>(i)));
  }
  std::sort(recs.begin(), recs.end(), ContinuousRecordLess());
  const ClassHistogram total = HistOf(recs, num_classes);
  GiniScratch scratch;
  const auto best = EvaluateContinuousAttr(0, recs, total, GiniOptions{}, &scratch);

  // Brute force over all value boundaries.
  double brute = 2.0;
  for (int i = 0; i + 1 < n; ++i) {
    if (recs[i].value.f == recs[i + 1].value.f) continue;
    ClassHistogram left(num_classes), right(num_classes);
    for (int j = 0; j < n; ++j) {
      (j <= i ? left : right).Add(recs[j].label);
    }
    brute = std::min(brute, GiniSplit(left, right));
  }
  if (brute > 1.5) {
    EXPECT_FALSE(best.valid());
  } else {
    ASSERT_TRUE(best.valid());
    EXPECT_NEAR(best.gini, brute, 1e-12);
    // The returned counts must match applying the returned test.
    int64_t left_count = 0;
    for (const auto& r : recs) left_count += best.test.GoesLeft(r.value);
    EXPECT_EQ(left_count, best.left_count);
  }
}

TEST_P(GiniPropertyTest, CategoricalMatchesBruteForce) {
  Random rng(2000 + GetParam());
  const int cardinality = 2 + static_cast<int>(rng.Uniform(7));  // <= 8
  const int n = 2 + static_cast<int>(rng.Uniform(80));
  std::vector<AttrRecord> recs;
  for (int i = 0; i < n; ++i) {
    recs.push_back(Cat(static_cast<int32_t>(rng.Uniform(cardinality)),
                       static_cast<ClassLabel>(rng.Uniform(2)),
                       static_cast<Tid>(i)));
  }
  const ClassHistogram total = HistOf(recs, 2);
  GiniScratch scratch;
  GiniOptions options;  // cardinality <= 8 <= exhaustive limit
  const auto best =
      EvaluateCategoricalAttr(0, recs, total, cardinality, options, &scratch);

  // Ascending masks with a strict comparison: ties keep the smaller mask.
  double brute = 2.0;
  uint64_t brute_mask = 0;
  for (uint64_t mask = 1; mask + 1 < (uint64_t{1} << cardinality); ++mask) {
    ClassHistogram left(2), right(2);
    for (const auto& r : recs) {
      (((mask >> r.value.cat) & 1) ? left : right).Add(r.label);
    }
    if (left.Total() == 0 || right.Total() == 0) continue;
    const double gini = GiniSplit(left, right);
    if (gini < brute) {
      brute = gini;
      brute_mask = mask;
    }
  }
  if (brute_mask == 0) {
    EXPECT_FALSE(best.valid());
  } else {
    ASSERT_TRUE(best.valid());
    EXPECT_EQ(best.gini, brute);  // bit-equal, not merely close
    EXPECT_EQ(best.test.subset, brute_mask);
    int64_t left_count = 0;
    for (const auto& r : recs) left_count += best.test.GoesLeft(r.value);
    EXPECT_EQ(left_count, best.left_count);
    EXPECT_EQ(n - left_count, best.right_count);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GiniPropertyTest,
                         ::testing::Range(0, 25));

// Exact-winner oracle for EvaluateCategoricalFromMatrix (cardinality <= 64):
// the search the library replaced, rebuilding every subset's histogram
// from the matrix rows. Exhaustive: all 2^c-2 proper masks in ascending
// order. Greedy: each trial rebuilds grown-subset-plus-one-value.
void OracleOffer(uint64_t mask, const CountMatrix& matrix,
                 const ClassHistogram& total, SplitCriterion criterion,
                 SplitCandidate* best) {
  ClassHistogram left;
  SubsetHistogram(matrix, mask, &left);
  const int64_t nl = left.Total();
  const int64_t n = total.Total();
  if (nl == 0 || nl == n) return;
  ClassHistogram right = total;
  right.Subtract(left);
  SplitCandidate candidate;
  candidate.test.attr = 0;
  candidate.test.categorical = true;
  candidate.test.subset = mask;
  candidate.gini = SplitImpurity(left, right, criterion);
  candidate.left_count = nl;
  candidate.right_count = n - nl;
  if (candidate.BetterThan(*best)) *best = candidate;
}

SplitCandidate OracleSearch(const CountMatrix& matrix,
                            const ClassHistogram& total,
                            const GiniOptions& options) {
  const int cardinality = matrix.cardinality();
  SplitCandidate best;
  if (cardinality <= options.max_exhaustive_cardinality) {
    const uint64_t limit = (uint64_t{1} << cardinality) - 1;
    for (uint64_t mask = 1; mask < limit; ++mask) {
      OracleOffer(mask, matrix, total, options.criterion, &best);
    }
    return best;
  }
  uint64_t current = 0;
  for (;;) {
    SplitCandidate round_best = best;
    uint64_t round_mask = 0;
    for (int v = 0; v < cardinality; ++v) {
      const uint64_t bit = uint64_t{1} << v;
      if (current & bit) continue;
      SplitCandidate trial = round_best;
      OracleOffer(current | bit, matrix, total, options.criterion, &trial);
      if (trial.BetterThan(round_best)) {
        round_best = trial;
        round_mask = current | bit;
      }
    }
    if (round_mask == 0) return best;
    current = round_mask;
    best = round_best;
  }
}

/// A random count matrix with the shapes that stress the search: empty
/// rows (value absent at the leaf), rows duplicating an earlier row (equal
/// partitions, hence forced gini ties between different masks), and
/// sometimes a single populated row (every proper subset degenerates to
/// nl == 0 or nl == n).
CountMatrix RandomMatrix(Random* rng, int cardinality, int num_classes) {
  CountMatrix matrix(cardinality, num_classes);
  const bool one_row = rng->Uniform(10) == 0;
  const int populated = static_cast<int>(rng->Uniform(cardinality));
  const int64_t max_count = 1 + static_cast<int64_t>(rng->Uniform(40));
  for (int v = 0; v < cardinality; ++v) {
    if (one_row && v != populated) continue;
    const uint64_t shape = rng->Uniform(5);
    if (shape == 0 && !one_row) continue;  // empty row
    if (shape == 1 && v > 0 && !one_row) {  // duplicate an earlier row
      const int src = static_cast<int>(rng->Uniform(v));
      for (int c = 0; c < num_classes; ++c) {
        matrix.AddCount(v, c, matrix.count(src, c));
      }
      continue;
    }
    for (int c = 0; c < num_classes; ++c) {
      matrix.AddCount(v, c, rng->UniformRange(0, max_count));
    }
  }
  return matrix;
}

ClassHistogram MatrixTotal(const CountMatrix& matrix) {
  ClassHistogram total(matrix.num_classes());
  for (int v = 0; v < matrix.cardinality(); ++v) {
    for (int c = 0; c < matrix.num_classes(); ++c) {
      total.Add(static_cast<ClassLabel>(c), matrix.count(v, c));
    }
  }
  return total;
}

/// Runs the production search and the oracle on one matrix; returns true
/// when the oracle found a valid split.
bool ExpectSameWinner(const CountMatrix& matrix, const GiniOptions& options,
                      GiniScratch* scratch) {
  const ClassHistogram total = MatrixTotal(matrix);
  const SplitCandidate got =
      EvaluateCategoricalFromMatrix(0, matrix, total, options, scratch);
  const SplitCandidate want = OracleSearch(matrix, total, options);
  EXPECT_EQ(got.valid(), want.valid());
  if (!want.valid()) return false;
  EXPECT_TRUE(got.test == want.test)
      << "mask " << got.test.subset << " vs " << want.test.subset;
  EXPECT_EQ(got.gini, want.gini);  // bit-equal
  EXPECT_EQ(got.left_count, want.left_count);
  EXPECT_EQ(got.right_count, want.right_count);
  return true;
}

TEST(CategoricalOracleTest, ExhaustiveMatchesAscendingEnumeration) {
  Random rng(4242);
  GiniScratch scratch;
  int valid = 0;
  for (int trial = 0; trial < 800; ++trial) {
    GiniOptions options;
    options.criterion = trial % 2 == 0 ? SplitCriterion::kGini
                                       : SplitCriterion::kEntropy;
    const int cardinality = 1 + static_cast<int>(rng.Uniform(14));
    options.max_exhaustive_cardinality = 14;
    const int num_classes = 2 + static_cast<int>(rng.Uniform(7));
    const CountMatrix matrix = RandomMatrix(&rng, cardinality, num_classes);
    valid += ExpectSameWinner(matrix, options, &scratch);
    if (HasFailure()) return;
  }
  EXPECT_GT(valid, 400);
}

TEST(CategoricalOracleTest, ExhaustiveUpToTwentyValues) {
  Random rng(4343);
  GiniScratch scratch;
  for (int cardinality = 15; cardinality <= 20; ++cardinality) {
    GiniOptions options;
    options.max_exhaustive_cardinality = 20;
    options.criterion = cardinality % 2 == 0 ? SplitCriterion::kGini
                                             : SplitCriterion::kEntropy;
    const int num_classes = 2 + (cardinality % 7);
    const CountMatrix matrix = RandomMatrix(&rng, cardinality, num_classes);
    ExpectSameWinner(matrix, options, &scratch);
  }
}

TEST(CategoricalOracleTest, GreedyMatchesRebuildPerTrial) {
  Random rng(4444);
  GiniScratch scratch;
  int valid = 0;
  for (int trial = 0; trial < 400; ++trial) {
    GiniOptions options;  // default limit 12: cardinality 13..64 is greedy
    options.criterion = trial % 2 == 0 ? SplitCriterion::kGini
                                       : SplitCriterion::kEntropy;
    const int cardinality = 13 + static_cast<int>(rng.Uniform(52));
    const int num_classes = 2 + static_cast<int>(rng.Uniform(7));
    const CountMatrix matrix = RandomMatrix(&rng, cardinality, num_classes);
    valid += ExpectSameWinner(matrix, options, &scratch);
    if (HasFailure()) return;
  }
  EXPECT_GT(valid, 200);
}

TEST(CategoricalOracleTest, ForcedTiesKeepTheSmallerMask) {
  GiniScratch scratch;
  // Rows A, B, A, B with A = class 0 only, B = class 1 only: {0, 2} and its
  // complement {1, 3} both score exactly 0; the smaller mask wins.
  CountMatrix pair(4, 2);
  for (int v = 0; v < 4; ++v) pair.AddCount(v, v % 2, 3);
  EXPECT_TRUE(ExpectSameWinner(pair, GiniOptions{}, &scratch));
  EXPECT_EQ(EvaluateCategoricalFromMatrix(0, pair, MatrixTotal(pair),
                                          GiniOptions{}, &scratch)
                .test.subset,
            0b0101u);
  // Five identical pure rows: every proper subset scores exactly 0.
  CountMatrix same(5, 3);
  for (int v = 0; v < 5; ++v) same.AddCount(v, 1, 2);
  EXPECT_TRUE(ExpectSameWinner(same, GiniOptions{}, &scratch));
  EXPECT_EQ(EvaluateCategoricalFromMatrix(0, same, MatrixTotal(same),
                                          GiniOptions{}, &scratch)
                .test.subset,
            0b00001u);
}

TEST(CategoricalOracleTest, DegenerateDomainsGiveInvalid) {
  GiniScratch scratch;
  CountMatrix single(1, 3);  // 1-value domain: no proper subset
  single.AddCount(0, 0, 5);
  single.AddCount(0, 2, 4);
  EXPECT_FALSE(ExpectSameWinner(single, GiniOptions{}, &scratch));
  // One populated value among empty ones: every subset has nl 0 or n,
  // on the exhaustive path and on the greedy one.
  for (const int cardinality : {6, 30}) {
    CountMatrix sparse(cardinality, 2);
    sparse.AddCount(3, 0, 7);
    sparse.AddCount(3, 1, 2);
    EXPECT_FALSE(ExpectSameWinner(sparse, GiniOptions{}, &scratch));
  }
}

}  // namespace
}  // namespace smptree
