// The binned engine end to end: quantizer boundary properties, histogram
// subtraction identities, exact winner parity with the sorted engine where
// the bin budget covers every distinct value, O(bins) split-evaluation cost,
// determinism across thread counts, and a measured (never hidden) accuracy
// bound against the exact engine on the synthetic functions.

#include "binned/binned_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "binned/leaf_histogram.h"
#include "binned/quantizer.h"
#include "core/classifier.h"
#include "core/metrics.h"
#include "core/tree_io.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace smptree {
namespace {

Result<TrainResult> Train(const Dataset& data, Engine engine,
                          ClassifierOptions options = {}) {
  options.build.engine = engine;
  options.build.algorithm = Algorithm::kSerial;
  return TrainClassifier(data, options);
}

Dataset MakeAgrawal(int function, int64_t tuples, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_tuples = tuples;
  cfg.seed = seed;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*data);
}

/// Copy of `data` with every continuous attribute snapped to a per-attribute
/// grid of at most `levels`+1 distinct values, so the quantizer's exact mode
/// covers every attribute and the binned candidate set equals the sorted
/// engine's.
Dataset CoarsenContinuous(const Dataset& data, int levels) {
  const int num_attrs = data.num_attrs();
  std::vector<float> lo(static_cast<size_t>(num_attrs), 0.0f);
  std::vector<float> hi(static_cast<size_t>(num_attrs), 0.0f);
  for (int a = 0; a < num_attrs; ++a) {
    if (data.schema().attr(a).is_categorical()) continue;
    lo[static_cast<size_t>(a)] = hi[static_cast<size_t>(a)] =
        data.value(0, a).f;
    for (int64_t t = 1; t < data.num_tuples(); ++t) {
      const float f = data.value(t, a).f;
      lo[static_cast<size_t>(a)] = std::min(lo[static_cast<size_t>(a)], f);
      hi[static_cast<size_t>(a)] = std::max(hi[static_cast<size_t>(a)], f);
    }
  }
  Dataset out(data.schema());
  TupleValues v(static_cast<size_t>(num_attrs));
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    for (int a = 0; a < num_attrs; ++a) {
      v[static_cast<size_t>(a)] = data.value(t, a);
      if (!data.schema().attr(a).is_categorical()) {
        const float span =
            hi[static_cast<size_t>(a)] - lo[static_cast<size_t>(a)];
        if (span > 0) {
          const float step = span / static_cast<float>(levels);
          v[static_cast<size_t>(a)].f =
              lo[static_cast<size_t>(a)] +
              std::round((v[static_cast<size_t>(a)].f -
                          lo[static_cast<size_t>(a)]) / step) * step;
        }
      }
    }
    EXPECT_TRUE(out.Append(v, data.label(t)).ok());
  }
  return out;
}

// ---------------------------------------------------------------- histogram

TEST(LeafHistogramTest, SubtractionRecoversTheSibling) {
  // parent = left + right bin-for-bin; deriving right as parent - left must
  // reproduce it exactly (the H-phase subtraction trick).
  LeafHistogram parent, left, expect_right;
  parent.Reset(6, 3);
  left.Reset(6, 3);
  expect_right.Reset(6, 3);
  for (int b = 0; b < 6; ++b) {
    for (int c = 0; c < 3; ++c) {
      const int total = (b * 7 + c * 3) % 11;
      const int to_left = total / 2;
      for (int i = 0; i < to_left; ++i) left.Add(b, static_cast<ClassLabel>(c));
      for (int i = 0; i < total - to_left; ++i) {
        expect_right.Add(b, static_cast<ClassLabel>(c));
      }
      for (int i = 0; i < total; ++i) parent.Add(b, static_cast<ClassLabel>(c));
    }
  }
  LeafHistogram right = parent;
  ASSERT_TRUE(right.Subtract(left).ok());
  for (int b = 0; b < 6; ++b) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(right.count(b, c), expect_right.count(b, c))
          << "bin " << b << " class " << c;
    }
    EXPECT_EQ(right.RowTotal(b), expect_right.RowTotal(b));
  }
  // And merging the halves rebuilds the parent.
  LeafHistogram rebuilt = left;
  ASSERT_TRUE(rebuilt.Merge(expect_right).ok());
  for (int b = 0; b < 6; ++b) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(rebuilt.count(b, c), parent.count(b, c));
    }
  }
}

TEST(LeafHistogramTest, ResetReusesShapeAndZeroes) {
  LeafHistogram h;
  h.Reset(4, 2);
  h.Add(3, 1);
  EXPECT_EQ(h.count(3, 1), 1);
  h.Reset(4, 2);
  EXPECT_EQ(h.count(3, 1), 0);
  EXPECT_EQ(h.total_bins(), 4);
  EXPECT_EQ(h.num_classes(), 2);
  h.Clear();
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.RowTotal(0), 0);
}

TEST(LeafHistogramTest, MergeAndSubtractRejectShapeMismatch) {
  // Regression: a mismatched shape must come back as InvalidArgument and
  // leave the destination untouched instead of corrupting counts.
  LeafHistogram a, wrong_bins, wrong_classes;
  a.Reset(4, 2);
  a.Add(1, 1);
  wrong_bins.Reset(5, 2);
  wrong_bins.Add(0, 0);
  wrong_classes.Reset(4, 3);
  wrong_classes.Add(0, 0);

  Status s = a.Merge(wrong_bins);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  s = a.Subtract(wrong_classes);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(a.count(1, 1), 1);
  EXPECT_EQ(a.count(0, 0), 0);

  // Matching shapes still work.
  LeafHistogram b;
  b.Reset(4, 2);
  b.Add(1, 1);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(1, 1), 2);
  ASSERT_TRUE(a.Subtract(b).ok());
  EXPECT_EQ(a.count(1, 1), 1);
}

// ---------------------------------------------------------------- quantizer

TEST(QuantizerTest, ExactModeCutsAtEveryAdjacentDistinctMidpoint) {
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  for (float x : {1.0f, 2.0f, 2.0f, 4.0f, 8.0f}) {
    v[0].f = x;
    ASSERT_TRUE(data.Append(v, 0).ok());
  }
  Quantizer q;
  ASSERT_TRUE(q.Build(data, 256).ok());
  ASSERT_EQ(q.num_cuts(0), 3);  // 4 distinct values
  EXPECT_EQ(q.num_bins(0), 4);
  EXPECT_FLOAT_EQ(q.cut(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(q.cut(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(q.cut(0, 2), 6.0f);
}

TEST(QuantizerTest, BinMappingInvariantHoldsOnSkewedData) {
  // 999 copies of 0.0 and one 1.0: quantile positions all land inside the
  // run of zeros; cut placement must still produce strictly ascending cuts
  // and respect  bin(v) <= i  <=>  v < cut(i)  for every value and cut.
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  for (int i = 0; i < 999; ++i) {
    v[0].f = 0.0f;
    ASSERT_TRUE(data.Append(v, 0).ok());
  }
  v[0].f = 1.0f;
  ASSERT_TRUE(data.Append(v, 1).ok());
  Quantizer q;
  ASSERT_TRUE(q.Build(data, 8).ok());
  ASSERT_EQ(q.num_cuts(0), 1);  // two distinct values, one boundary
  for (int i = 1; i < q.num_cuts(0); ++i) {
    EXPECT_LT(q.cut(0, i - 1), q.cut(0, i));
  }
  for (float value : {0.0f, 0.5f, 1.0f}) {
    AttrValue av;
    av.f = value;
    const int bin = q.BinOf(0, av);
    for (int i = 0; i < q.num_cuts(0); ++i) {
      EXPECT_EQ(bin <= i, value < q.cut(0, i))
          << "value " << value << " cut " << i;
    }
  }
}

TEST(QuantizerTest, QuantileModeIsDeterministicAndOrdered) {
  const Dataset data = MakeAgrawal(5, 3000, 77);
  Quantizer a, b;
  ASSERT_TRUE(a.Build(data, 64).ok());
  ASSERT_TRUE(b.Build(data, 64).ok());
  ASSERT_EQ(a.num_attrs(), b.num_attrs());
  for (int attr = 0; attr < a.num_attrs(); ++attr) {
    ASSERT_EQ(a.num_bins(attr), b.num_bins(attr));
    ASSERT_EQ(a.num_cuts(attr), b.num_cuts(attr));
    if (!a.categorical(attr)) {
      EXPECT_LE(a.num_bins(attr), 64);
      for (int i = 0; i < a.num_cuts(attr); ++i) {
        EXPECT_EQ(a.cut(attr, i), b.cut(attr, i));
        if (i > 0) {
          EXPECT_LT(a.cut(attr, i - 1), a.cut(attr, i));
        }
      }
    }
  }
}

TEST(QuantizerTest, CategoricalBinsAreValueCodes) {
  Schema s;
  s.AddCategorical("c", 5);
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  for (int i = 0; i < 20; ++i) {
    v[0].cat = i % 5;
    ASSERT_TRUE(data.Append(v, i % 2).ok());
  }
  Quantizer q;
  ASSERT_TRUE(q.Build(data, 256).ok());
  EXPECT_TRUE(q.categorical(0));
  EXPECT_EQ(q.num_bins(0), 5);
  for (int code = 0; code < 5; ++code) {
    AttrValue av;
    av.cat = code;
    EXPECT_EQ(q.BinOf(0, av), code);
  }
}

TEST(QuantizerTest, CategoricalCardinalityOverBudgetIsRejected) {
  Schema s;
  s.AddCategorical("c", 300);
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  v[0].cat = 0;
  ASSERT_TRUE(data.Append(v, 0).ok());
  Quantizer q;
  EXPECT_FALSE(q.Build(data, 256).ok());
}

/// `count` strictly ascending cuts drawn from random bit patterns (NaNs
/// redrawn, -0 and +0 one value), so they span signs, denormals, the
/// infinities and the lowest float.
std::vector<float> RandomCuts(Random* rng, int count) {
  std::vector<float> cuts;
  while (static_cast<int>(cuts.size()) < count) {
    const float f = std::bit_cast<float>(static_cast<uint32_t>(rng->Next()));
    if (std::isnan(f)) continue;
    cuts.push_back(f);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  return cuts;
}

TEST(QuantizerTest, BinOfIsUpperBoundForEveryFloat) {
  // std::upper_bound over the cuts is the oracle. The probes cover every
  // edge class of float (signed zeros, infinities, NaNs of both signs, the
  // missing sentinel, denormals, each cut and its neighbours) and random
  // bit patterns, under every cut count the search steps differ for.
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Random rng(2026);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (int count : {0, 1, 2, 3, 63, 255}) {
    for (int round = 0; round < 4; ++round) {
      std::vector<float> cuts = RandomCuts(&rng, count);
      if (round == 1 && count > 0) cuts[0] = kMissingValue;
      if (round == 2) {  // small cuts around zero and the denormals
        cuts.clear();
        for (int i = 0; i < count; ++i) {
          cuts.push_back(static_cast<float>(i - count / 2) * denorm);
        }
      }
      const Quantizer q = Quantizer::FromCuts(s, {cuts});
      std::vector<float> probes = {0.0f,   -0.0f,  inf,     -inf,
                                   nan,    -nan,   denorm,  -denorm,
                                   kMissingValue,
                                   std::numeric_limits<float>::max(),
                                   std::numeric_limits<float>::min(),
                                   std::bit_cast<float>(0x7fa00001u),
                                   std::bit_cast<float>(0xffc00123u)};
      for (float c : cuts) {
        probes.push_back(c);
        probes.push_back(std::nextafter(c, -inf));
        probes.push_back(std::nextafter(c, inf));
      }
      for (int i = 0; i < 2000; ++i) {
        probes.push_back(
            std::bit_cast<float>(static_cast<uint32_t>(rng.Next())));
      }
      for (float p : probes) {
        AttrValue v;
        v.f = p;
        const auto expected =
            std::upper_bound(cuts.begin(), cuts.end(), p) - cuts.begin();
        ASSERT_EQ(q.BinOf(0, v), expected)
            << count << " cuts, probe bits 0x" << std::hex
            << std::bit_cast<uint32_t>(p);
      }
    }
  }
}

// ------------------------------------------------------------ split sweep

/// The continuous sweep as it was before it skipped empty bin rows: every
/// boundary is scored. The oracle EvaluateBinnedAttr must match.
SplitCandidate ReferenceBinnedSweep(const Quantizer& quantizer,
                                    const LeafHistogram& bins,
                                    const ClassHistogram& hist,
                                    int64_t n_total, int attr,
                                    SplitCriterion criterion, int* out_bin) {
  const int off = quantizer.offset(attr);
  const int nbins = quantizer.num_bins(attr);
  const int num_classes = hist.num_classes();
  ClassHistogram below(num_classes);
  ClassHistogram above = hist;
  int64_t nl = 0;
  SplitCandidate best;
  *out_bin = -1;
  for (int b = 0; b + 1 < nbins; ++b) {
    for (int c = 0; c < num_classes; ++c) {
      const int64_t n = bins.count(off + b, c);
      below.Add(static_cast<ClassLabel>(c), n);
      above.Remove(static_cast<ClassLabel>(c), n);
      nl += n;
    }
    if (nl == 0) continue;
    if (nl == n_total) break;
    SplitCandidate candidate;
    candidate.test.attr = attr;
    candidate.test.threshold = quantizer.cut(attr, b);
    candidate.gini =
        SplitImpurityWithTotals(below, above, nl, n_total - nl, criterion);
    candidate.left_count = nl;
    candidate.right_count = n_total - nl;
    if (candidate.BetterThan(best)) {
      best = candidate;
      *out_bin = b;
    }
  }
  return best;
}

TEST(SplitSweepTest, EmptyRowSkipKeepsTheReferenceWinner) {
  // Sparse rows of small counts: most boundaries follow an empty row, and
  // many score the same impurity, so both the skip and the tie rule decide
  // winners here.
  Random rng(31);
  for (int trial = 0; trial < 3000; ++trial) {
    const int num_classes = 2 + static_cast<int>(rng.Uniform(7));
    const int nbins = 1 + static_cast<int>(rng.Uniform(64));
    Schema s;
    s.AddContinuous("x");
    std::vector<std::string> classes;
    for (int c = 0; c < num_classes; ++c) classes.push_back(std::to_string(c));
    s.SetClassNames(classes);
    std::vector<float> cuts;
    for (int b = 0; b + 1 < nbins; ++b) cuts.push_back(static_cast<float>(b));
    const Quantizer q = Quantizer::FromCuts(s, {cuts});

    const double empty_share = rng.NextDouble();
    LeafHistogram bins;
    bins.Reset(q.total_bins(), num_classes);
    ClassHistogram hist(num_classes);
    for (int b = 0; b < nbins; ++b) {
      if (rng.NextDouble() < empty_share) continue;
      for (int c = 0; c < num_classes; ++c) {
        const int64_t n = static_cast<int64_t>(rng.Uniform(3));
        bins.Add(b, static_cast<ClassLabel>(c), n);
        hist.Add(static_cast<ClassLabel>(c), n);
      }
    }
    GiniOptions gini;
    gini.criterion =
        trial % 2 == 0 ? SplitCriterion::kGini : SplitCriterion::kEntropy;
    int want_bin = -1;
    const SplitCandidate want = ReferenceBinnedSweep(
        q, bins, hist, hist.Total(), 0, gini.criterion, &want_bin);
    GiniScratch scratch;
    SplitCandidate got;
    int got_bin = -7;
    const uint64_t examined = EvaluateBinnedAttr(
        q, bins, hist, hist.Total(), 0, gini, &scratch, &got, &got_bin);
    EXPECT_EQ(examined, static_cast<uint64_t>(nbins - 1));
    ASSERT_EQ(got.valid(), want.valid()) << "trial " << trial;
    EXPECT_EQ(got_bin, want_bin) << "trial " << trial;
    if (!want.valid()) continue;
    EXPECT_EQ(got.test.attr, want.test.attr);
    EXPECT_EQ(got.test.threshold, want.test.threshold) << "trial " << trial;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.gini),
              std::bit_cast<uint64_t>(want.gini))
        << "trial " << trial;
    EXPECT_EQ(got.left_count, want.left_count);
    EXPECT_EQ(got.right_count, want.right_count);
  }
}

// ------------------------------------------------------------ binned engine

TEST(BinnedBuilderTest, LearnsSimpleThresholdExactly) {
  // 100 distinct values fit the bin budget, so the binned tree must equal
  // the sorted engine's: split at 59.5, pure children.
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"neg", "pos"});
  Dataset data(s);
  TupleValues v(1);
  for (int i = 0; i < 100; ++i) {
    v[0].f = static_cast<float>(i);
    ASSERT_TRUE(data.Append(v, i < 60 ? 0 : 1).ok());
  }
  auto result = Train(data, Engine::kBinned);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DecisionTree& tree = *result->tree;
  EXPECT_EQ(tree.num_nodes(), 3);
  EXPECT_EQ(tree.node(tree.root()).split.attr, 0);
  EXPECT_EQ(tree.node(tree.root()).split.threshold, 59.5f);
  EXPECT_EQ(result->stats.build_stats.engine, std::string("binned"));
  EXPECT_GT(result->stats.build_stats.bins_scanned, 0u);
}

TEST(BinnedBuilderTest, PureRootStaysLeaf) {
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  for (int i = 0; i < 10; ++i) {
    v[0].f = static_cast<float>(i);
    ASSERT_TRUE(data.Append(v, 0).ok());
  }
  auto result = Train(data, Engine::kBinned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree->num_nodes(), 1);
  EXPECT_EQ(result->stats.build_stats.bins_scanned, 0u);
}

TEST(BinnedBuilderTest, AllValuesInOneBinWithMixedClassesStayLeaf) {
  // A constant attribute maps every record to one bin: no boundary has
  // records on both sides, so no valid split exists.
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  v[0].f = 3.0f;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(data.Append(v, i % 3 == 0 ? 0 : 1).ok());
  }
  auto result = Train(data, Engine::kBinned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree->num_nodes(), 1);
  EXPECT_EQ(result->tree->node(0).majority, 1);
}

TEST(BinnedBuilderTest, MinSplitStopsGrowth) {
  const Dataset data = MakeAgrawal(7, 2000, 42);
  ClassifierOptions loose;
  loose.build.min_split = 2;
  ClassifierOptions tight;
  tight.build.min_split = 200;
  auto big = Train(data, Engine::kBinned, loose);
  auto small = Train(data, Engine::kBinned, tight);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  EXPECT_LT(small->tree->num_nodes(), big->tree->num_nodes());
}

TEST(BinnedBuilderTest, EPhaseCostIsBinsNotRecords) {
  // One continuous attribute with 100 distinct values over 100 records, a
  // split into two pure children: exactly one E pass over the root's 99
  // boundaries, regardless of record count per bin.
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"neg", "pos"});
  Dataset data(s);
  TupleValues v(1);
  for (int rep = 0; rep < 5; ++rep) {
    for (int i = 0; i < 100; ++i) {
      v[0].f = static_cast<float>(i);
      ASSERT_TRUE(data.Append(v, i < 60 ? 0 : 1).ok());
    }
  }
  auto result = Train(data, Engine::kBinned);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tree->num_nodes(), 3);  // pure children: only root ran E
  EXPECT_EQ(result->stats.build_stats.bins_scanned, 99u);
}

TEST(BinnedBuilderTest, BinsScannedIsFarBelowRecordCost) {
  // On a real dataset the E phase must touch O(nodes x attrs x bins)
  // boundaries -- far fewer than the O(records) per (leaf, attr) the sorted
  // engine scans. The sorted engine's root E alone costs ~attrs x records.
  const int64_t n = 20000;
  const Dataset data = MakeAgrawal(5, n, 42);
  ClassifierOptions options;
  options.build.max_levels = 4;
  auto result = Train(data, Engine::kBinned, options);
  ASSERT_TRUE(result.ok());
  const uint64_t bins_scanned = result->stats.build_stats.bins_scanned;
  const uint64_t nodes =
      static_cast<uint64_t>(result->tree->num_nodes());
  EXPECT_GT(bins_scanned, 0u);
  EXPECT_LE(bins_scanned, nodes * 9 * 256);
  EXPECT_LT(bins_scanned, static_cast<uint64_t>(9 * (n - 1)));
}

TEST(BinnedBuilderTest, WinnerParityWithSortedEngineOnCoveredData) {
  // Snap the continuous attributes to a coarse grid so every attribute has
  // far fewer than max_bins distinct values: the quantizer's candidate set
  // then equals the exact engine's, and the two trees must agree on
  // structure, split attributes, and every training prediction. Thresholds
  // are not compared: at leaves whose local values leave gaps the engines
  // may place the (equivalent) cut at different midpoints.
  const Dataset data = CoarsenContinuous(MakeAgrawal(5, 3000, 7), 200);
  auto sorted = Train(data, Engine::kSorted);
  auto binned = Train(data, Engine::kBinned);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_TRUE(binned.ok()) << binned.status().ToString();
  ASSERT_EQ(sorted->tree->num_nodes(), binned->tree->num_nodes());
  for (int i = 0; i < sorted->tree->num_nodes(); ++i) {
    const TreeNode& a = sorted->tree->node(i);
    const TreeNode& b = binned->tree->node(i);
    ASSERT_EQ(a.is_leaf(), b.is_leaf()) << "node " << i;
    EXPECT_EQ(a.majority, b.majority) << "node " << i;
    if (!a.is_leaf()) {
      EXPECT_EQ(a.split.attr, b.split.attr) << "node " << i;
      EXPECT_EQ(a.split.categorical, b.split.categorical) << "node " << i;
      if (a.split.categorical) {
        EXPECT_EQ(a.split.subset, b.split.subset) << "node " << i;
      }
    }
  }
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    ASSERT_EQ(sorted->tree->Classify(data, t), binned->tree->Classify(data, t))
        << "tuple " << t;
  }
}

TEST(BinnedBuilderTest, TreesAreIdenticalAcrossThreadCounts) {
  const Dataset data = MakeAgrawal(5, 3000, 42);
  ClassifierOptions p1;
  p1.build.num_threads = 1;
  ClassifierOptions p4;
  p4.build.num_threads = 4;
  auto a = Train(data, Engine::kBinned, p1);
  auto b = Train(data, Engine::kBinned, p4);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(TreesEqual(*a->tree, *b->tree));
  EXPECT_EQ(SerializeTree(*a->tree), SerializeTree(*b->tree));
}

TEST(BinnedBuilderTest, AccuracyStaysCloseToExactEngine) {
  // Quantile mode (far more distinct values than bins): the binned tree is
  // approximate. Measure the delta against the exact engine on held-out
  // data and bound it -- the engine's accuracy contract, asserted, not
  // assumed.
  for (int function : {1, 5, 7}) {
    const Dataset train = MakeAgrawal(function, 8000, 42);
    const Dataset test = MakeAgrawal(function, 4000, 977);
    auto sorted = Train(train, Engine::kSorted);
    auto binned = Train(train, Engine::kBinned);
    ASSERT_TRUE(sorted.ok());
    ASSERT_TRUE(binned.ok());
    const double train_delta = TreeAccuracy(*binned->tree, train) -
                               TreeAccuracy(*sorted->tree, train);
    const double test_delta = TreeAccuracy(*binned->tree, test) -
                              TreeAccuracy(*sorted->tree, test);
    EXPECT_LE(std::abs(train_delta), 0.01)
        << "F" << function << " train delta " << train_delta;
    EXPECT_LE(std::abs(test_delta), 0.02)
        << "F" << function << " test delta " << test_delta;
  }
}

TEST(BinnedBuilderTest, SmallBinBudgetStillLearns) {
  // 32 is the smallest power of two that still fits the Agrawal 'car'
  // attribute's 20 value codes (categorical bins are exact, never merged).
  const Dataset train = MakeAgrawal(1, 4000, 42);
  ClassifierOptions options;
  options.build.max_bins = 32;
  auto result = Train(train, Engine::kBinned, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(TreeAccuracy(*result->tree, train), 0.9);
}

TEST(BinnedBuilderTest, FeatureSamplingGatesEvaluationOnly) {
  const Dataset data = MakeAgrawal(5, 3000, 42);
  ClassifierOptions options;
  options.build.feature_sampling.features_per_node = 3;
  options.build.feature_sampling.seed = 17;
  options.build.num_threads = 2;
  auto result = Train(data, Engine::kBinned, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(TreeAccuracy(*result->tree, data), 0.7);
}

TEST(BinnedBuilderTest, MaxBinsOutOfRangeIsRejected) {
  const Dataset data = MakeAgrawal(1, 200, 42);
  for (int bad : {0, 1, 257, 1000}) {
    ClassifierOptions options;
    options.build.max_bins = bad;
    auto result = Train(data, Engine::kBinned, options);
    EXPECT_FALSE(result.ok()) << "max_bins " << bad;
  }
}

/// One binned build over `data`'s own bins with the given row weights.
Result<std::string> BuildWeighted(const Dataset& data,
                                  std::span<const int32_t> weights,
                                  int threads) {
  Quantizer quantizer;
  SMPTREE_RETURN_IF_ERROR(quantizer.Build(data, 64));
  BinMatrix bins;
  SMPTREE_RETURN_IF_ERROR(bins.Materialize(data, quantizer));
  BuildOptions options;
  options.num_threads = threads;
  DecisionTree tree(data.schema());
  BuildCounters counters;
  std::vector<LevelTraceEntry> trace;
  SMPTREE_RETURN_IF_ERROR(BuildTreeBinned(data, quantizer, bins, weights,
                                          options, &tree, &counters, &trace));
  return SerializeTree(tree);
}

TEST(BinnedBuilderTest, UnitWeightsGrowTheUnweightedTree) {
  const Dataset data = MakeAgrawal(5, 2000, 42);
  const std::vector<int32_t> ones(static_cast<size_t>(data.num_tuples()), 1);
  for (int threads : {1, 3}) {
    auto plain = BuildWeighted(data, {}, threads);
    auto weighted = BuildWeighted(data, ones, threads);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(weighted.ok()) << weighted.status().ToString();
    EXPECT_EQ(*plain, *weighted) << "P=" << threads;
  }
}

TEST(BinnedBuilderTest, ZeroWeightRowsNeverReachTheTree) {
  // Weight 0 on every class-1 row leaves a pure class-0 root: a single leaf
  // whose counts hold no class-1 tuple.
  const Dataset data = MakeAgrawal(1, 600, 42);
  std::vector<int32_t> weights(static_cast<size_t>(data.num_tuples()));
  int64_t kept = 0;
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    weights[static_cast<size_t>(t)] = data.label(t) == 0 ? 2 : 0;
    kept += weights[static_cast<size_t>(t)];
  }
  Quantizer quantizer;
  ASSERT_TRUE(quantizer.Build(data, 64).ok());
  BinMatrix bins;
  ASSERT_TRUE(bins.Materialize(data, quantizer).ok());
  DecisionTree tree(data.schema());
  BuildCounters counters;
  std::vector<LevelTraceEntry> trace;
  ASSERT_TRUE(BuildTreeBinned(data, quantizer, bins, weights, BuildOptions(),
                              &tree, &counters, &trace)
                  .ok());
  ASSERT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.node(tree.root()).class_counts,
            (std::vector<int64_t>{kept, 0}));
}

TEST(BinnedBuilderTest, MalformedWeightsAreRejected) {
  const Dataset data = MakeAgrawal(1, 300, 42);
  const std::vector<int32_t> short_weights(10, 1);
  EXPECT_TRUE(
      BuildWeighted(data, short_weights, 1).status().IsInvalidArgument());
  std::vector<int32_t> negative(static_cast<size_t>(data.num_tuples()), 1);
  negative[7] = -1;
  EXPECT_TRUE(BuildWeighted(data, negative, 2).status().IsInvalidArgument());
}

TEST(BinnedBuilderTest, MulticlassBinnedBuildWorks) {
  MulticlassConfig cfg;
  cfg.num_classes = 4;
  cfg.num_tuples = 3000;
  auto data = GenerateMulticlassSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  auto binned = Train(*data, Engine::kBinned);
  auto sorted = Train(*data, Engine::kSorted);
  ASSERT_TRUE(binned.ok()) << binned.status().ToString();
  ASSERT_TRUE(sorted.ok());
  const double delta =
      TreeAccuracy(*binned->tree, *data) - TreeAccuracy(*sorted->tree, *data);
  EXPECT_LE(std::abs(delta), 0.02) << "train delta " << delta;
}

}  // namespace
}  // namespace smptree
