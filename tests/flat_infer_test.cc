// Flat-inference parity suite: the flattened models (infer/flat_tree.h)
// and the batched level-synchronous scorer (infer/batch_scorer.h) must be
// BYTE-IDENTICAL to the pointer path -- same labels as
// DecisionTree::Classify / Forest::Vote, bit-equal probabilities vs
// Forest::Probabilities -- across every builder, both training engines,
// pruned/collapsed trees, forests, missing values, and the >64-value
// categorical subset path. This is the contract that lets the serving
// stack swap representations without anyone noticing (ISSUE 8 acceptance).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/classifier.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "infer/batch_scorer.h"
#include "infer/flat_tree.h"
#include "serve/batch.h"
#include "util/random.h"

namespace smptree {
namespace {

Dataset TestData(int function, int64_t tuples, uint64_t seed,
                 double noise = 0.0) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = seed;
  cfg.label_noise = noise;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*data);
}

DecisionTree Train(const Dataset& data, Algorithm algorithm,
                   Engine engine = Engine::kSorted,
                   PruneOptions::Method prune = PruneOptions::Method::kNone,
                   int threads = 2) {
  ClassifierOptions options;
  options.build.algorithm = algorithm;
  options.build.engine = engine;
  options.build.num_threads = threads;
  options.prune.method = prune;
  auto result = TrainClassifier(data, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result->tree);
}

/// Scores `data` both ways -- pointer Classify per tuple vs flat
/// Classify and one BatchScorer pass -- and asserts label equality.
void ExpectTreeParity(const DecisionTree& tree, const Dataset& data) {
  const FlatTree flat = FlatTree::Compile(tree);
  const ColumnBlock& batch = data.block();
  std::vector<ClassLabel> labels(static_cast<size_t>(data.num_tuples()));
  BatchScorer scorer;
  scorer.ScoreTree(flat, batch, labels.data());
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    const TupleValues row = data.Tuple(t);
    const ClassLabel expected = tree.Classify(row);
    ASSERT_EQ(expected, flat.Classify(row)) << "tuple " << t;
    ASSERT_EQ(expected, labels[static_cast<size_t>(t)]) << "tuple " << t;
  }
}

TEST(FlatTreeTest, CompiledShapeMatchesTree) {
  const Dataset data = TestData(5, 2000, 17);
  const DecisionTree tree = Train(data, Algorithm::kSerial);
  const FlatTree flat = FlatTree::Compile(tree);
  EXPECT_EQ(tree.num_nodes(), flat.num_nodes());
  EXPECT_EQ(tree.Stats().levels, flat.levels());
  EXPECT_GT(flat.bytes(), 0u);
  EXPECT_FALSE(flat.empty());
}

TEST(FlatTreeTest, EmptyTreeCompilesEmpty) {
  Schema schema;
  schema.AddContinuous("x");
  schema.SetClassNames({"a", "b"});
  const FlatTree flat = FlatTree::Compile(DecisionTree(schema));
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(0, flat.num_nodes());
  EXPECT_EQ(0, flat.levels());
}

TEST(FlatTreeTest, SingleLeafRootScoresEverything) {
  Schema schema;
  schema.AddContinuous("x");
  schema.SetClassNames({"a", "b"});
  DecisionTree tree(schema);
  ClassHistogram counts(2);
  counts.Add(1);
  counts.Add(1);
  counts.Add(1);
  tree.CreateRoot(counts);  // pure class-1 root: a one-node tree
  ExpectTreeParity(tree, [&] {
    Dataset data(schema);
    Random rng(3);
    for (int i = 0; i < 700; ++i) {
      TupleValues row(1);
      row[0].f = static_cast<float>(rng.UniformDouble(-10, 10));
      EXPECT_TRUE(data.Append(row, 0).ok());
    }
    return data;
  }());
}

TEST(FlatTreeTest, ParityAcrossBuilders) {
  // Same honest setup as the kernel parity suite: noisy training data so
  // the trees are deep and irregular, a held-out set from a different seed.
  const Dataset train = TestData(5, 3000, 101, 0.08);
  const Dataset eval = TestData(5, 1500, 777, 0.08);
  for (const Algorithm algorithm :
       {Algorithm::kSerial, Algorithm::kBasic, Algorithm::kFwk,
        Algorithm::kMwk, Algorithm::kSubtree, Algorithm::kRecordParallel}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    const DecisionTree tree = Train(train, algorithm);
    ExpectTreeParity(tree, train);
    ExpectTreeParity(tree, eval);
  }
}

TEST(FlatTreeTest, ParityOnBinnedEngineTrees) {
  const Dataset train = TestData(7, 3000, 55, 0.05);
  const Dataset eval = TestData(7, 1500, 56, 0.05);
  const DecisionTree tree = Train(train, Algorithm::kSerial, Engine::kBinned);
  ExpectTreeParity(tree, train);
  ExpectTreeParity(tree, eval);
}

TEST(FlatTreeTest, ParityOnPrunedTrees) {
  const Dataset train = TestData(2, 2500, 21, 0.15);
  const Dataset eval = TestData(2, 1200, 22, 0.15);
  for (const auto prune : {PruneOptions::Method::kPessimistic,
                           PruneOptions::Method::kCostComplexity}) {
    const DecisionTree tree =
        Train(train, Algorithm::kMwk, Engine::kSorted, prune);
    ExpectTreeParity(tree, train);
    ExpectTreeParity(tree, eval);
  }
}

TEST(FlatTreeTest, ParityWithMissingValues) {
  // Inject ~15% missing continuous values into a held-out copy; missing is
  // the lowest float, so it must keep going left in the flat form too.
  const Dataset train = TestData(6, 2500, 31, 0.05);
  const DecisionTree tree = Train(train, Algorithm::kBasic);
  Dataset eval(train.schema());
  Random rng(99);
  for (int64_t t = 0; t < 1200; ++t) {
    TupleValues row = train.Tuple(t);
    for (int a = 0; a < train.schema().num_attrs(); ++a) {
      if (!train.schema().attr(a).is_categorical() && rng.Bernoulli(0.15)) {
        row[static_cast<size_t>(a)].f = kMissingValue;
      }
    }
    ASSERT_TRUE(eval.Append(row, train.label(t)).ok());
  }
  ExpectTreeParity(tree, eval);
}

TEST(FlatTreeTest, BigSubsetParity) {
  // Categorical cardinality > 64 forces the big-word pool path; probe the
  // word boundaries and the out-of-range / negative-code edges directly.
  Schema schema;
  schema.AddCategorical("zip", 100);
  schema.SetClassNames({"yes", "no"});
  DecisionTree tree(schema);
  ClassHistogram mixed(2);
  mixed.Add(0);
  mixed.Add(0);
  mixed.Add(1);
  mixed.Add(1);
  const NodeId root = tree.CreateRoot(mixed);
  SplitTest t;
  t.attr = 0;
  t.categorical = true;
  auto words = std::make_shared<std::vector<uint64_t>>(2, 0);
  (*words)[0] = 0x8000000000000001ull;  // codes 0 and 63
  (*words)[1] = 0x1ull << 35;           // code 99
  t.big_subset = BigSubset(std::move(words));
  tree.SetSplit(root, t);
  ClassHistogram yes(2);
  yes.Add(0);
  yes.Add(0);
  ClassHistogram no(2);
  no.Add(1);
  no.Add(1);
  tree.AddChild(root, true, yes);
  tree.AddChild(root, false, no);

  const FlatTree flat = FlatTree::Compile(tree);
  for (const int32_t code : {0, 1, 35, 63, 64, 65, 99, 100, 1000, -1, -70}) {
    TupleValues row(1);
    row[0].cat = code;
    EXPECT_EQ(tree.Classify(row), flat.Classify(row)) << "code " << code;
  }

  // Batch path over every in-range code.
  Dataset data(schema);
  for (int32_t code = 0; code < 100; ++code) {
    TupleValues row(1);
    row[0].cat = code;
    ASSERT_TRUE(data.Append(row, 0).ok());
  }
  ExpectTreeParity(tree, data);
}

TEST(FlatTreeTest, BlockBoundaryBatchSizes) {
  // The scorer walks 512-tuple blocks; pin exact behavior at and around
  // the block edges (including a final partial block).
  const Dataset data = TestData(7, 1400, 41, 0.05);
  const DecisionTree tree = Train(data, Algorithm::kFwk);
  const FlatTree flat = FlatTree::Compile(tree);
  BatchScorer scorer;
  for (const int64_t size : {int64_t{1}, int64_t{3}, int64_t{511},
                             int64_t{512}, int64_t{513}, int64_t{1025},
                             int64_t{1400}}) {
    const Dataset prefix = TakePrefix(data, size);
    const ColumnBlock& batch = prefix.block();
    std::vector<ClassLabel> labels(static_cast<size_t>(size));
    scorer.ScoreTree(flat, batch, labels.data());
    for (int64_t t = 0; t < size; ++t) {
      ASSERT_EQ(tree.Classify(data, t), labels[static_cast<size_t>(t)])
          << "size " << size << " tuple " << t;
    }
  }
}

TEST(FlatForestTest, VotesAndProbsAreByteIdentical) {
  const Dataset train = TestData(5, 2000, 61, 0.08);
  const Dataset eval = TestData(5, 900, 62, 0.08);
  ForestOptions options;
  options.num_trees = 7;
  options.features_per_node = 3;
  options.num_threads = 2;
  auto result = TrainForest(train, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Forest& forest = *result->forest;

  const FlatForest flat = FlatForest::Compile(forest);
  ASSERT_EQ(forest.num_trees(), flat.num_trees());
  EXPECT_EQ(train.schema().num_classes(), flat.num_classes());
  EXPECT_GT(flat.bytes(), 0u);

  const ColumnBlock& batch = eval.block();
  const size_t k = static_cast<size_t>(flat.num_classes());
  std::vector<ClassLabel> labels(static_cast<size_t>(eval.num_tuples()));
  std::vector<double> probs(static_cast<size_t>(eval.num_tuples()) * k);
  BatchScorer scorer;
  scorer.ScoreForest(flat, batch, labels.data(), probs.data());

  std::vector<double> expected_probs;
  for (int64_t t = 0; t < eval.num_tuples(); ++t) {
    const TupleValues row = eval.Tuple(t);
    const ClassLabel expected = forest.Probabilities(row, &expected_probs);
    ASSERT_EQ(expected, labels[static_cast<size_t>(t)]) << "tuple " << t;
    for (size_t c = 0; c < k; ++c) {
      // Bit-identical, not approximately equal: same counts, same divide.
      ASSERT_EQ(expected_probs[c], probs[static_cast<size_t>(t) * k + c])
          << "tuple " << t << " class " << c;
    }
  }
}

TEST(FlatForestTest, MulticlassForestParity) {
  // >2 classes exercises the lowest-label-wins tie-break in the argmax.
  MulticlassConfig cfg;
  cfg.num_classes = 4;
  cfg.num_attrs = 9;
  cfg.num_tuples = 1500;
  cfg.seed = 71;
  cfg.label_noise = 0.1;
  auto train = GenerateMulticlassSynthetic(cfg);
  ASSERT_TRUE(train.ok()) << train.status().ToString();
  cfg.seed = 72;
  auto eval = GenerateMulticlassSynthetic(cfg);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();

  ForestOptions options;
  options.num_trees = 6;  // even count: vote ties happen, tie-break matters
  options.num_threads = 2;
  auto result = TrainForest(*train, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Forest& forest = *result->forest;
  const FlatForest flat = FlatForest::Compile(forest);

  const ColumnBlock& batch = eval->block();
  const size_t k = static_cast<size_t>(flat.num_classes());
  std::vector<ClassLabel> labels(static_cast<size_t>(eval->num_tuples()));
  std::vector<double> probs(static_cast<size_t>(eval->num_tuples()) * k);
  BatchScorer scorer;
  scorer.ScoreForest(flat, batch, labels.data(), probs.data());
  std::vector<double> expected_probs;
  for (int64_t t = 0; t < eval->num_tuples(); ++t) {
    const TupleValues row = eval->Tuple(t);
    ASSERT_EQ(forest.Probabilities(row, &expected_probs),
              labels[static_cast<size_t>(t)])
        << "tuple " << t;
    for (size_t c = 0; c < k; ++c) {
      ASSERT_EQ(expected_probs[c], probs[static_cast<size_t>(t) * k + c]);
    }
  }
}

}  // namespace
}  // namespace smptree
