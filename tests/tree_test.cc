#include "core/tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/tree_io.h"

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

/// The paper's Figure 1 car-insurance tree:
///   age < 27.5 ? high : (car in {sports} ? high : low)
DecisionTree BuildCarTree() {
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
  car_test.subset = 0b010;  // {sports}
  tree.SetSplit(right, car_test);
  tree.AddChild(right, true, Hist(1, 0));
  tree.AddChild(right, false, Hist(0, 3));
  return tree;
}

TupleValues Tuple(float age, int32_t car) {
  TupleValues v(2);
  v[0].f = age;
  v[1].cat = car;
  return v;
}

TEST(DecisionTreeTest, RootOnlyClassifiesMajority) {
  DecisionTree tree(CarSchema());
  tree.CreateRoot(Hist(1, 5));
  EXPECT_EQ(tree.Classify(Tuple(40, 0)), 1);
  EXPECT_EQ(tree.num_nodes(), 1);
}

TEST(DecisionTreeTest, CarInsuranceExample) {
  DecisionTree tree = BuildCarTree();
  EXPECT_EQ(tree.num_nodes(), 5);
  EXPECT_EQ(tree.Classify(Tuple(20, 0)), 0);   // young -> high
  EXPECT_EQ(tree.Classify(Tuple(40, 1)), 0);   // sports -> high
  EXPECT_EQ(tree.Classify(Tuple(40, 0)), 1);   // older sedan -> low
  EXPECT_EQ(tree.Classify(Tuple(27.5, 2)), 1); // boundary goes right
}

TEST(DecisionTreeTest, ClassifyFromDataset) {
  DecisionTree tree = BuildCarTree();
  Dataset data(CarSchema());
  ASSERT_TRUE(data.Append(Tuple(20, 0), 0).ok());
  ASSERT_TRUE(data.Append(Tuple(50, 2), 1).ok());
  EXPECT_EQ(tree.Classify(data, 0), 0);
  EXPECT_EQ(tree.Classify(data, 1), 1);
}

TEST(DecisionTreeTest, NodeRelations) {
  DecisionTree tree = BuildCarTree();
  const TreeNode& root = tree.node(tree.root());
  EXPECT_FALSE(root.is_leaf());
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(tree.node(root.left).parent, tree.root());
  EXPECT_EQ(tree.node(root.right).depth, 1);
  EXPECT_EQ(root.tuple_count(), 6);
}

TEST(DecisionTreeTest, StatsCountLevelsAndLeaves) {
  DecisionTree tree = BuildCarTree();
  const TreeStats stats = tree.Stats();
  EXPECT_EQ(stats.num_nodes, 5);
  EXPECT_EQ(stats.num_leaves, 3);
  EXPECT_EQ(stats.levels, 3);
  EXPECT_EQ(stats.max_leaves_per_level, 2);
}

TEST(DecisionTreeTest, ToStringShowsTests) {
  const std::string s = BuildCarTree().ToString();
  EXPECT_NE(s.find("age < 27.5"), std::string::npos);
  EXPECT_NE(s.find("car in {sports}"), std::string::npos);
  EXPECT_NE(s.find("leaf: low"), std::string::npos);
}

TEST(DecisionTreeTest, MakeLeafDetachesChildren) {
  DecisionTree tree = BuildCarTree();
  const NodeId right = tree.node(tree.root()).right;
  tree.MakeLeaf(right);
  EXPECT_TRUE(tree.node(right).is_leaf());
  // Majority of the detached subtree's distribution (1 high, 3 low) -> low.
  EXPECT_EQ(tree.Classify(Tuple(40, 1)), 1);
}

TEST(DecisionTreeTest, CompactAfterPruneDropsOrphans) {
  DecisionTree tree = BuildCarTree();
  tree.MakeLeaf(tree.node(tree.root()).right);
  tree.CompactAfterPrune();
  EXPECT_EQ(tree.num_nodes(), 3);
  const TreeStats stats = tree.Stats();
  EXPECT_EQ(stats.num_leaves, 2);
  EXPECT_EQ(stats.levels, 2);
  // Classification is unchanged.
  EXPECT_EQ(tree.Classify(Tuple(20, 0)), 0);
  EXPECT_EQ(tree.Classify(Tuple(40, 1)), 1);
}

TEST(DecisionTreeTest, CloneIsAnIndependentPreorderCopy) {
  DecisionTree tree = BuildCarTree();
  const DecisionTree copy = tree.Clone();
  ASSERT_TRUE(copy.Validate().ok()) << copy.Validate().ToString();
  EXPECT_TRUE(TreesEqual(tree, copy));
  EXPECT_EQ(SerializeTree(tree), SerializeTree(copy));
  // Changing the source leaves the copy alone.
  tree.MakeLeaf(tree.root());
  EXPECT_FALSE(copy.node(copy.root()).is_leaf());
  EXPECT_EQ(DecisionTree(CarSchema()).Clone().num_nodes(), 0);

  // Ids are renumbered in preorder: split the left child after the right
  // child exists, and the clone still numbers the left subtree first.
  DecisionTree grown(CarSchema());
  const NodeId root = grown.CreateRoot(Hist(3, 3));
  SplitTest age_test;
  age_test.attr = 0;
  age_test.threshold = 27.5f;
  grown.SetSplit(root, age_test);
  const NodeId left = grown.AddChild(root, true, Hist(2, 1));
  grown.AddChild(root, false, Hist(1, 2));
  SplitTest car_test;
  car_test.attr = 1;
  car_test.categorical = true;
  car_test.subset = 0b010;
  grown.SetSplit(left, car_test);
  grown.AddChild(left, true, Hist(2, 0));
  grown.AddChild(left, false, Hist(0, 1));
  ASSERT_EQ(grown.node(root).right, 2);
  const DecisionTree renumbered = grown.Clone();
  ASSERT_TRUE(renumbered.Validate().ok());
  EXPECT_TRUE(TreesEqual(grown, renumbered));
  EXPECT_EQ(renumbered.node(renumbered.root()).right, 4);
  EXPECT_EQ(renumbered.node(4).parent, 0);
}

TEST(DecisionTreeTest, MoveTransfersNodes) {
  DecisionTree a = BuildCarTree();
  const int64_t nodes = a.num_nodes();
  DecisionTree b = std::move(a);
  EXPECT_EQ(b.num_nodes(), nodes);
  EXPECT_EQ(b.Classify(Tuple(20, 0)), 0);
  DecisionTree c(CarSchema());
  c = std::move(b);
  EXPECT_EQ(c.num_nodes(), nodes);
  EXPECT_EQ(c.Classify(Tuple(40, 0)), 1);
}

TEST(DecisionTreeTest, ArenaCrossesChunkBoundaries) {
  // The node arena allocates 1024-node chunks; a tree bigger than several
  // chunks must keep ids stable across the boundaries.
  DecisionTree tree(CarSchema());
  NodeId parent = tree.CreateRoot(Hist(5000, 5000));
  for (int i = 0; i < 2500; ++i) {
    SplitTest t;
    t.attr = 0;
    t.threshold = static_cast<float>(i);
    tree.SetSplit(parent, t);
    tree.AddChild(parent, true, Hist(1, 0));
    parent = tree.AddChild(parent, false, Hist(2499 - i, 2500));
  }
  EXPECT_EQ(tree.num_nodes(), 1 + 2 * 2500);
  // Nodes on either side of the first chunk boundary are fully linked.
  EXPECT_EQ(tree.node(tree.node(1024).parent).depth + 1,
            tree.node(1024).depth);
  const TreeStats stats = tree.Stats();
  EXPECT_EQ(stats.levels, 2501);
  EXPECT_EQ(stats.num_leaves, 2501);
}

TEST(DecisionTreeTest, ValidateAcceptsBuiltTree) {
  EXPECT_TRUE(BuildCarTree().Validate().ok());
}

TEST(DecisionTreeTest, ValidateCatchesCountMismatch) {
  DecisionTree tree = BuildCarTree();
  tree.mutable_node(tree.node(tree.root()).left).class_counts[0] += 1;
  EXPECT_TRUE(tree.Validate().IsCorruption());
}

TEST(DecisionTreeTest, ValidateCatchesWrongSplitKind) {
  DecisionTree tree = BuildCarTree();
  SplitTest t;
  t.attr = 1;  // categorical attribute...
  t.categorical = false;  // ...claimed continuous
  t.threshold = 1.0f;
  tree.SetSplit(tree.root(), t);
  EXPECT_TRUE(tree.Validate().IsCorruption());
}

TEST(DecisionTreeTest, ConcurrentAddChildIsSafe) {
  DecisionTree tree(CarSchema());
  const NodeId root = tree.CreateRoot(Hist(10, 10));
  // Build a wide fan: threads attach children under distinct parents they
  // created, mimicking SUBTREE groups growing disjoint subtrees.
  std::vector<std::thread> threads;
  std::vector<NodeId> anchors(4);
  for (int t = 0; t < 4; ++t) {
    anchors[t] = t == 0 ? tree.AddChild(root, true, Hist(1, 1))
                        : tree.AddChild(root, false, Hist(1, 1));
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tree, &anchors, t] {
      NodeId parent = anchors[t];
      for (int i = 0; i < 200; ++i) {
        const NodeId child = tree.AddChild(parent, i % 2 == 0, Hist(1, 1));
        if (i % 2 == 0) parent = child;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.num_nodes(), 1 + 4 + 4 * 200);
}

// The serving contract documented in tree.h: a fully-built, published tree
// supports unlimited lock-free concurrent readers. Run under TSan in CI,
// this is the audit that no reader lazily mutates state.
TEST(DecisionTreeTest, ConcurrentReadersAreSafe) {
  const DecisionTree tree = BuildCarTree();
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&tree, &failures, t] {
      for (int i = 0; i < 2000; ++i) {
        const float age = static_cast<float>((i * 7 + t * 13) % 60);
        const int32_t car = (i + t) % 3;
        const ClassLabel got = tree.Classify(Tuple(age, car));
        const ClassLabel want =
            age < 27.5f ? 0 : (car == 1 ? 0 : 1);
        if (got != want) failures.fetch_add(1);
        if (i % 500 == 0) {
          if (!tree.Validate().ok()) failures.fetch_add(1);
          if (tree.Stats().num_leaves != 3) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// The chunk table starts at a few entries and grows by publishing doubled
// copies. Readers index published nodes lock-free while a writer appends
// past several doublings; run under TSan, this checks the table handoff and
// that retired tables stay readable.
TEST(DecisionTreeTest, ReadersDuringTableGrowthSeeEveryPublishedNode) {
  // A left chain: node k has depth k and parent k-1. 40 chunks of 1024
  // nodes take the table through several doublings.
  constexpr int64_t kNodes = 40 * 1024;
  DecisionTree tree(CarSchema());
  tree.CreateRoot(Hist(1, 0));
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&tree, &done, &failures, &checked, r] {
      int64_t probe = r;
      // At least one pass, and one more after the writer finished.
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        const int64_t n = tree.num_nodes();
        // The newest node (likely in a just-published chunk or table) and
        // one older node that may sit behind a retired table.
        probe = (probe * 7919 + 13) % n;
        for (const int64_t id : {n - 1, probe}) {
          const TreeNode& node = tree.node(static_cast<NodeId>(id));
          if (node.depth != id) failures.fetch_add(1, std::memory_order_relaxed);
          if (node.parent != (id == 0 ? kInvalidNode : id - 1)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  NodeId parent = tree.root();
  for (int64_t i = 1; i < kNodes; ++i) {
    parent = tree.AddChild(parent, true, Hist(1, 0));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_GT(checked.load(std::memory_order_relaxed), 0);
  ASSERT_EQ(tree.num_nodes(), kNodes);
  for (const NodeId id : {0, 4095, 4096, 8192, 16384, 32768,
                          static_cast<NodeId>(kNodes - 1)}) {
    EXPECT_EQ(tree.node(id).depth, id);
  }
}

}  // namespace
}  // namespace smptree
