// Unit tests of the E/W/S level engine (BuildContext) below the builder
// level: root initialization, winner selection + probe construction, the
// child-slot relabelling of paper Figure 5, and option validation.

#include "core/builder_context.h"

#include <gtest/gtest.h>

#include "core/classifier.h"
#include "core/presort.h"
#include "data/synthetic.h"

namespace smptree {
namespace {

Dataset TinyThreshold() {
  Schema s;
  s.AddContinuous("x");
  s.AddContinuous("noise");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(2);
  for (int i = 0; i < 40; ++i) {
    v[0].f = static_cast<float>(i);
    v[1].f = static_cast<float>((i * 7919) % 13);
    EXPECT_TRUE(data.Append(v, i < 25 ? 0 : 1).ok());
  }
  return data;
}

class BuilderContextTest : public ::testing::Test {
 protected:
  void Init(Dataset data, BuildOptions options = {}) {
    // Keep the dataset alive for the context's lifetime.
    data_ = std::make_unique<Dataset>(std::move(data));
    options_ = options;
    tree_ = std::make_unique<DecisionTree>(data_->schema());
    ctx_ = std::make_unique<BuildContext>(*data_, options_, tree_.get(),
                                          &counters_);
    auto lists = BuildAttributeLists(*data_);
    ASSERT_TRUE(lists.ok());
    ASSERT_TRUE(ctx_->InitRoot(std::move(lists).value(), &level_).ok());
  }

  void TearDown() override {
    if (ctx_) ctx_->env()->RemoveDirRecursive(ctx_->scratch_dir());
  }

  std::unique_ptr<Dataset> data_;
  BuildOptions options_;
  std::unique_ptr<DecisionTree> tree_;
  BuildCounters counters_;
  std::unique_ptr<BuildContext> ctx_;
  std::vector<LeafTask> level_;
};

TEST_F(BuilderContextTest, InitRootCreatesRootTask) {
  Init(TinyThreshold());
  ASSERT_EQ(level_.size(), 1u);
  EXPECT_EQ(level_[0].node, tree_->root());
  EXPECT_EQ(level_[0].seg.count, 40u);
  EXPECT_EQ(level_[0].seg.slot, 0);
  EXPECT_EQ(level_[0].hist.count(0), 25);
  EXPECT_EQ(level_[0].hist.count(1), 15);
  EXPECT_EQ(level_[0].candidates.size(), 2u);
  EXPECT_EQ(tree_->num_nodes(), 1);
}

TEST_F(BuilderContextTest, EvaluateFindsThresholdOnSignalAttr) {
  Init(TinyThreshold());
  GiniScratch scratch;
  ASSERT_TRUE(ctx_->EvaluateLeafAttr(&level_[0], 0, &scratch).ok());
  ASSERT_TRUE(ctx_->EvaluateLeafAttr(&level_[0], 1, &scratch).ok());
  EXPECT_TRUE(level_[0].candidates[0].valid());
  EXPECT_DOUBLE_EQ(level_[0].candidates[0].gini, 0.0);
  EXPECT_EQ(level_[0].candidates[0].test.threshold, 24.5f);
  // The noise attribute cannot reach gini 0.
  EXPECT_GT(level_[0].candidates[1].gini, 0.0);
}

TEST_F(BuilderContextTest, RunWRoutesProbeAndAppliesPurityPretest) {
  Init(TinyThreshold());
  GiniScratch scratch;
  ASSERT_TRUE(ctx_->EvaluateLeafAttr(&level_[0], 0, &scratch).ok());
  ASSERT_TRUE(ctx_->EvaluateLeafAttr(&level_[0], 1, &scratch).ok());
  ASSERT_TRUE(ctx_->RunW(&level_[0]).ok());

  EXPECT_EQ(level_[0].winner.test.attr, 0);
  // Both children are pure -> finalized, no slot files needed.
  EXPECT_FALSE(level_[0].child_active[0]);
  EXPECT_FALSE(level_[0].child_active[1]);
  EXPECT_EQ(tree_->num_nodes(), 3);
  EXPECT_EQ(level_[0].child_hist[0].Total(), 25);
  EXPECT_EQ(level_[0].child_hist[1].Total(), 15);
  // Probe bits: tids < 25 routed left.
  for (Tid t = 0; t < 40; ++t) {
    EXPECT_EQ(ctx_->probe()->GoesLeft(t), t < 25) << t;
  }
  // Next level is empty: the tree is done.
  EXPECT_TRUE(ctx_->CollectNextLevel(level_).empty());
}

TEST_F(BuilderContextTest, PureRootYieldsEmptyLevel) {
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  for (int i = 0; i < 5; ++i) {
    v[0].f = static_cast<float>(i);
    ASSERT_TRUE(data.Append(v, 0).ok());
  }
  Init(data);
  EXPECT_TRUE(level_.empty());
  EXPECT_EQ(tree_->num_nodes(), 1);
}

TEST_F(BuilderContextTest, NumSlotsPerAlgorithm) {
  BuildOptions options;
  options.window = 7;
  options.algorithm = Algorithm::kSerial;
  Dataset data = TinyThreshold();
  Init(data, options);
  EXPECT_EQ(ctx_->num_slots(), 2);

  options.algorithm = Algorithm::kMwk;
  Init(data, options);
  EXPECT_EQ(ctx_->num_slots(), 7);

  options.algorithm = Algorithm::kFwk;
  Init(data, options);
  EXPECT_EQ(ctx_->num_slots(), 7);

  options.algorithm = Algorithm::kSubtree;
  Init(data, options);
  EXPECT_EQ(ctx_->num_slots(), 2);
}

// AssignChildSlots: hand-built leaf tasks verify the relabelled vs simple
// assignment of paper Figure 5.
class SlotAssignTest : public ::testing::Test {
 protected:
  static LeafTask LeafWithChildren(bool left_active, int64_t left_n,
                                   bool right_active, int64_t right_n) {
    LeafTask leaf;
    leaf.child_node[0] = 1;  // any non-invalid id
    leaf.child_node[1] = 2;
    leaf.child_active[0] = left_active;
    leaf.child_active[1] = right_active;
    leaf.child_hist[0].Reset(2);
    leaf.child_hist[0].Add(0, left_n);
    leaf.child_hist[1].Reset(2);
    leaf.child_hist[1].Add(1, right_n);
    return leaf;
  }

  static BuildContext MakeCtx(const Dataset& data, bool relabel,
                              DecisionTree* tree, BuildCounters* counters) {
    BuildOptions options;
    options.relabel_children = relabel;
    return BuildContext(data, options, tree, counters);
  }
};

TEST_F(SlotAssignTest, RelabelSkipsFinalizedChildren) {
  // Paper Figure 5: valid children L,L,R,R,R relabel to slots 0,1,0,1,0
  // (K=2) with no holes.
  Dataset data(SyntheticSchema(9));
  DecisionTree tree(data.schema());
  BuildCounters counters;
  BuildContext ctx = MakeCtx(data, /*relabel=*/true, &tree, &counters);

  std::vector<LeafTask> level;
  level.push_back(LeafWithChildren(true, 10, false, 5));   // L valid, R pure
  level.push_back(LeafWithChildren(true, 20, true, 30));   // both valid
  level.push_back(LeafWithChildren(false, 7, true, 40));   // L pure, R valid
  ctx.AssignChildSlots(&level, 2);

  // Valid children in order: (0,L)=10, (1,L)=20, (1,R)=30, (2,R)=40
  EXPECT_EQ(level[0].child_seg[0].slot, 0);
  EXPECT_EQ(level[0].child_seg[0].offset, 0u);
  EXPECT_EQ(level[1].child_seg[0].slot, 1);
  EXPECT_EQ(level[1].child_seg[0].offset, 0u);
  EXPECT_EQ(level[1].child_seg[1].slot, 0);
  EXPECT_EQ(level[1].child_seg[1].offset, 10u);
  EXPECT_EQ(level[2].child_seg[1].slot, 1);
  EXPECT_EQ(level[2].child_seg[1].offset, 20u);
}

TEST_F(SlotAssignTest, SimpleSchemeLeavesHoles) {
  Dataset data(SyntheticSchema(9));
  DecisionTree tree(data.schema());
  BuildCounters counters;
  BuildContext ctx = MakeCtx(data, /*relabel=*/false, &tree, &counters);

  std::vector<LeafTask> level;
  level.push_back(LeafWithChildren(true, 10, false, 5));
  level.push_back(LeafWithChildren(true, 20, true, 30));
  ctx.AssignChildSlots(&level, 2);

  // Indices with holes: (0,L)=idx0, (0,R finalized)=idx1 hole,
  // (1,L)=idx2 -> slot 0, (1,R)=idx3 -> slot 1.
  EXPECT_EQ(level[0].child_seg[0].slot, 0);
  EXPECT_EQ(level[1].child_seg[0].slot, 0);
  EXPECT_EQ(level[1].child_seg[0].offset, 10u);  // behind leaf 0's left
  EXPECT_EQ(level[1].child_seg[1].slot, 1);
  EXPECT_EQ(level[1].child_seg[1].offset, 0u);
}

TEST(LevelTraceTest, TracksFrontierShape) {
  SyntheticConfig cfg;
  cfg.function = 7;
  cfg.num_tuples = 2000;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  ClassifierOptions options;
  auto result = TrainClassifier(*data, options);
  ASSERT_TRUE(result.ok());
  const auto& trace = result->stats.level_trace;
  ASSERT_GE(trace.size(), 3u);
  // Root level: one leaf holding every tuple.
  EXPECT_EQ(trace[0].level, 0);
  EXPECT_EQ(trace[0].leaves, 1);
  EXPECT_EQ(trace[0].records, 2000);
  // Levels are sorted and record volume never grows (pure children drop).
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].level, trace[i - 1].level + 1);
    EXPECT_LE(trace[i].records, trace[i - 1].records);
    EXPECT_GT(trace[i].leaves, 0);
  }
}

TEST(LevelTraceTest, SubtreeGroupsAggregateByDepth) {
  SyntheticConfig cfg;
  cfg.function = 7;
  cfg.num_tuples = 2000;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  ClassifierOptions serial;
  auto expected = TrainClassifier(*data, serial);
  ASSERT_TRUE(expected.ok());
  ClassifierOptions subtree;
  subtree.build.algorithm = Algorithm::kSubtree;
  subtree.build.num_threads = 4;
  auto actual = TrainClassifier(*data, subtree);
  ASSERT_TRUE(actual.ok());
  // Identical trees -> identical per-depth frontier, regardless of group
  // decomposition.
  ASSERT_EQ(actual->stats.level_trace.size(),
            expected->stats.level_trace.size());
  for (size_t i = 0; i < expected->stats.level_trace.size(); ++i) {
    EXPECT_EQ(actual->stats.level_trace[i].leaves,
              expected->stats.level_trace[i].leaves)
        << "level " << i;
    EXPECT_EQ(actual->stats.level_trace[i].records,
              expected->stats.level_trace[i].records)
        << "level " << i;
  }
}

TEST(BuildOptionsTest, ValidateBounds) {
  BuildOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.window = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.window = 4;
  options.min_split = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.min_split = 2;
  options.max_levels = -1;
  EXPECT_FALSE(options.Validate().ok());
  options.max_levels = 0;
  options.gini.max_exhaustive_cardinality = 25;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(BuildOptionsTest, SortThreadsDefaultFollowsNumThreads) {
  BuildOptions options;
  EXPECT_EQ(options.sort_threads, 0);
  options.num_threads = 3;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_EQ(options.EffectiveSortThreads(), 3);
  options.sort_threads = 1;
  EXPECT_EQ(options.EffectiveSortThreads(), 1);
  options.sort_threads = -1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(ScratchDirTest, UniquePerCall) {
  auto env = Env::NewMem();
  const std::string a = MakeScratchDir(env.get(), "/base");
  const std::string b = MakeScratchDir(env.get(), "/base");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("/base/", 0), 0u);
}

TEST(AlgorithmNameTest, AllNamed) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kSerial), "SERIAL");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBasic), "BASIC");
  EXPECT_STREQ(AlgorithmName(Algorithm::kFwk), "FWK");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMwk), "MWK");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSubtree), "SUBTREE");
  EXPECT_STREQ(AlgorithmName(Algorithm::kRecordParallel), "REC");
}

}  // namespace
}  // namespace smptree
