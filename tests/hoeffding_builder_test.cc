#include "stream/hoeffding_builder.h"

#include <gtest/gtest.h>

#include <string>

#include "core/tree_io.h"
#include "data/synthetic.h"
#include "stream/stream_source.h"

namespace smptree {
namespace {

SyntheticConfig Config(int function, int64_t tuples, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = seed;
  return cfg;
}

/// Streams `tuples` generator tuples through a fresh builder and returns it.
void StreamInto(HoeffdingTreeBuilder* builder, int function, int64_t tuples,
                uint64_t seed) {
  SyntheticStreamSource source(Config(function, tuples, seed));
  StreamBatch batch;
  while (true) {
    auto n = source.NextBatch(512, &batch);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;
    ASSERT_TRUE(builder->Ingest(batch).ok());
  }
}

double HeldOutAccuracy(const DecisionTree& tree, int function) {
  auto test = GenerateSynthetic(Config(function, 5000, 9999));
  EXPECT_TRUE(test.ok());
  int64_t hits = 0;
  for (int64_t t = 0; t < test->num_tuples(); ++t) {
    if (tree.Classify(*test, t) == test->label(t)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(test->num_tuples());
}

TEST(HoeffdingBuilderTest, InitValidatesOptions) {
  const Schema schema = SyntheticSchema(9);
  HoeffdingOptions bad;
  bad.delta = 0.0;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.delta = 1.5;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.tau = -0.1;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.grace_period = 0;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());

  HoeffdingTreeBuilder ok(schema, HoeffdingOptions());
  EXPECT_TRUE(ok.Init().ok());
  // Ingest before Init is an error.
  HoeffdingTreeBuilder early(schema, HoeffdingOptions());
  StreamBatch batch;
  EXPECT_FALSE(early.Ingest(batch).ok());
}

TEST(HoeffdingBuilderTest, SplitsOnSeparableStreamAndValidates) {
  HoeffdingOptions options;
  options.warmup_tuples = 1000;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, /*function=*/1, /*tuples=*/40000, /*seed=*/42);
  ASSERT_TRUE(builder.Finish().ok());

  const StreamStats stats = builder.Stats();
  EXPECT_EQ(stats.tuples, 40000);
  EXPECT_GT(stats.splits, 0);
  EXPECT_GT(stats.nodes, 1);
  EXPECT_TRUE(stats.frozen);
  EXPECT_EQ(stats.nodes, builder.tree().num_nodes());
  ASSERT_TRUE(builder.tree().Validate().ok())
      << builder.tree().Validate().ToString();
  EXPECT_GT(HeldOutAccuracy(builder.tree(), 1), 0.95);
}

TEST(HoeffdingBuilderTest, EveryMidStreamSnapshotPassesValidate) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.grace_period = 100;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());

  SyntheticStreamSource source(Config(2, 20000, 7));
  StreamBatch batch;
  int64_t routed = 0;
  while (true) {
    auto n = source.NextBatch(777, &batch);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    ASSERT_TRUE(builder.Ingest(batch).ok());
    routed += *n;
    // The serving invariant must hold at every batch boundary, including
    // inside warmup and right after splits.
    const DecisionTree snapshot = builder.Snapshot();
    ASSERT_TRUE(snapshot.Validate().ok())
        << "after " << routed << " tuples: " << snapshot.Validate().ToString();
    // Snapshot and live tree agree on classifications.
    const TupleValues probe = batch.Tuple(batch.num_tuples() - 1);
    EXPECT_EQ(snapshot.Classify(probe), builder.tree().Classify(probe));
  }
}

TEST(HoeffdingBuilderTest, FinishInsideWarmupStillBuildsATree) {
  HoeffdingOptions options;
  options.warmup_tuples = 100000;  // never reached
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 5000, 11);
  EXPECT_FALSE(builder.Stats().frozen);
  ASSERT_TRUE(builder.Finish().ok());

  const StreamStats stats = builder.Stats();
  EXPECT_TRUE(stats.frozen);
  EXPECT_EQ(stats.tuples, 5000);
  // The replayed warmup buffer fully lands in the root's counts.
  int64_t root_total = 0;
  const TreeNode& root = builder.tree().node(builder.tree().root());
  for (int64_t c : root.class_counts) root_total += c;
  EXPECT_EQ(root_total, 5000);
  ASSERT_TRUE(builder.tree().Validate().ok());
}

TEST(HoeffdingBuilderTest, MemoryBudgetDeactivatesLowPromiseLeaves) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.grace_period = 50;
  options.delta = 1e-3;  // split eagerly to grow many leaves
  // Room for only a handful of active leaf histograms.
  options.memory_budget_bytes = 4096;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 6, 60000, 5);
  ASSERT_TRUE(builder.Finish().ok());

  const StreamStats stats = builder.Stats();
  EXPECT_GT(stats.deactivated_leaves, 0);
  EXPECT_GE(stats.active_leaves, 1);
  EXPECT_LE(stats.histogram_bytes,
            options.memory_budget_bytes +
                static_cast<uint64_t>(builder.quantizer().total_bins()) *
                    2 * 8);  // at most one leaf over before enforcement
  // Deactivated leaves still route and count, so the tree stays exact.
  ASSERT_TRUE(builder.tree().Validate().ok());
}

TEST(HoeffdingBuilderTest, PublishHookFiresOnPeriodAndFinish) {
  int64_t publishes = 0;
  int64_t last_tuples = 0;
  HoeffdingOptions options;
  options.warmup_tuples = 200;
  options.snapshot_every = 1000;
  options.publish = [&](DecisionTree&& snapshot, int64_t tuples) {
    ++publishes;
    last_tuples = tuples;
    EXPECT_TRUE(snapshot.Validate().ok());
    return Status::OK();
  };
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 5500, 3);
  // Period boundaries at 1000..5000, plus the final publish from Finish.
  EXPECT_EQ(publishes, 5);
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(publishes, 6);
  EXPECT_EQ(last_tuples, 5500);
  EXPECT_EQ(builder.Stats().snapshots, 6);
}

TEST(HoeffdingBuilderTest, SnapshotMatchesTheTextRoundTrip) {
  // Snapshot copies the tree directly (DecisionTree::Clone); at every
  // publish it must equal what a serialize/deserialize round-trip of the
  // live tree would have produced, byte for byte.
  const HoeffdingTreeBuilder* live = nullptr;
  int64_t publishes = 0;
  HoeffdingOptions options;
  options.warmup_tuples = 300;
  options.grace_period = 100;
  options.snapshot_every = 1000;
  options.publish = [&](DecisionTree&& snapshot, int64_t) {
    ++publishes;
    EXPECT_TRUE(snapshot.Validate().ok()) << snapshot.Validate().ToString();
    const std::string bytes = SerializeTree(live->tree());
    EXPECT_EQ(SerializeTree(snapshot), bytes);
    auto round_trip = DeserializeTree(live->schema(), bytes);
    if (!round_trip.ok()) return round_trip.status();
    EXPECT_TRUE(TreesEqual(snapshot, *round_trip));
    return Status::OK();
  };
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  live = &builder;
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 2, 12000, 31);
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(publishes, 13);
  EXPECT_GT(builder.Stats().splits, 0);
}

TEST(HoeffdingBuilderTest, PublishFailureAbortsTheStream) {
  HoeffdingOptions options;
  options.warmup_tuples = 100;
  options.snapshot_every = 500;
  options.publish = [](DecisionTree&&, int64_t) {
    return Status::Internal("sink down");
  };
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());

  SyntheticStreamSource source(Config(1, 2000, 3));
  StreamBatch batch;
  ASSERT_TRUE(source.NextBatch(2000, &batch).ok());
  EXPECT_FALSE(builder.Ingest(batch).ok());
}

TEST(HoeffdingBuilderTest, StatsJsonCarriesEveryCounter) {
  HoeffdingOptions options;
  options.warmup_tuples = 100;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 3000, 1);
  const std::string json = builder.StatsJson();
  for (const char* key :
       {"\"tuples\": 3000", "\"splits\":", "\"active_leaves\":",
        "\"deactivated_leaves\":", "\"snapshots\":", "\"nodes\":",
        "\"sketch_bytes\":", "\"histogram_bytes\":", "\"frozen\": true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(HoeffdingBuilderTest, EntropyCriterionAlsoLearns) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.gini.criterion = SplitCriterion::kEntropy;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 30000, 42);
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_GT(builder.Stats().splits, 0);
  EXPECT_GT(HeldOutAccuracy(builder.tree(), 1), 0.9);
}

}  // namespace
}  // namespace smptree
