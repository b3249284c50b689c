// Byte-level pins of trained trees. Each test trains on fixed-seed data and
// compares an FNV-1a hash of the serialized model against a recorded value,
// so any change to cut placement, the split sweep, the child partition, the
// finalization rule or the snapshot copy that alters even one byte of one
// tree fails here. The hashes were recorded from the engines as they stood
// before their histogram code was shared, and a refactor of that code must
// keep them.
//
// A deliberate change of tree output (a new cut rule, say) re-records them:
// run this binary, and take each "actual" value from its failure message.
// Re-recorded so far: BaggedBinnedForestMembers, once, when binned forests
// began to quantize the whole training set once and train members on
// bootstrap weights -- member cuts now come from the full set, not from
// each bag. Every other pin is unchanged since it was recorded.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/classifier.h"
#include "core/tree_io.h"
#include "data/synthetic.h"
#include "ensemble/forest_builder.h"
#include "stream/hoeffding_builder.h"
#include "stream/stream_source.h"

namespace smptree {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a over `bytes`, continuing from `hash`.
uint64_t Fnv1a(const std::string& bytes, uint64_t hash = kFnvOffset) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

SyntheticConfig Config(int function, int64_t tuples, uint64_t seed,
                       double label_noise) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = seed;
  cfg.label_noise = label_noise;
  return cfg;
}

/// What one streamed run published: every snapshot's bytes folded into one
/// hash, in publish order.
struct StreamPin {
  int64_t publishes = 0;
  uint64_t hash = kFnvOffset;
  std::string last;  ///< the final snapshot's bytes
  StreamStats stats;
};

/// True when `serialized` holds a categorical (subset) split.
bool HasCategoricalSplit(const std::string& serialized) {
  return serialized.find(" cat=1 ") != std::string::npos;
}

StreamPin RunStream(HoeffdingOptions options, const SyntheticConfig& cfg) {
  StreamPin pin;
  options.snapshot_every = 2500;
  options.publish = [&pin](DecisionTree&& snapshot, int64_t) {
    EXPECT_TRUE(snapshot.Validate().ok());
    pin.last = SerializeTree(snapshot);
    pin.hash = Fnv1a(pin.last, pin.hash);
    ++pin.publishes;
    return Status::OK();
  };
  HoeffdingTreeBuilder builder(SyntheticSchema(cfg.num_attrs), options);
  EXPECT_TRUE(builder.Init().ok());
  SyntheticStreamSource source(cfg);
  StreamBatch batch;
  while (true) {
    auto n = source.NextBatch(1000, &batch);
    EXPECT_TRUE(n.ok());
    if (!n.ok() || *n == 0) break;
    EXPECT_TRUE(builder.Ingest(batch).ok());
  }
  EXPECT_TRUE(builder.Finish().ok());
  pin.stats = builder.Stats();
  return pin;
}

TEST(GoldenTreesTest, StreamGiniSnapshots) {
  HoeffdingOptions options;
  options.warmup_tuples = 1000;
  options.grace_period = 100;
  const StreamPin pin = RunStream(options, Config(2, 30000, 17, 0.05));
  EXPECT_EQ(pin.publishes, 13);
  EXPECT_GT(pin.stats.splits, 2);
  EXPECT_EQ(pin.hash, 0x9b6468e3180eae04ull);
}

TEST(GoldenTreesTest, StreamEntropySnapshots) {
  HoeffdingOptions options;
  options.warmup_tuples = 1000;
  options.grace_period = 100;
  options.gini.criterion = SplitCriterion::kEntropy;
  const StreamPin pin = RunStream(options, Config(3, 30000, 23, 0.05));
  EXPECT_EQ(pin.publishes, 13);
  EXPECT_GT(pin.stats.splits, 2);
  EXPECT_TRUE(HasCategoricalSplit(pin.last));
  EXPECT_EQ(pin.hash, 0x62c64ea11354fa87ull);
}

TEST(GoldenTreesTest, StreamMemoryBudgetSnapshots) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.grace_period = 50;
  options.delta = 1e-3;
  options.memory_budget_bytes = 4096;
  const StreamPin pin = RunStream(options, Config(6, 30000, 5, 0.0));
  EXPECT_EQ(pin.publishes, 13);
  EXPECT_GT(pin.stats.deactivated_leaves, 0);
  EXPECT_EQ(pin.hash, 0xa485a0848f5b98aeull);
}

TEST(GoldenTreesTest, BinnedTreeAtOneAndFourThreads) {
  auto data = GenerateSynthetic(Config(4, 4000, 42, 0.05));
  ASSERT_TRUE(data.ok());
  for (int threads : {1, 4}) {
    ClassifierOptions options;
    options.build.engine = Engine::kBinned;
    options.build.max_bins = 64;
    options.build.num_threads = threads;
    auto result = TrainClassifier(*data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string bytes = SerializeTree(*result->tree);
    EXPECT_TRUE(HasCategoricalSplit(bytes));
    EXPECT_EQ(Fnv1a(bytes), 0x08ceb8458e7eb62aull) << "P=" << threads;
  }
}

TEST(GoldenTreesTest, BaggedBinnedForestMembers) {
  auto data = GenerateSynthetic(Config(3, 2000, 7, 0.05));
  ASSERT_TRUE(data.ok());
  ForestOptions options;
  options.num_trees = 4;
  options.num_threads = 2;
  options.features_per_node = 5;
  options.seed = 99;
  options.tree.build.engine = Engine::kBinned;
  options.tree.build.max_bins = 32;
  auto result = TrainForest(*data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Cuts from the full training set, shared by all members (re-recorded
  // for that change; see the file comment).
  const uint64_t expected[] = {0x5520580e810dce82ull, 0x9b20e737800973b6ull,
                               0x4af539ed1b249e61ull, 0xe7ac7fa69bc8dc0eull};
  ASSERT_EQ(result->forest->num_trees(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Fnv1a(SerializeTree(result->forest->tree(i))), expected[i])
        << "member " << i;
  }
}

}  // namespace
}  // namespace smptree
