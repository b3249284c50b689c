#include "serve/model_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tree_io.h"
#include "data/schema_io.h"
#include "data/synthetic.h"
#include "stream/hoeffding_builder.h"
#include "stream/stream_source.h"

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

/// A single-leaf tree whose majority class is `label` -- the two variants
/// are distinguishable by every Classify call, which is what the reload
/// tests need.
DecisionTree LeafTree(ClassLabel label) {
  DecisionTree tree(CarSchema());
  tree.CreateRoot(label == 0 ? Hist(5, 1) : Hist(1, 5));
  return tree;
}

TupleValues AnyTuple() {
  TupleValues v(2);
  v[0].f = 30.0f;
  v[1].cat = 0;
  return v;
}

std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(SchemasCompatibleTest, DetectsEveryScoringDifference) {
  const Schema base = CarSchema();
  EXPECT_TRUE(SchemasCompatible(base, CarSchema()));

  Schema extra_attr = CarSchema();
  extra_attr.AddContinuous("income");
  EXPECT_FALSE(SchemasCompatible(base, extra_attr));

  Schema renamed;  // same shape, different attribute name
  renamed.AddContinuous("salary");
  renamed.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  renamed.SetClassNames({"high", "low"});
  EXPECT_FALSE(SchemasCompatible(base, renamed));

  Schema retyped;  // categorical where base is continuous
  retyped.AddCategorical("age", 4);
  retyped.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  retyped.SetClassNames({"high", "low"});
  EXPECT_FALSE(SchemasCompatible(base, retyped));

  Schema wider;  // different cardinality
  wider.AddContinuous("age");
  wider.AddCategorical("car", 4);
  wider.SetClassNames({"high", "low"});
  EXPECT_FALSE(SchemasCompatible(base, wider));

  Schema reclassed;  // different class alphabet
  reclassed.AddContinuous("age");
  reclassed.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  reclassed.SetClassNames({"approve", "deny"});
  EXPECT_FALSE(SchemasCompatible(base, reclassed));
}

TEST(ModelStoreTest, CreateStartsAtEpochOne) {
  auto store = ModelStore::Create(LeafTree(0));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->epoch(), 1);
  ServingModelPtr model = (*store)->Current();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->epoch, 1);
  EXPECT_EQ(model->tree.Classify(AnyTuple()), 0);
}

TEST(ModelStoreTest, InstallBumpsEpochAndOldSnapshotSurvives) {
  auto store = ModelStore::Create(LeafTree(0));
  ASSERT_TRUE(store.ok());
  // An in-flight batch would hold exactly this snapshot.
  ServingModelPtr old_model = (*store)->Current();

  ASSERT_TRUE((*store)->Install(LeafTree(1), "v2").ok());
  EXPECT_EQ((*store)->epoch(), 2);
  EXPECT_EQ((*store)->Current()->tree.Classify(AnyTuple()), 1);

  // Epoch-based retirement: the old model stays fully usable until the
  // last snapshot drops, and keeps its original epoch stamp.
  EXPECT_EQ(old_model->epoch, 1);
  EXPECT_EQ(old_model->tree.Classify(AnyTuple()), 0);
}

TEST(ModelStoreTest, InstallRejectsIncompatibleSchema) {
  auto store = ModelStore::Create(LeafTree(0));
  ASSERT_TRUE(store.ok());

  Schema other;
  other.AddContinuous("age");
  other.SetClassNames({"high", "low"});
  DecisionTree narrow(other);
  narrow.CreateRoot(Hist(2, 1));

  const Status s = (*store)->Install(std::move(narrow), "bad");
  EXPECT_FALSE(s.ok());
  // The rejected install must leave the current model untouched.
  EXPECT_EQ((*store)->epoch(), 1);
  EXPECT_EQ((*store)->Current()->tree.Classify(AnyTuple()), 0);
}

TEST(ModelStoreTest, ReloadFromFileSwapsModel) {
  auto store = ModelStore::Create(LeafTree(0));
  ASSERT_TRUE(store.ok());
  const std::string path =
      WriteTempFile("reload_v2.tree", SerializeTree(LeafTree(1)));

  ASSERT_TRUE((*store)->Reload(path).ok());
  ServingModelPtr model = (*store)->Current();
  EXPECT_EQ(model->epoch, 2);
  EXPECT_EQ(model->source, path);
  EXPECT_EQ(model->tree.Classify(AnyTuple()), 1);
}

TEST(ModelStoreTest, ReloadFailureKeepsCurrentModel) {
  auto store = ModelStore::Create(LeafTree(0));
  ASSERT_TRUE(store.ok());

  EXPECT_FALSE((*store)->Reload(testing::TempDir() + "/nonexistent").ok());
  const std::string garbage = WriteTempFile("garbage.tree", "not a tree\n");
  EXPECT_FALSE((*store)->Reload(garbage).ok());

  EXPECT_EQ((*store)->epoch(), 1);
  EXPECT_EQ((*store)->Current()->tree.Classify(AnyTuple()), 0);
}

TEST(ModelStoreTest, OpenLoadsSchemaAndModelFiles) {
  const std::string schema_path =
      WriteTempFile("open.schema", FormatSchemaText(CarSchema()));
  const std::string model_path =
      WriteTempFile("open.tree", SerializeTree(LeafTree(1)));

  auto store = ModelStore::Open(schema_path, model_path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->epoch(), 1);
  EXPECT_EQ((*store)->Current()->source, model_path);
  EXPECT_EQ((*store)->Current()->tree.Classify(AnyTuple()), 1);
}

TEST(ModelStoreTest, LoadTreeFileRejectsCorruptModel) {
  const std::string truncated = WriteTempFile(
      "trunc.tree",
      SerializeTree(LeafTree(0)).substr(0, 10));
  EXPECT_FALSE(ModelStore::LoadTreeFile(CarSchema(), truncated).ok());
}

TEST(ModelStoreTest, ConcurrentReadersSeeMonotonicEpochs) {
  auto created = ModelStore::Create(LeafTree(0));
  ASSERT_TRUE(created.ok());
  ModelStore* store = created->get();

  constexpr int kInstalls = 50;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([store, &done, &violations] {
      int64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        ServingModelPtr model = store->Current();
        // Installs publish in epoch order, so any one reader must observe
        // a non-decreasing epoch sequence; the snapshot's tree must always
        // be consistent with its epoch's variant.
        if (model->epoch < last_epoch) violations.fetch_add(1);
        last_epoch = model->epoch;
        const ClassLabel want = model->epoch % 2 == 1 ? 0 : 1;
        if (model->tree.Classify(AnyTuple()) != want) violations.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kInstalls; ++i) {
    // Epoch i+2 installs variant (i+2)%2... epochs alternate leaf labels:
    // odd epochs classify 0, even epochs classify 1.
    const ClassLabel label = (i + 2) % 2 == 1 ? 0 : 1;
    ASSERT_TRUE(store->Install(LeafTree(label), "swap").ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(store->epoch(), 1 + kInstalls);
}

TEST(ModelStoreTest, RapidSuccessivePublishesRaceScoringLoop) {
  // The streaming trainer's hot-publish pattern: a burst of successive
  // Install calls with real, growing snapshots, raced against scorers that
  // keep classifying through both representations of whatever snapshot they
  // hold. Run under TSan (the CI tsan job does) this proves the
  // install/score paths share no unsynchronized state; run plain it checks
  // epoch monotonicity and pointer/flat parity across every swap.
  const Schema schema = SyntheticSchema(9);
  HoeffdingOptions options;
  options.warmup_tuples = 200;
  options.grace_period = 50;
  HoeffdingTreeBuilder builder(schema, options);
  ASSERT_TRUE(builder.Init().ok());
  auto created = ModelStore::Create(builder.Snapshot());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelStore* store = created->get();

  SyntheticConfig probe_cfg;
  probe_cfg.function = 1;
  probe_cfg.num_attrs = 9;
  probe_cfg.num_tuples = 32;
  probe_cfg.seed = 555;
  auto probes = GenerateSynthetic(probe_cfg);
  ASSERT_TRUE(probes.ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 3; ++t) {
    scorers.emplace_back([&] {
      int64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        ServingModelPtr model = store->Current();
        if (model->epoch < last_epoch) violations.fetch_add(1);
        last_epoch = model->epoch;
        for (int64_t p = 0; p < probes->num_tuples(); ++p) {
          const TupleValues values = probes->Tuple(p);
          const ClassLabel pointer = model->Classify(values);
          const ClassLabel flat = model->flat_tree.Classify(values);
          if (pointer != flat ||
              pointer >= model->schema().num_classes()) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }

  // 100 publishes a few hundred training tuples apart, exactly what
  // `train-stream --snapshot-every` produces.
  SyntheticConfig stream_cfg;
  stream_cfg.function = 1;
  stream_cfg.num_attrs = 9;
  stream_cfg.num_tuples = 0;  // unbounded
  stream_cfg.seed = 42;
  SyntheticStreamSource source(stream_cfg);
  StreamBatch batch;
  for (int i = 0; i < 100; ++i) {
    auto n = source.NextBatch(300, &batch);
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(builder.Ingest(batch).ok());
    ASSERT_TRUE(store->Install(builder.Snapshot(), "rapid").ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : scorers) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(store->epoch(), 101);
  EXPECT_GT(store->Current()->total_nodes(), 1);
}

}  // namespace
}  // namespace smptree
