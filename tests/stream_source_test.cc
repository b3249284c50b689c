#include "stream/stream_source.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/synthetic.h"
#include "dataset_equal.h"
#include "stream/shard_io.h"

namespace smptree {
namespace {

SyntheticConfig SmallConfig(int64_t tuples) {
  SyntheticConfig cfg;
  cfg.function = 3;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = 77;
  return cfg;
}

/// Drains a source, concatenating its batches into one dataset.
Dataset Drain(StreamSource* source, int64_t batch_size) {
  Dataset all(source->schema());
  StreamBatch batch;
  while (true) {
    auto n = source->NextBatch(batch_size, &batch);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (!n.ok() || *n == 0) break;
    EXPECT_EQ(*n, batch.num_tuples());
    all.AppendRange(batch, 0, batch.num_tuples());
  }
  return all;
}

TEST(SyntheticStreamSourceTest, MatchesGenerateSyntheticExactly) {
  const SyntheticConfig cfg = SmallConfig(500);
  auto batch_data = GenerateSynthetic(cfg);
  ASSERT_TRUE(batch_data.ok());

  SyntheticStreamSource source(cfg);
  ExpectSameTuples(Drain(&source, 64), *batch_data);
}

TEST(SyntheticStreamSourceTest, AnyBatchSizeConcatenatesToGenerateSynthetic) {
  const SyntheticConfig cfg = SmallConfig(2500);
  auto whole = GenerateSynthetic(cfg);
  ASSERT_TRUE(whole.ok());
  for (const int64_t batch_size : {1, 7, 1000}) {
    SCOPED_TRACE(batch_size);
    SyntheticStreamSource source(cfg);
    ExpectSameTuples(Drain(&source, batch_size), *whole);
  }
}

TEST(SyntheticStreamSourceTest, ReusedBatchKeepsItsCapacity) {
  SyntheticStreamSource source(SmallConfig(0));
  StreamBatch batch;
  ASSERT_TRUE(source.NextBatch(1000, &batch).ok());
  const AttrValue* storage = batch.column(0).data();
  const int64_t capacity = batch.block().capacity();
  for (const int64_t size : {1000, 10, 999, 1000}) {
    auto n = source.NextBatch(size, &batch);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, size);
    EXPECT_EQ(batch.column(0).data(), storage);
    EXPECT_EQ(batch.block().capacity(), capacity);
  }
}

TEST(SyntheticStreamSourceTest, HonorsLimitAcrossUnevenBatches) {
  SyntheticStreamSource source(SmallConfig(100));
  EXPECT_EQ(Drain(&source, 33).num_tuples(), 100);  // 33 + 33 + 33 + 1
  // Exhausted stays exhausted.
  StreamBatch batch;
  auto n = source.NextBatch(10, &batch);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST(BinaryShardTest, RoundTripsDataset) {
  auto data = GenerateSynthetic(SmallConfig(200));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/round.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());

  auto loaded = ReadBinaryShard(data->schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_tuples(), data->num_tuples());
  for (int64_t t = 0; t < data->num_tuples(); ++t) {
    EXPECT_EQ(loaded->label(t), data->label(t));
    for (int a = 0; a < data->schema().num_attrs(); ++a) {
      if (data->schema().attr(a).is_categorical()) {
        EXPECT_EQ(loaded->column(a)[t].cat, data->column(a)[t].cat);
      } else {
        EXPECT_EQ(loaded->column(a)[t].f, data->column(a)[t].f);
      }
    }
  }
}

TEST(BinaryShardTest, RejectsWrongSchemaAndMissingFile) {
  auto data = GenerateSynthetic(SmallConfig(10));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/shape.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());

  Schema other;
  other.AddContinuous("only");
  other.SetClassNames({"a", "b"});
  EXPECT_FALSE(ReadBinaryShard(other, path).ok());
  EXPECT_FALSE(
      ReadBinaryShard(data->schema(), testing::TempDir() + "/nope.shard")
          .ok());
}

/// Overwrites `size` bytes at `offset` of the file at `path`.
void PatchFile(const std::string& path, std::streamoff offset,
               const void* bytes, size_t size) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(offset);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
  ASSERT_TRUE(f.good());
}

// Header layout: 8-byte magic, int32 attrs, int32 classes, int64 tuples.
constexpr std::streamoff kTupleCountOffset = 16;
constexpr std::streamoff kColumnsOffset = 24;

TEST(BinaryShardTest, RejectsTupleCountBeyondTheFile) {
  auto data = GenerateSynthetic(SmallConfig(50));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/inflated.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());
  // One tuple more than the file holds, and a count that would ask for
  // exabytes: both are refused before anything is sized from them.
  for (int64_t count : {int64_t{51}, int64_t{1} << 60}) {
    PatchFile(path, kTupleCountOffset, &count, sizeof(count));
    auto loaded = ReadBinaryShard(data->schema(), path);
    ASSERT_FALSE(loaded.ok()) << count;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("claims"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(BinaryShardTest, RejectsNonFiniteContinuousValues) {
  auto data = GenerateSynthetic(SmallConfig(20));
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->schema().attr(0).is_categorical());
  const std::string path = testing::TempDir() + "/nonfinite.shard";
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    ASSERT_TRUE(WriteBinaryShard(*data, path).ok());
    // Tuple 7 of attribute 0 (the first column).
    PatchFile(path, kColumnsOffset + 7 * sizeof(AttrValue), &bad,
              sizeof(bad));
    auto loaded = ReadBinaryShard(data->schema(), path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsInvalidArgument())
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("row 7:"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(BinaryShardTest, RejectsOutOfRangeCodesAndLabels) {
  auto data = GenerateSynthetic(SmallConfig(20));
  ASSERT_TRUE(data.ok());
  constexpr int kElevel = 3;  // categorical, cardinality 5
  ASSERT_EQ(data->schema().attr(kElevel).cardinality, 5);
  const std::string path = testing::TempDir() + "/badcode.shard";
  const std::streamoff code_at =
      kColumnsOffset + (kElevel * 20 + 7) * sizeof(AttrValue);
  const std::streamoff label_at =
      kColumnsOffset + 9 * 20 * sizeof(AttrValue) + 11 * sizeof(ClassLabel);
  const int32_t bad_code = 250;
  const ClassLabel bad_label = 9;
  for (const bool patch_label : {false, true}) {
    ASSERT_TRUE(WriteBinaryShard(*data, path).ok());
    if (patch_label) {
      PatchFile(path, label_at, &bad_label, sizeof(bad_label));
    } else {
      PatchFile(path, code_at, &bad_code, sizeof(bad_code));
    }
    auto loaded = ReadBinaryShard(data->schema(), path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(patch_label ? "tuple 11"
                                                         : "tuple 7"),
              std::string::npos)
        << loaded.status().ToString();

    // Streamed, the bad shard surfaces as a Status, never as tuples.
    auto source = DiskStreamSource::Open(data->schema(), {path});
    ASSERT_TRUE(source.ok());
    StreamBatch batch;
    auto n = (*source)->NextBatch(64, &batch);
    ASSERT_FALSE(n.ok());
    EXPECT_TRUE(n.status().IsCorruption()) << n.status().ToString();
  }
}

TEST(DiskStreamSourceTest, DeliversShardsInOrderMixedFormats) {
  // Three shards -- binary, csv, binary -- must come back as one stream in
  // exactly the order given, across both formats.
  const SyntheticConfig cfg = SmallConfig(300);
  auto all = GenerateSynthetic(cfg);
  ASSERT_TRUE(all.ok());
  const Schema& schema = all->schema();

  std::vector<std::string> paths;
  for (int s = 0; s < 3; ++s) {
    Dataset part(schema);
    for (int64_t t = s * 100; t < (s + 1) * 100; ++t) {
      ASSERT_TRUE(part.Append(all->Tuple(t), all->label(t)).ok());
    }
    if (s == 1) {
      paths.push_back(testing::TempDir() + "/part1.csv");
      ASSERT_TRUE(WriteCsv(part, paths.back()).ok());
    } else {
      paths.push_back(testing::TempDir() + "/part" + std::to_string(s) +
                      ".shard");
      ASSERT_TRUE(WriteBinaryShard(part, paths.back()).ok());
    }
  }

  auto source = DiskStreamSource::Open(schema, paths);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  // A batch size that straddles shard boundaries exercises the refill path.
  const Dataset streamed = Drain(source->get(), 70);

  ASSERT_EQ(streamed.num_tuples(), all->num_tuples());
  for (int64_t t = 0; t < all->num_tuples(); ++t) {
    EXPECT_EQ(streamed.label(t), all->label(t)) << "tuple " << t;
    for (int a = 0; a < schema.num_attrs(); ++a) {
      if (schema.attr(a).is_categorical()) {
        EXPECT_EQ(streamed.column(a)[t].cat, all->column(a)[t].cat);
      }
    }
  }
}

TEST(DiskStreamSourceTest, BatchesMatchAcrossShardBoundaries) {
  auto all = GenerateSynthetic(SmallConfig(1000));
  ASSERT_TRUE(all.ok());
  std::vector<std::string> paths;
  const int64_t cuts[] = {0, 300, 650, 1000};
  for (int s = 0; s < 3; ++s) {
    Dataset part(all->schema());
    part.AppendRange(*all, cuts[s], cuts[s + 1]);
    paths.push_back(testing::TempDir() + "/boundary" + std::to_string(s) +
                    ".shard");
    ASSERT_TRUE(WriteBinaryShard(part, paths.back()).ok());
  }
  for (const int64_t batch_size : {1, 64, 333, 1000}) {
    SCOPED_TRACE(batch_size);
    auto source = DiskStreamSource::Open(all->schema(), paths);
    ASSERT_TRUE(source.ok());
    ExpectSameTuples(Drain(source->get(), batch_size), *all);
  }
}

TEST(DiskStreamSourceTest, SurfacesReaderErrorOnConsumerThread) {
  auto data = GenerateSynthetic(SmallConfig(50));
  ASSERT_TRUE(data.ok());
  const std::string good = testing::TempDir() + "/good.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, good).ok());

  auto source = DiskStreamSource::Open(
      data->schema(), {good, testing::TempDir() + "/missing.shard"});
  ASSERT_TRUE(source.ok());
  StreamBatch batch;
  int64_t total = 0;
  Status error = Status::OK();
  while (true) {
    auto n = (*source)->NextBatch(32, &batch);
    if (!n.ok()) {
      error = n.status();
      break;
    }
    if (*n == 0) break;
    total += *n;
  }
  // The good shard's tuples arrive; the missing shard then fails the stream.
  EXPECT_EQ(total, 50);
  EXPECT_FALSE(error.ok());
}

TEST(DiskStreamSourceTest, OpenRejectsEmptyShardList) {
  auto data = GenerateSynthetic(SmallConfig(1));
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(DiskStreamSource::Open(data->schema(), {}).ok());
}

TEST(DiskStreamSourceTest, DestructorJoinsWithUndrainedShards) {
  // Dropping the source while the reader still has shards queued must not
  // hang or leak the thread.
  auto data = GenerateSynthetic(SmallConfig(100));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/undrained.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());
  auto source =
      DiskStreamSource::Open(data->schema(), {path, path, path, path});
  ASSERT_TRUE(source.ok());
  StreamBatch batch;
  ASSERT_TRUE((*source)->NextBatch(10, &batch).ok());
  // source drops here with three shards never consumed.
}

}  // namespace
}  // namespace smptree
