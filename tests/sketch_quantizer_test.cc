#include "stream/sketch_quantizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/schema.h"

namespace smptree {
namespace {

Schema MixedSchema() {
  Schema s;
  s.AddContinuous("x");
  s.AddCategorical("color", 3, {"red", "green", "blue"});
  s.AddContinuous("y");
  s.SetClassNames({"a", "b"});
  return s;
}

TupleValues Tuple(float x, int32_t color, float y) {
  TupleValues v(3);
  v[0].f = x;
  v[1].cat = color;
  v[2].f = y;
  return v;
}

/// Feeds `values` to `q` as the one tuple of a block.
void Observe(SketchQuantizer* q, const TupleValues& values) {
  ColumnBlock block(static_cast<int>(values.size()));
  block.Resize(1);
  block.SetRow(0, values);
  q->Observe(block, 0);
}

TEST(SketchQuantizerTest, InitValidatesOptions) {
  SketchQuantizer q;
  SketchQuantizer::Options bad;
  bad.max_bins = 1;
  EXPECT_FALSE(q.Init(MixedSchema(), bad).ok());
  bad.max_bins = 257;
  EXPECT_FALSE(q.Init(MixedSchema(), bad).ok());
  bad.max_bins = 64;
  bad.reservoir_size = 8;  // smaller than max_bins
  EXPECT_FALSE(q.Init(MixedSchema(), bad).ok());

  Schema wide;
  wide.AddCategorical("huge", 300, {});
  wide.SetClassNames({"a", "b"});
  EXPECT_FALSE(q.Init(wide, SketchQuantizer::Options()).ok());

  ASSERT_TRUE(q.Init(MixedSchema(), SketchQuantizer::Options()).ok());
}

TEST(SketchQuantizerTest, FreezeRequiresInitAndIsIdempotent) {
  SketchQuantizer q;
  EXPECT_FALSE(q.Freeze().ok());
  ASSERT_TRUE(q.Init(MixedSchema(), SketchQuantizer::Options()).ok());
  Observe(&q, Tuple(1.0f, 0, 2.0f));
  ASSERT_TRUE(q.Freeze().ok());
  const Quantizer& layout = q.quantizer();
  EXPECT_TRUE(q.frozen());
  const int bins = layout.total_bins();
  ASSERT_TRUE(q.Freeze().ok());
  EXPECT_EQ(layout.total_bins(), bins);
}

TEST(SketchQuantizerTest, BinInvariantHoldsOnEveryCut) {
  SketchQuantizer q;
  SketchQuantizer::Options opts;
  opts.max_bins = 8;
  opts.reservoir_size = 64;
  ASSERT_TRUE(q.Init(MixedSchema(), opts).ok());
  for (int i = 0; i < 1000; ++i) {
    Observe(&q, Tuple(static_cast<float>(i % 97), i % 3,
                    static_cast<float>((i * 7) % 31)));
  }
  ASSERT_TRUE(q.Freeze().ok());
  const Quantizer& layout = q.quantizer();

  for (int attr : {0, 2}) {
    ASSERT_GE(layout.num_cuts(attr), 1);
    EXPECT_EQ(layout.num_bins(attr), layout.num_cuts(attr) + 1);
    for (int i = 0; i < layout.num_cuts(attr); ++i) {
      if (i > 0) {
        EXPECT_LT(layout.cut(attr, i - 1), layout.cut(attr, i));
      }
      // bin(v) = #{cuts <= v}: a cut value itself lands in the bin above it.
      AttrValue at_cut, below;
      at_cut.f = layout.cut(attr, i);
      below.f = std::nextafter(layout.cut(attr, i), -1e30f);
      EXPECT_EQ(layout.BinOf(attr, at_cut), i + 1);
      EXPECT_EQ(layout.BinOf(attr, below), i);
    }
  }
}

TEST(SketchQuantizerTest, CategoricalBinsAreCodes) {
  SketchQuantizer q;
  ASSERT_TRUE(q.Init(MixedSchema(), SketchQuantizer::Options()).ok());
  Observe(&q, Tuple(0.0f, 2, 0.0f));
  ASSERT_TRUE(q.Freeze().ok());
  const Quantizer& layout = q.quantizer();
  EXPECT_TRUE(layout.categorical(1));
  EXPECT_EQ(layout.num_bins(1), 3);
  for (int32_t code = 0; code < 3; ++code) {
    AttrValue v;
    v.cat = code;
    EXPECT_EQ(layout.BinOf(1, v), code);
  }
}

TEST(SketchQuantizerTest, OffsetsTileTheFlatBinSpace) {
  SketchQuantizer q;
  ASSERT_TRUE(q.Init(MixedSchema(), SketchQuantizer::Options()).ok());
  for (int i = 0; i < 500; ++i) {
    Observe(&q, Tuple(static_cast<float>(i), i % 3, static_cast<float>(-i)));
  }
  ASSERT_TRUE(q.Freeze().ok());
  const Quantizer& layout = q.quantizer();
  int expect_offset = 0;
  for (int a = 0; a < layout.num_attrs(); ++a) {
    EXPECT_EQ(layout.offset(a), expect_offset);
    expect_offset += layout.num_bins(a);
  }
  EXPECT_EQ(layout.total_bins(), expect_offset);
}

TEST(SketchQuantizerTest, QuantileCutsTrackTheDistribution) {
  Schema s;
  s.AddContinuous("u");
  s.SetClassNames({"a", "b"});
  SketchQuantizer q;
  SketchQuantizer::Options opts;
  opts.max_bins = 4;
  opts.reservoir_size = 4096;
  ASSERT_TRUE(q.Init(s, opts).ok());
  // Feed 0..4095 in order; the reservoir holds all of them, so cuts are the
  // exact quartiles of the input.
  for (int i = 0; i < 4096; ++i) {
    TupleValues v(1);
    v[0].f = static_cast<float>(i);
    Observe(&q, v);
  }
  ASSERT_TRUE(q.Freeze().ok());
  const Quantizer& layout = q.quantizer();
  ASSERT_EQ(layout.num_cuts(0), 3);
  EXPECT_NEAR(layout.cut(0, 0), 1024.0f, 1.0f);
  EXPECT_NEAR(layout.cut(0, 1), 2048.0f, 1.0f);
  EXPECT_NEAR(layout.cut(0, 2), 3072.0f, 1.0f);
}

TEST(SketchQuantizerTest, EmptyReservoirYieldsSingleBin) {
  Schema s;
  s.AddContinuous("never");
  s.SetClassNames({"a", "b"});
  SketchQuantizer q;
  ASSERT_TRUE(q.Init(s, SketchQuantizer::Options()).ok());
  ASSERT_TRUE(q.Freeze().ok());
  const Quantizer& layout = q.quantizer();
  EXPECT_EQ(layout.num_cuts(0), 0);
  EXPECT_EQ(layout.num_bins(0), 1);
  AttrValue v;
  v.f = 123.0f;
  EXPECT_EQ(layout.BinOf(0, v), 0);
}

TEST(SketchQuantizerTest, FreezeReleasesReservoirMemory) {
  SketchQuantizer q;
  SketchQuantizer::Options opts;
  opts.reservoir_size = 4096;
  ASSERT_TRUE(q.Init(MixedSchema(), opts).ok());
  for (int i = 0; i < 10000; ++i) {
    Observe(&q, Tuple(static_cast<float>(i), 0, static_cast<float>(i * 2)));
  }
  const uint64_t before = q.MemoryBytes();
  ASSERT_TRUE(q.Freeze().ok());
  EXPECT_LT(q.MemoryBytes(), before / 4);
  EXPECT_EQ(q.observed(), 10000);
}

}  // namespace
}  // namespace smptree
