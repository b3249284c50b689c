#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

namespace smptree {
namespace {

TEST(SyntheticSchemaTest, BaseNineAttributes) {
  const Schema s = SyntheticSchema(9);
  EXPECT_EQ(s.num_attrs(), 9);
  EXPECT_EQ(s.FindAttr("salary"), 0);
  EXPECT_EQ(s.FindAttr("age"), 2);
  EXPECT_TRUE(s.attr(s.FindAttr("elevel")).is_categorical());
  EXPECT_EQ(s.attr(s.FindAttr("elevel")).cardinality, 5);
  EXPECT_EQ(s.attr(s.FindAttr("car")).cardinality, 20);
  EXPECT_EQ(s.attr(s.FindAttr("zipcode")).cardinality, 9);
  EXPECT_EQ(s.num_classes(), 2);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SyntheticSchemaTest, PaddingAlternatesTypes) {
  const Schema s = SyntheticSchema(32);
  EXPECT_EQ(s.num_attrs(), 32);
  int continuous = 0;
  int categorical = 0;
  for (int a = 9; a < 32; ++a) {
    if (s.attr(a).is_categorical()) {
      ++categorical;
      EXPECT_GE(s.attr(a).cardinality, 2);
      EXPECT_LE(s.attr(a).cardinality, 20);
    } else {
      ++continuous;
    }
  }
  EXPECT_GT(continuous, 0);
  EXPECT_GT(categorical, 0);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(GenerateSyntheticTest, DeterministicForSeed) {
  SyntheticConfig cfg;
  cfg.function = 2;
  cfg.num_tuples = 200;
  cfg.seed = 99;
  auto a = GenerateSynthetic(cfg);
  auto b = GenerateSynthetic(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_tuples(), b->num_tuples());
  for (int64_t t = 0; t < a->num_tuples(); ++t) {
    EXPECT_EQ(a->label(t), b->label(t));
    EXPECT_EQ(a->value(t, 0).f, b->value(t, 0).f);
  }
}

TEST(GenerateSyntheticTest, AttributeDistributions) {
  SyntheticConfig cfg;
  cfg.function = 1;
  cfg.num_tuples = 5000;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  const Schema& s = data->schema();
  const int salary = s.FindAttr("salary");
  const int commission = s.FindAttr("commission");
  const int age = s.FindAttr("age");
  for (int64_t t = 0; t < data->num_tuples(); ++t) {
    const float sal = data->value(t, salary).f;
    const float com = data->value(t, commission).f;
    const float a = data->value(t, age).f;
    EXPECT_GE(sal, 20000.0f);
    EXPECT_LE(sal, 150000.0f);
    EXPECT_GE(a, 20.0f);
    EXPECT_LE(a, 80.0f);
    if (sal >= 75000.0f) {
      EXPECT_EQ(com, 0.0f);
    } else {
      EXPECT_GE(com, 10000.0f);
      EXPECT_LE(com, 75000.0f);
    }
  }
  EXPECT_TRUE(data->Validate().ok());
}

TEST(GenerateSyntheticTest, HvalueDependsOnZipcode) {
  SyntheticConfig cfg;
  cfg.function = 1;
  cfg.num_tuples = 5000;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  const int zip = data->schema().FindAttr("zipcode");
  const int hvalue = data->schema().FindAttr("hvalue");
  for (int64_t t = 0; t < data->num_tuples(); ++t) {
    const double k = 9.0 - data->value(t, zip).cat;
    const double hv = data->value(t, hvalue).f;
    EXPECT_GE(hv, 0.5 * k * 100000.0 - 1.0);
    EXPECT_LE(hv, 1.5 * k * 100000.0 + 1.0);
  }
}

TEST(GenerateSyntheticTest, LabelsMatchFunctionPredicate) {
  for (int f = 1; f <= 10; ++f) {
    SyntheticConfig cfg;
    cfg.function = f;
    cfg.num_tuples = 500;
    cfg.seed = 7 * f;
    auto data = GenerateSynthetic(cfg);
    ASSERT_TRUE(data.ok()) << "function " << f;
    for (int64_t t = 0; t < data->num_tuples(); ++t) {
      const bool a = SyntheticGroupA(f, data->Tuple(t));
      EXPECT_EQ(data->label(t), a ? 0 : 1)
          << "function " << f << " tuple " << t;
    }
  }
}

TEST(GenerateSyntheticTest, BothClassesPresent) {
  for (int f = 1; f <= 10; ++f) {
    SyntheticConfig cfg;
    cfg.function = f;
    cfg.num_tuples = 2000;
    auto data = GenerateSynthetic(cfg);
    ASSERT_TRUE(data.ok());
    const auto counts = data->ClassCounts();
    EXPECT_GT(counts[0], 0) << "function " << f;
    EXPECT_GT(counts[1], 0) << "function " << f;
  }
}

TEST(GenerateSyntheticTest, LabelNoiseFlipsRoughlyThatFraction) {
  SyntheticConfig noisy;
  noisy.function = 1;
  noisy.num_tuples = 10000;
  noisy.label_noise = 0.2;
  auto data = GenerateSynthetic(noisy);
  ASSERT_TRUE(data.ok());
  // A flipped label disagrees with the function predicate on the tuple's
  // own attribute values.
  int64_t flips = 0;
  for (int64_t t = 0; t < data->num_tuples(); ++t) {
    const bool a = SyntheticGroupA(noisy.function, data->Tuple(t));
    flips += data->label(t) != (a ? 0 : 1);
  }
  EXPECT_NEAR(static_cast<double>(flips) / 10000.0, 0.2, 0.03);
}

TEST(GenerateSyntheticTest, RejectsBadConfig) {
  SyntheticConfig cfg;
  cfg.function = 0;
  EXPECT_TRUE(GenerateSynthetic(cfg).status().IsInvalidArgument());
  cfg.function = 11;
  EXPECT_TRUE(GenerateSynthetic(cfg).status().IsInvalidArgument());
  cfg.function = 1;
  cfg.num_attrs = 5;
  EXPECT_TRUE(GenerateSynthetic(cfg).status().IsInvalidArgument());
  cfg.num_attrs = 9;
  cfg.label_noise = 1.5;
  EXPECT_TRUE(GenerateSynthetic(cfg).status().IsInvalidArgument());
}

/// FNV-1a 64 over every column's value bits in attribute order, then the
/// labels.
uint64_t HashDataset(const Dataset& data) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (int a = 0; a < data.num_attrs(); ++a) {
    for (AttrValue v : data.column(a)) mix(std::bit_cast<uint32_t>(v));
  }
  for (int64_t t = 0; t < data.num_tuples(); ++t) mix(data.label(t));
  return h;
}

TEST(GenerateSyntheticTest, F7A32OutputIsPinned) {
  // The benchmarks reproduce their inputs from a seed, so the generator's
  // output may not drift with how it or Random is compiled.
  SyntheticConfig cfg;
  cfg.function = 7;
  cfg.num_attrs = 32;
  cfg.num_tuples = 20000;
  cfg.seed = 11;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(HashDataset(*data), 0xd7abf370a7a099e0ull);
}

TEST(SyntheticConfigTest, PaperNotation) {
  SyntheticConfig cfg;
  cfg.function = 7;
  cfg.num_attrs = 32;
  cfg.num_tuples = 250000;
  EXPECT_EQ(cfg.Name(), "F7-A32-D250K");
  cfg.num_tuples = 1234;
  EXPECT_EQ(cfg.Name(), "F7-A32-D1234");
}

}  // namespace
}  // namespace smptree
