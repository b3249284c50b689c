#include "data/dataset.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace smptree {
namespace {

Schema MakeSchema() {
  Schema s;
  s.AddContinuous("age");
  s.AddCategorical("color", 3);
  s.SetClassNames({"A", "B"});
  return s;
}

TupleValues MakeTuple(float age, int32_t color) {
  TupleValues v(2);
  v[0].f = age;
  v[1].cat = color;
  return v;
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.Append(MakeTuple(30.0f, 1), 0).ok());
  ASSERT_TRUE(d.Append(MakeTuple(55.5f, 2), 1).ok());
  EXPECT_EQ(d.num_tuples(), 2);
  EXPECT_EQ(d.value(0, 0).f, 30.0f);
  EXPECT_EQ(d.value(1, 1).cat, 2);
  EXPECT_EQ(d.label(0), 0);
  EXPECT_EQ(d.label(1), 1);
}

TEST(DatasetTest, AppendRejectsWrongArity) {
  Dataset d(MakeSchema());
  TupleValues v(1);
  EXPECT_TRUE(d.Append(v, 0).IsInvalidArgument());
}

TEST(DatasetTest, AppendRejectsBadLabel) {
  Dataset d(MakeSchema());
  EXPECT_TRUE(d.Append(MakeTuple(1.0f, 0), 2).IsInvalidArgument());
}

TEST(DatasetTest, AppendRejectsNonFiniteContinuousValues) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.Append(MakeTuple(1.0f, 0), 0).ok());
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    const Status s = d.Append(MakeTuple(bad, 1), 1);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.ToString().find("'age'"), std::string::npos) << s.ToString();
  }
  // A rejected tuple leaves no trace; the missing sentinel is accepted.
  EXPECT_EQ(d.num_tuples(), 1);
  EXPECT_EQ(d.column(0).size(), 1u);
  ASSERT_TRUE(d.Append(MakeTuple(kMissingValue, 2), 1).ok());
  EXPECT_EQ(d.num_tuples(), 2);
}

TEST(DatasetTest, TupleGathersRow) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.Append(MakeTuple(42.0f, 2), 1).ok());
  const TupleValues row = d.Tuple(0);
  EXPECT_EQ(row[0].f, 42.0f);
  EXPECT_EQ(row[1].cat, 2);
}

TEST(DatasetTest, ColumnSpanIsColumnar) {
  Dataset d(MakeSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.Append(MakeTuple(static_cast<float>(i), i % 3), 0).ok());
  }
  auto col = d.column(0);
  ASSERT_EQ(col.size(), 5u);
  EXPECT_EQ(col[3].f, 3.0f);
}

TEST(DatasetTest, ClassCounts) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.Append(MakeTuple(1, 0), 0).ok());
  ASSERT_TRUE(d.Append(MakeTuple(2, 0), 1).ok());
  ASSERT_TRUE(d.Append(MakeTuple(3, 0), 1).ok());
  const auto counts = d.ClassCounts();
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
}

TEST(DatasetTest, SizeBytesScalesWithTuples) {
  Dataset d(MakeSchema());
  const uint64_t empty = d.SizeBytes();
  ASSERT_TRUE(d.Append(MakeTuple(1, 0), 0).ok());
  EXPECT_GT(d.SizeBytes(), empty);
}

TEST(DatasetTest, ValidateCatchesBadCode) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.Append(MakeTuple(1.0f, 7), 0).ok());  // 7 >= cardinality 3
  EXPECT_TRUE(d.Validate().IsCorruption());
}

TEST(DatasetTest, ValidateAcceptsGood) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.Append(MakeTuple(1.0f, 2), 1).ok());
  EXPECT_TRUE(d.Validate().ok());
}

}  // namespace
}  // namespace smptree
