#include "data/csv.h"

#include <gtest/gtest.h>

#include <string>

#include "data/synthetic.h"

namespace smptree {
namespace {

Schema SmallSchema() {
  Schema s;
  s.AddContinuous("age");
  s.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  s.SetClassNames({"yes", "no"});
  return s;
}

Dataset SmallData() {
  Dataset d(SmallSchema());
  TupleValues v(2);
  v[0].f = 23.5f;
  v[1].cat = 1;
  EXPECT_TRUE(d.Append(v, 0).ok());
  v[0].f = 68.0f;
  v[1].cat = 2;
  EXPECT_TRUE(d.Append(v, 1).ok());
  return d;
}

TEST(CsvTest, EmitsHeaderAndNames) {
  const std::string csv = ToCsvString(SmallData());
  EXPECT_NE(csv.find("age,car,class"), std::string::npos);
  EXPECT_NE(csv.find("sports"), std::string::npos);
  EXPECT_NE(csv.find("yes"), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  const Dataset original = SmallData();
  auto parsed = FromCsvString(SmallSchema(), ToCsvString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_tuples(), original.num_tuples());
  for (int64_t t = 0; t < original.num_tuples(); ++t) {
    EXPECT_EQ(parsed->value(t, 0).f, original.value(t, 0).f);
    EXPECT_EQ(parsed->value(t, 1).cat, original.value(t, 1).cat);
    EXPECT_EQ(parsed->label(t), original.label(t));
  }
}

TEST(CsvTest, RoundTripSyntheticSample) {
  SyntheticConfig cfg;
  cfg.function = 3;
  cfg.num_tuples = 50;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  auto parsed = FromCsvString(data->schema(), ToCsvString(*data));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_tuples(), 50);
  for (int64_t t = 0; t < 50; ++t) {
    EXPECT_EQ(parsed->label(t), data->label(t));
  }
}

TEST(CsvTest, AcceptsNumericCodesWithoutNames) {
  Schema s;
  s.AddCategorical("c", 4);  // no value names
  s.SetClassNames({"A", "B"});
  auto parsed = FromCsvString(s, "c,class\n2,B\n0,A\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value(0, 0).cat, 2);
  EXPECT_EQ(parsed->label(1), 0);
}

TEST(CsvTest, AcceptsNumericClassLabels) {
  auto parsed = FromCsvString(SmallSchema(), "age,car,class\n5,0,1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->label(0), 1);
}

TEST(CsvTest, SkipsBlankLines) {
  auto parsed =
      FromCsvString(SmallSchema(), "age,car,class\n\n5,sedan,yes\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 1);
}

TEST(CsvTest, RejectsBadHeader) {
  EXPECT_TRUE(FromCsvString(SmallSchema(), "wrong,car,class\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,class\n").status().IsCorruption());
}

TEST(CsvTest, RejectsBadValues) {
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\nxx,sedan,yes\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\n5,helicopter,yes\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\n5,sedan,maybe\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\n5,sedan\n")
                  .status()
                  .IsCorruption());
}

TEST(CsvTest, RejectsNonFiniteContinuousValues) {
  // NaN and infinities have no place in the sorted order the trainers rely
  // on; 1e300 parses as a double but overflows the float column.
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                           "1e300", "-1e300"}) {
    const std::string csv =
        std::string("age,car,class\n5,sedan,yes\n") + text + ",truck,no\n";
    auto parsed = FromCsvString(SmallSchema(), csv);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << text << ": " << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("row 3:"), std::string::npos)
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("attribute 'age'"),
              std::string::npos)
        << parsed.status().ToString();
  }
  // Large finite values, the missing marker and negative zero still load.
  auto fine = FromCsvString(SmallSchema(),
                            "age,car,class\n3.4e38,sedan,yes\n?,truck,no\n"
                            "-0,sports,yes\n");
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(fine->num_tuples(), 3);
}

TEST(CsvTest, NanColumnNeverReachesTraining) {
  // Every 5th tuple's first continuous attribute set to nan: the load fails
  // with InvalidArgument, so neither engine ever sees the value.
  SyntheticConfig cfg;
  cfg.function = 1;
  cfg.num_tuples = 400;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  std::string text = ToCsvString(*data);
  std::string poisoned;
  size_t line = 0;
  for (size_t start = 0; start < text.size();) {
    const size_t end = text.find('\n', start);
    std::string row = text.substr(start, end - start);
    if (line > 0 && line % 5 == 0) row = "nan" + row.substr(row.find(','));
    poisoned += row + "\n";
    start = end + 1;
    ++line;
  }
  auto parsed = FromCsvString(data->schema(), poisoned);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument())
      << parsed.status().ToString();
  EXPECT_FALSE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("row 6:"), std::string::npos)
      << parsed.status().ToString();
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_TRUE(FromCsvString(SmallSchema(), "").status().IsCorruption());
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path =
      "/tmp/smptree_csv_test_" + std::to_string(::getpid()) + ".csv";
  const Dataset original = SmallData();
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto parsed = ReadCsv(SmallSchema(), path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), original.num_tuples());
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace smptree
