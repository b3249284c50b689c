#include "core/presort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "data/synthetic.h"

namespace smptree {
namespace {

Dataset MakeData(int n, int attrs = 9) {
  SyntheticConfig cfg;
  cfg.function = 2;
  cfg.num_tuples = n;
  cfg.num_attrs = attrs;
  auto data = GenerateSynthetic(cfg);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// The order the presort must produce, built the obvious way: tid-order
// lists, each continuous one sorted by std::sort with ContinuousRecordLess.
std::vector<std::vector<AttrRecord>> OracleLists(const Dataset& data) {
  std::vector<std::vector<AttrRecord>> lists(data.num_attrs());
  for (int a = 0; a < data.num_attrs(); ++a) {
    auto& list = lists[a];
    list.resize(data.num_tuples());
    for (int64_t t = 0; t < data.num_tuples(); ++t) {
      list[t].value = data.value(t, a);
      list[t].tid = static_cast<Tid>(t);
      list[t].label = data.label(t);
      list[t].unused = 0;
    }
    if (!data.schema().attr(a).is_categorical()) {
      std::sort(list.begin(), list.end(), ContinuousRecordLess());
    }
  }
  return lists;
}

// Every list BuildAttributeLists makes, at 1, 2 and 4 threads, must be
// byte-identical to the oracle's.
void ExpectMatchesOracle(const Dataset& data) {
  const auto oracle = OracleLists(data);
  for (int threads : {1, 2, 4}) {
    auto lists = BuildAttributeLists(data, threads);
    ASSERT_TRUE(lists.ok()) << lists.status().ToString();
    ASSERT_EQ(lists->lists.size(), oracle.size());
    for (size_t a = 0; a < oracle.size(); ++a) {
      const auto& got = lists->lists[a];
      ASSERT_EQ(got.size(), oracle[a].size());
      EXPECT_EQ(std::memcmp(got.data(), oracle[a].data(),
                            got.size() * sizeof(AttrRecord)),
                0)
          << "attr " << a << ", " << threads << " threads";
    }
  }
}

// A dataset of continuous columns given column by column, plus one
// categorical column so mixed schemas are covered; labels alternate.
Dataset ColumnsData(const std::vector<std::vector<float>>& columns) {
  Schema s;
  for (size_t c = 0; c < columns.size(); ++c) {
    s.AddContinuous("x" + std::to_string(c));
  }
  s.AddCategorical("cat", 3);
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(columns.size() + 1);
  for (size_t t = 0; t < columns[0].size(); ++t) {
    for (size_t c = 0; c < columns.size(); ++c) v[c].f = columns[c][t];
    v[columns.size()].cat = static_cast<int32_t>(t % 3);
    EXPECT_TRUE(data.Append(v, static_cast<ClassLabel>(t % 2)).ok());
  }
  return data;
}

// `n` finite floats: uniformly random bit patterns (every sign, exponent
// and mantissa digit) mixed with a few repeated values.
std::vector<float> RandomFloats(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  const float repeated[] = {0.0f, -0.0f, 1.5f, -1.5f, kMissingValue, FLT_MAX};
  std::vector<float> out;
  out.reserve(n);
  while (out.size() < n) {
    const uint32_t bits = static_cast<uint32_t>(rng());
    if (bits % 4 == 0) {
      out.push_back(repeated[(bits >> 2) % std::size(repeated)]);
      continue;
    }
    const float f = std::bit_cast<float>(bits);
    if (std::isfinite(f)) out.push_back(f);
  }
  return out;
}

TEST(PresortOracleTest, SignedZerosOrderByTid) {
  // -0.0f == +0.0f, so a run of both must stay in tid order, each record
  // keeping its own sign bit.
  const float pattern[] = {-0.0f, 0.0f, 1.0f, 0.0f, -1.0f, -0.0f, -0.0f};
  std::vector<float> x;
  for (int i = 0; i < 70; ++i) x.push_back(pattern[i % std::size(pattern)]);
  const Dataset data = ColumnsData({x});
  ExpectMatchesOracle(data);
  auto lists = BuildAttributeLists(data, 1);
  ASSERT_TRUE(lists.ok());
  std::vector<Tid> zero_tids;
  for (const AttrRecord& rec : lists->lists[0]) {
    if (rec.value.f == 0.0f) zero_tids.push_back(rec.tid);
  }
  ASSERT_FALSE(zero_tids.empty());
  EXPECT_TRUE(std::is_sorted(zero_tids.begin(), zero_tids.end()));
}

TEST(PresortOracleTest, ExtremesAndMissing) {
  const std::vector<float> x = {FLT_MAX,       kMissingValue, -FLT_MAX,
                                0.0f,          FLT_MAX,       kMissingValue,
                                -1.0f,         1.0f,          FLT_MIN,
                                -FLT_MIN,      kMissingValue, -FLT_MAX};
  ExpectMatchesOracle(ColumnsData({x}));
}

TEST(PresortOracleTest, DenormalsAndNegatives) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> x;
  for (int i = 0; i < 200; ++i) {
    const float mag = (i % 4 == 0)   ? denorm * static_cast<float>(i + 1)
                      : (i % 4 == 1) ? FLT_MIN / static_cast<float>(i + 2)
                      : (i % 4 == 2) ? static_cast<float>(i) * 0.25f
                                     : 1e30f / static_cast<float>(i);
    x.push_back(i % 3 == 0 ? -mag : mag);
  }
  ExpectMatchesOracle(ColumnsData({x}));
}

TEST(PresortOracleTest, AllEqualColumn) {
  // Every digit is constant, so every pass is skipped.
  ExpectMatchesOracle(ColumnsData({std::vector<float>(1000, 42.5f),
                                   std::vector<float>(1000, -0.0f)}));
}

TEST(PresortOracleTest, SingleTuple) {
  ExpectMatchesOracle(ColumnsData({{3.0f}, {-7.0f}}));
}

TEST(PresortOracleTest, LargeRandomColumns) {
  const size_t n = (size_t{1} << 17) + 3;
  ExpectMatchesOracle(ColumnsData(
      {RandomFloats(n, 1), RandomFloats(n, 2), RandomFloats(n, 3)}));
}

TEST(PresortOracleTest, F7A32) {
  SyntheticConfig cfg;
  cfg.function = 7;
  cfg.num_attrs = 32;
  cfg.num_tuples = 20000;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  ExpectMatchesOracle(*data);
}

TEST(PresortTest, OneListPerAttribute) {
  const Dataset data = MakeData(100);
  auto lists = BuildAttributeLists(data);
  ASSERT_TRUE(lists.ok());
  ASSERT_EQ(lists->lists.size(), 9u);
  for (const auto& list : lists->lists) {
    EXPECT_EQ(list.size(), 100u);
  }
}

TEST(PresortTest, ContinuousListsSortedCategoricalInTidOrder) {
  const Dataset data = MakeData(500);
  auto lists = BuildAttributeLists(data);
  ASSERT_TRUE(lists.ok());
  for (int a = 0; a < data.num_attrs(); ++a) {
    const auto& list = lists->lists[a];
    if (data.schema().attr(a).is_categorical()) {
      // Categorical lists stay in unsorted (original tid) order.
      for (size_t i = 0; i < list.size(); ++i) {
        EXPECT_EQ(list[i].tid, static_cast<Tid>(i));
      }
    } else {
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end(),
                                 ContinuousRecordLess()));
    }
  }
}

TEST(PresortTest, RecordsCarryCorrectValueAndLabel) {
  const Dataset data = MakeData(200);
  auto lists = BuildAttributeLists(data);
  ASSERT_TRUE(lists.ok());
  for (int a = 0; a < data.num_attrs(); ++a) {
    for (const AttrRecord& rec : lists->lists[a]) {
      EXPECT_EQ(rec.label, data.label(rec.tid));
      if (data.schema().attr(a).is_categorical()) {
        EXPECT_EQ(rec.value.cat, data.value(rec.tid, a).cat);
      } else {
        EXPECT_EQ(rec.value.f, data.value(rec.tid, a).f);
      }
    }
  }
}

TEST(PresortTest, ParallelSortMatchesSequential) {
  const Dataset data = MakeData(1000, 16);
  auto seq = BuildAttributeLists(data, 1);
  auto par = BuildAttributeLists(data, 4);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  for (int a = 0; a < data.num_attrs(); ++a) {
    const auto& s = seq->lists[a];
    const auto& p = par->lists[a];
    ASSERT_EQ(s.size(), p.size());
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i].tid, p[i].tid) << "attr " << a << " index " << i;
    }
  }
}

TEST(PresortTest, TimersPopulated) {
  const Dataset data = MakeData(100);
  auto lists = BuildAttributeLists(data);
  ASSERT_TRUE(lists.ok());
  EXPECT_GE(lists->setup_seconds, 0.0);
  EXPECT_GE(lists->sort_seconds, 0.0);
}

TEST(PresortTest, RejectsEmptyDataset) {
  Dataset empty(SyntheticSchema(9));
  EXPECT_TRUE(BuildAttributeLists(empty).status().IsInvalidArgument());
}

TEST(PresortTest, DeterministicTieBreakByTid) {
  // Equal values must order by tid so every build sees identical lists.
  Schema s;
  s.AddContinuous("x");
  s.SetClassNames({"A", "B"});
  Dataset data(s);
  TupleValues v(1);
  for (int i = 0; i < 50; ++i) {
    v[0].f = static_cast<float>(i % 3);  // many duplicates
    ASSERT_TRUE(data.Append(v, i % 2).ok());
  }
  auto lists = BuildAttributeLists(data);
  ASSERT_TRUE(lists.ok());
  const auto& list = lists->lists[0];
  for (size_t i = 0; i + 1 < list.size(); ++i) {
    if (list[i].value.f == list[i + 1].value.f) {
      EXPECT_LT(list[i].tid, list[i + 1].tid);
    }
  }
}

}  // namespace
}  // namespace smptree
