#include "util/string_util.h"

#include <gtest/gtest.h>

namespace smptree {
namespace {

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StringPrintfTest, LongOutput) {
  std::string long_arg(5000, 'a');
  EXPECT_EQ(StringPrintf("%s", long_arg.c_str()).size(), 5000u);
}

TEST(SplitStringTest, BasicSplit) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  const auto parts = SplitString(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, EmptyInputYieldsOneField) {
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace("x"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(ParseDoubleTest, AcceptsValid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(ParseInt64Test, AcceptsValid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
}

TEST(ParseInt64Test, RejectsGarbage) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));
}

TEST(ParseInt64Test, OneOptionalSign) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64(" +7 ", &v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(ParseInt64("+", &v));
  EXPECT_FALSE(ParseInt64("+-7", &v));
  EXPECT_FALSE(ParseInt64("--7", &v));
  EXPECT_FALSE(ParseInt64("+ 7", &v));
}

TEST(ParseUint64Test, FullRangeAndSignRejection) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_TRUE(ParseUint64("+9", &v));
  EXPECT_EQ(v, 9u);
  EXPECT_FALSE(ParseUint64("+-1", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));
}

TEST(NextLineTest, SplitsLikeGetline) {
  const std::string_view text = "a\n\nb c\nlast";
  size_t pos = 0;
  std::string_view line;
  std::vector<std::string_view> lines;
  while (NextLine(text, &pos, &line)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string_view>{"a", "", "b c", "last"}));
  pos = 0;
  ASSERT_TRUE(NextLine("x\n", &pos, &line));
  EXPECT_EQ(line, "x");
  EXPECT_FALSE(NextLine("x\n", &pos, &line));
  pos = 0;
  EXPECT_FALSE(NextLine("", &pos, &line));
}

TEST(JoinStringsTest, JoinsWithSeparator) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, " AND "), "a AND b AND c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.0 MB");
}

}  // namespace
}  // namespace smptree
