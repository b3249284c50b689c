#include "serve/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace smptree {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("3.5")->number_value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseJson("-12")->number_value(), -12.0);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->number_value(), 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value(), "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  auto doc = ParseJson(
      R"({"tuples": [[1.5, "blue", null], [2, 0, 3]], "count": 2})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* tuples = doc->Find("tuples");
  ASSERT_NE(tuples, nullptr);
  ASSERT_TRUE(tuples->is_array());
  ASSERT_EQ(tuples->array_items().size(), 2u);
  const auto& first = tuples->array_items()[0].array_items();
  EXPECT_DOUBLE_EQ(first[0].number_value(), 1.5);
  EXPECT_EQ(first[1].string_value(), "blue");
  EXPECT_TRUE(first[2].is_null());
  EXPECT_DOUBLE_EQ(doc->Find("count")->number_value(), 2.0);
}

TEST(JsonTest, ParsesEscapes) {
  auto doc = ParseJson(R"("a\"b\\c\nd\u0041")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), "a\"b\\c\nd\x41");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("1.2.3").ok());
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_TRUE(ParseJson("[]")->array_items().empty());
  EXPECT_TRUE(ParseJson("{}")->object_members().empty());
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, NumberFormatting) {
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(JsonNumber(-42.0), "-42");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
}

TEST(JsonTest, QuoteRoundTripsThroughParser) {
  const std::string nasty = "line1\nline2\t\"quoted\" \\slash\\";
  auto parsed = ParseJson(JsonQuote(nasty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), nasty);
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Parses `text` both as a lone document and inside an array, and checks
/// both give exactly strtod's bits.
void ExpectStrtodBits(const std::string& text) {
  const uint64_t want = Bits(std::strtod(text.c_str(), nullptr));
  auto alone = ParseJson(text);
  ASSERT_TRUE(alone.ok()) << text << ": " << alone.status().ToString();
  ASSERT_TRUE(alone->is_number()) << text;
  EXPECT_EQ(Bits(alone->number_value()), want) << text;
  auto inside = ParseJson("[" + text + "," + text + "]");
  ASSERT_TRUE(inside.ok()) << text;
  ASSERT_EQ(inside->array_items().size(), 2u) << text;
  EXPECT_EQ(Bits(inside->array_items()[1].number_value()), want) << text;
}

TEST(JsonTest, NumbersParseToStrtodBits) {
  std::mt19937_64 rng(20260417);
  // Random bit patterns cover every exponent, subnormals included.
  for (int i = 0; i < 4000; ++i) {
    const uint32_t fbits = static_cast<uint32_t>(rng());
    float f;
    std::memcpy(&f, &fbits, sizeof(f));
    if (std::isfinite(f)) {
      ExpectStrtodBits(StringPrintf("%.9g", static_cast<double>(f)));
    }
    const uint64_t dbits = rng();
    double d;
    std::memcpy(&d, &dbits, sizeof(d));
    if (std::isfinite(d)) ExpectStrtodBits(StringPrintf("%.17g", d));
    // The values the wire carries most: feature-scale floats and codes.
    const double scaled =
        std::ldexp(static_cast<double>(rng() >> 11), -53) * 1e6;
    const float feature = static_cast<float>(scaled);
    ExpectStrtodBits(StringPrintf("%.9g", static_cast<double>(feature)));
    const long long integer = static_cast<long long>(rng() >> 1) - (1LL << 62);
    ExpectStrtodBits(StringPrintf("%lld", integer));
  }
  for (const char* text :
       {"0", "-0", "7", "-12", "9007199254740993", "1e400", "-1e400",
        "1e-400", "-1e-400", "4.9406564584124654e-324",
        "2.2250738585072011e-308", "1.7976931348623157e308", "1e23", "0.1",
        "5e-324", "1E5", "1e+5"}) {
    ExpectStrtodBits(text);
  }
  EXPECT_TRUE(std::isinf(ParseJson("1e400")->number_value()));
  EXPECT_TRUE(std::signbit(ParseJson("-0")->number_value()));
}

TEST(JsonTest, LenientNumberTokensKeepTheirVerdict) {
  // What strtod accepts over the whole token is accepted, beyond JSON's
  // grammar; what it does not consume whole is rejected.
  EXPECT_EQ(ParseJson("+5")->number_value(), 5.0);
  EXPECT_EQ(ParseJson(".5")->number_value(), 0.5);
  EXPECT_EQ(ParseJson("5.")->number_value(), 5.0);
  EXPECT_EQ(ParseJson("01")->number_value(), 1.0);
  EXPECT_EQ(ParseJson("[+5, .5]")->array_items()[1].number_value(), 0.5);
  EXPECT_FALSE(ParseJson("1e").ok());
  EXPECT_FALSE(ParseJson("-").ok());
  EXPECT_FALSE(ParseJson("[1e]").ok());
  EXPECT_FALSE(ParseJson("--5").ok());
  EXPECT_FALSE(ParseJson("1-2").ok());
  EXPECT_FALSE(ParseJson("inf").ok());
  EXPECT_FALSE(ParseJson("-inf").ok());
  EXPECT_FALSE(ParseJson("nan").ok());
  EXPECT_FALSE(ParseJson("0x10").ok());
}

/// Structural equality, numbers compared by bit pattern.
bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_value() == b.bool_value();
    case JsonValue::Type::kNumber:
      return Bits(a.number_value()) == Bits(b.number_value());
    case JsonValue::Type::kString:
      return a.string_value() == b.string_value();
    case JsonValue::Type::kArray:
      if (a.array_items().size() != b.array_items().size()) return false;
      for (size_t i = 0; i < a.array_items().size(); ++i) {
        if (!SameJson(a.array_items()[i], b.array_items()[i])) return false;
      }
      return true;
    case JsonValue::Type::kObject: {
      if (a.object_members().size() != b.object_members().size()) {
        return false;
      }
      auto it = b.object_members().begin();
      for (const auto& [key, value] : a.object_members()) {
        if (key != it->first || !SameJson(value, it->second)) return false;
        ++it;
      }
      return true;
    }
  }
  return false;
}

TEST(JsonTest, DeepCopyEqualsOriginal) {
  const std::string text =
      R"({"tuples": [[1.5, "blue", null], [2, 0, -0]], "flags": [true, false],)"
      R"( "nested": {"a": [[], {}, [[["deep"]]]], "b": "x\ny"}, "n": 1e-7})";
  JsonValue copy;
  JsonValue assigned = JsonValue::MakeString("overwritten");
  {
    auto original = ParseJson(text);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    JsonValue constructed(*original);
    copy = constructed;
    assigned = *original;
    EXPECT_TRUE(SameJson(constructed, *original));
  }  // the original is gone; the copies own everything they point at
  auto reparsed = ParseJson(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(SameJson(copy, *reparsed));
  EXPECT_TRUE(SameJson(assigned, *reparsed));
  EXPECT_FALSE(SameJson(copy, *ParseJson(R"({"tuples": []})")));
  JsonValue moved(std::move(copy));
  EXPECT_TRUE(SameJson(moved, *reparsed));
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  JsonValue& self = assigned;
  assigned = self;
  EXPECT_TRUE(SameJson(assigned, *reparsed));
}

TEST(JsonTest, AccessorsAreEmptyOnTheWrongType) {
  const std::vector<std::string> texts = {"null", "true", "3",
                                          R"("s")", "[1]", R"({"k": 1})"};
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    auto v = ParseJson(text);
    ASSERT_TRUE(v.ok());
    if (!v->is_string()) {
      EXPECT_TRUE(v->string_value().empty());
    }
    if (!v->is_array()) {
      EXPECT_TRUE(v->array_items().empty());
    }
    if (!v->is_object()) {
      EXPECT_TRUE(v->object_members().empty());
      EXPECT_EQ(v->Find("k"), nullptr);
    }
    if (!v->is_number()) {
      EXPECT_EQ(v->number_value(), 0.0);
    }
    if (!v->is_bool()) {
      EXPECT_FALSE(v->bool_value());
    }
  }
}

/// The encoder this module had before std::to_chars, kept as the reference.
std::string PrintfJsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return StringPrintf("%lld", static_cast<long long>(value));
  }
  return StringPrintf("%.17g", value);
}

TEST(JsonTest, NumberMatchesPrintfReference) {
  std::vector<double> values;
  for (int d = 1; d <= 64; ++d) {
    for (int k = -d; k <= 2 * d; ++k) values.push_back(double(k) / d);
  }
  for (const double edge : {1e15, 1e15 - 1, 1e15 + 2, 1e15 - 0.5, 1e16,
                            999999999999999.9, 1e21, 1e22, 1.5e300, 1e-5,
                            1e-4, 123456789012.345, 5e-324, 0.1 + 0.2}) {
    values.push_back(edge);
    values.push_back(-edge);
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(std::nextafter(edge, 2 * edge));
  }
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::denorm_min());
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
  }
  for (const double v : values) {
    const std::string want = PrintfJsonNumber(v);
    EXPECT_EQ(JsonNumber(v), want) << want;
    std::string appended = "x";
    AppendJsonNumber(v, &appended);
    EXPECT_EQ(appended, "x" + want);
  }
  EXPECT_EQ(JsonNumber(-0.0), "0");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  std::string integer;
  AppendJsonInteger(-9223372036854775807LL - 1, &integer);
  EXPECT_EQ(integer, "-9223372036854775808");
}

TEST(JsonTest, QuoteMatchesPrintfReferenceForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    std::string want;
    switch (c) {
      case '"': want = "\\\""; break;
      case '\\': want = "\\\\"; break;
      case '\b': want = "\\b"; break;
      case '\f': want = "\\f"; break;
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default:
        want = b < 0x20 ? StringPrintf("\\u%04x", b) : std::string(1, c);
    }
    const std::string raw = std::string("a") + c + "bc";
    EXPECT_EQ(JsonQuote(raw), "\"a" + want + "bc\"") << b;
  }
}

}  // namespace
}  // namespace smptree
