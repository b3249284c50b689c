// Minimal JSON support for the serving subsystem: a recursive-descent
// parser into a small value model, plus string-building helpers for
// responses. Covers the JSON the serving endpoints exchange (objects,
// arrays, strings, numbers, booleans, null); it is not a general-purpose
// library -- no surrogate-pair decoding, numbers parse as double.

#ifndef SMPTREE_SERVE_JSON_H_
#define SMPTREE_SERVE_JSON_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace smptree {

/// One parsed JSON value. Null, booleans and numbers are stored inline;
/// a string, array or object lives behind one owned pointer, so a value is
/// 16 bytes and a 256x32 predict request's numbers cost no allocation.
/// Containers own their children; copies are deep. The whole tree is
/// immutable after parsing.
class JsonValue {
 public:
  enum class Type : unsigned char { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept
      : type_(other.type_), payload_(other.payload_) {
    other.type_ = Type::kNull;
  }
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue() {
    if (type_ >= Type::kString) DeletePayload();
  }

  static JsonValue MakeBool(bool b) {
    JsonValue v;
    v.type_ = Type::kBool;
    v.payload_.boolean = b;
    return v;
  }
  static JsonValue MakeNumber(double d) {
    JsonValue v;
    v.type_ = Type::kNumber;
    v.payload_.number = d;
    return v;
  }
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> members);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Each accessor returns false / 0 / empty when the value has another type.
  bool bool_value() const { return is_bool() && payload_.boolean; }
  double number_value() const { return is_number() ? payload_.number : 0.0; }
  const std::string& string_value() const {
    return is_string() ? *payload_.string : EmptyString();
  }
  const std::vector<JsonValue>& array_items() const {
    return is_array() ? *payload_.array : EmptyArray();
  }
  const std::map<std::string, JsonValue>& object_members() const {
    return is_object() ? *payload_.object : EmptyObject();
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  union Payload {
    bool boolean;
    double number;
    std::string* string;
    std::vector<JsonValue>* array;
    std::map<std::string, JsonValue>* object;
  };

  static const std::string& EmptyString();
  static const std::vector<JsonValue>& EmptyArray();
  static const std::map<std::string, JsonValue>& EmptyObject();
  void DeletePayload();

  Type type_ = Type::kNull;
  Payload payload_{};
};

/// Parses one JSON document; trailing non-whitespace is an error. Nesting
/// deeper than 64 levels is rejected (requests are flat; this bounds the
/// parser's recursion on hostile input).
Result<JsonValue> ParseJson(const std::string& text);

/// Renders `raw` as a JSON string literal, quotes included.
std::string JsonQuote(const std::string& raw);

/// Renders a double the way the responses need it: integral values below
/// 1e15 in magnitude without a fraction (as "%lld"), others as "%.17g",
/// NaN/Inf as null (JSON has no literal for them).
std::string JsonNumber(double value);

/// Appending forms of JsonQuote / JsonNumber plus a "%lld" integer, for
/// building a response body in one string.
void AppendJsonQuoted(const std::string& raw, std::string* out);
void AppendJsonNumber(double value, std::string* out);
void AppendJsonInteger(long long value, std::string* out);

}  // namespace smptree

#endif  // SMPTREE_SERVE_JSON_H_
