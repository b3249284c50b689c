#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <string_view>

#include "util/string_util.h"

namespace smptree {

JsonValue::JsonValue(const JsonValue& other)
    : type_(other.type_), payload_(other.payload_) {
  switch (type_) {
    case Type::kString:
      payload_.string = new std::string(*other.payload_.string);
      break;
    case Type::kArray:
      payload_.array = new std::vector<JsonValue>(*other.payload_.array);
      break;
    case Type::kObject:
      payload_.object =
          new std::map<std::string, JsonValue>(*other.payload_.object);
      break;
    default:
      break;
  }
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    if (type_ >= Type::kString) DeletePayload();
    type_ = other.type_;
    payload_ = other.payload_;
    other.type_ = Type::kNull;
  }
  return *this;
}

void JsonValue::DeletePayload() {
  switch (type_) {
    case Type::kString: delete payload_.string; break;
    case Type::kArray: delete payload_.array; break;
    case Type::kObject: delete payload_.object; break;
    default: break;
  }
}

const std::string& JsonValue::EmptyString() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}

const std::vector<JsonValue>& JsonValue::EmptyArray() {
  static const std::vector<JsonValue>* const kEmpty =
      new std::vector<JsonValue>();
  return *kEmpty;
}

const std::map<std::string, JsonValue>& JsonValue::EmptyObject() {
  static const std::map<std::string, JsonValue>* const kEmpty =
      new std::map<std::string, JsonValue>();
  return *kEmpty;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.payload_.string = new std::string(std::move(s));
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.payload_.array = new std::vector<JsonValue>(std::move(items));
  return v;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.payload_.object =
      new std::map<std::string, JsonValue>(std::move(members));
  return v;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = payload_.object->find(key);
  return it == payload_.object->end() ? nullptr : &it->second;
}

namespace {

/// Bytes a number token is made of: the token is the longest run of them,
/// and strtod must consume all of it.
bool IsNumberByte(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

/// Recursive-descent parser over (text, pos). Each Parse* returns false
/// after recording the error in error_. Array items are parsed onto
/// stack_, shared by every nesting level, and moved into a vector of
/// exactly their count when the array closes.
class Parser {
 public:
  explicit Parser(const std::string& text)
      : text_(text.data()), size_(text.size()) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    if (!ParseValue(0, &v)) return error_;
    SkipSpace();
    if (pos_ != size_) {
      Fail("trailing characters after JSON document");
      return error_;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* what) {
    error_ = Status::InvalidArgument(
        StringPrintf("json: %s at offset %zu", what, pos_));
    return false;
  }

  void SkipSpace() {
    while (pos_ < size_ && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < size_ && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (std::string_view(text_ + pos_, size_ - pos_).substr(0, word.size()) ==
        word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= size_) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeWord("true")) break;
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!ConsumeWord("false")) break;
        *out = JsonValue::MakeBool(false);
        return true;
      case 'n':
        if (!ConsumeWord("null")) break;
        *out = JsonValue();
        return true;
      default:
        break;
    }
    return ParseNumber(out);
  }

  bool ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipSpace();
    if (Consume('}')) {
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= size_ || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue v;
      if (!ParseValue(depth + 1, &v)) return false;
      members.insert_or_assign(std::move(key), std::move(v));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) {
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    const size_t base = stack_.size();
    SkipSpace();
    if (!Consume(']')) {
      for (;;) {
        // Parsed into a local: a nested array grows stack_ and would
        // invalidate a pointer into it.
        JsonValue v;
        if (!ParseValue(depth + 1, &v)) return false;
        stack_.push_back(std::move(v));
        SkipSpace();
        if (Consume(',')) continue;
        if (Consume(']')) break;
        return Fail("expected ',' or ']' in array");
      }
    }
    const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
    *out = JsonValue::MakeArray(std::vector<JsonValue>(
        std::make_move_iterator(first), std::make_move_iterator(stack_.end())));
    stack_.erase(first, stack_.end());
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    for (;;) {
      // Copy the run up to the next quote, escape or control byte at once.
      const size_t run = pos_;
      while (pos_ < size_ && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out->append(text_ + run, pos_ - run);
      if (pos_ >= size_) return Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return Fail("unescaped control character in string");
      if (pos_ >= size_) return Fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > size_) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are
          // passed through as two separate 3-byte sequences).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < size_ && IsNumberByte(text_[pos_])) ++pos_;
    if (pos_ == start) return Fail("expected a value");
    const char* const first = text_ + start;
    const char* const last = text_ + pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) {
      // from_chars rejects a leading '+' and reports overflow/underflow
      // instead of returning +-inf/0; strtod decides those tokens, so what
      // is accepted and the value it gets are strtod's.
      const std::string token(first, last);
      char* token_end = nullptr;
      value = std::strtod(token.c_str(), &token_end);
      if (token_end != token.c_str() + token.size()) {
        return Fail("malformed number");
      }
    }
    *out = JsonValue::MakeNumber(value);
    return true;
  }

  const char* const text_;
  const size_t size_;
  size_t pos_ = 0;
  std::vector<JsonValue> stack_;  ///< items of every array being parsed
  Status error_;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

void AppendJsonQuoted(const std::string& raw, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // start of the bytes not yet copied
  for (size_t i = 0; i < raw.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(raw, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        *out += "\\u00";
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xF]);
    }
  }
  out->append(raw, run, std::string::npos);
  out->push_back('"');
}

std::string JsonQuote(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  AppendJsonQuoted(raw, &out);
  return out;
}

void AppendJsonInteger(long long value, std::string* out) {
  char buf[24];
  char* const end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += "null";
  } else if (value == std::floor(value) && std::fabs(value) < 1e15) {
    AppendJsonInteger(static_cast<long long>(value), out);
  } else {
    // The general format at precision 17 is printf's "%.17g", byte for byte.
    char buf[32];
    char* const end =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 17)
            .ptr;
    out->append(buf, end);
  }
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(value, &out);
  return out;
}

}  // namespace smptree
