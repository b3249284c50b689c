#include "data/csv.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace smptree {

namespace {

std::string ValueToString(const Schema& schema, int attr, AttrValue v) {
  const AttrInfo& info = schema.attr(attr);
  if (info.is_categorical()) {
    if (!info.value_names.empty() && v.cat >= 0 &&
        v.cat < static_cast<int32_t>(info.value_names.size())) {
      return info.value_names[v.cat];
    }
    return StringPrintf("%d", v.cat);
  }
  if (IsMissing(v.f)) return "?";
  return StringPrintf("%.9g", static_cast<double>(v.f));
}

Status ParseValue(const Schema& schema, int attr, std::string_view text,
                  AttrValue* out) {
  const AttrInfo& info = schema.attr(attr);
  // "?" marks a missing value (ARFF/UCI convention). Continuous attributes
  // use the canonical missing sentinel; categorical schemas must declare an
  // explicit value (e.g. "unknown") instead, so "?" there is rejected by
  // the normal lookup below.
  if (!info.is_categorical() && text == "?") {
    out->f = kMissingValue;
    return Status::OK();
  }
  if (info.is_categorical()) {
    // Try a value name first, then a numeric code.
    for (size_t i = 0; i < info.value_names.size(); ++i) {
      if (info.value_names[i] == text) {
        out->cat = static_cast<int32_t>(i);
        return Status::OK();
      }
    }
    int64_t code = 0;
    if (!ParseInt64(text, &code) || code < 0 || code >= info.cardinality) {
      return Status::Corruption(StringPrintf(
          "bad categorical value '%.*s' for attribute '%s'",
          static_cast<int>(text.size()), text.data(), info.name.c_str()));
    }
    out->cat = static_cast<int32_t>(code);
    return Status::OK();
  }
  double v = 0.0;
  if (!ParseDouble(text, &v)) {
    return Status::Corruption(StringPrintf(
        "bad continuous value '%.*s' for attribute '%s'",
        static_cast<int>(text.size()), text.data(), info.name.c_str()));
  }
  out->f = static_cast<float>(v);
  return Status::OK();
}

Result<Dataset> ParseCsv(const Schema& schema, std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty CSV input");
  }
  const auto header = SplitString(TrimWhitespace(line), ',');
  if (static_cast<int>(header.size()) != schema.num_attrs() + 1) {
    return Status::Corruption(StringPrintf(
        "header has %zu columns, schema expects %d", header.size(),
        schema.num_attrs() + 1));
  }
  for (int a = 0; a < schema.num_attrs(); ++a) {
    if (std::string(TrimWhitespace(header[a])) != schema.attr(a).name) {
      return Status::Corruption(
          StringPrintf("header column %d is '%s', schema expects '%s'", a,
                       header[a].c_str(), schema.attr(a).name.c_str()));
    }
  }

  Dataset data(schema);
  TupleValues values(schema.num_attrs());
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) continue;
    const auto fields = SplitString(trimmed, ',');
    if (static_cast<int>(fields.size()) != schema.num_attrs() + 1) {
      return Status::Corruption(
          StringPrintf("line %lld: %zu fields, expected %d",
                       static_cast<long long>(line_no), fields.size(),
                       schema.num_attrs() + 1));
    }
    for (int a = 0; a < schema.num_attrs(); ++a) {
      SMPTREE_RETURN_IF_ERROR(
          ParseValue(schema, a, TrimWhitespace(fields[a]), &values[a]));
      if (!schema.attr(a).is_categorical()) {
        SMPTREE_RETURN_IF_ERROR(
            CheckContinuousValue(schema.attr(a), line_no, values[a].f));
      }
    }
    const std::string_view label_text = TrimWhitespace(fields.back());
    int label = -1;
    for (int c = 0; c < schema.num_classes(); ++c) {
      if (schema.class_name(c) == label_text) {
        label = c;
        break;
      }
    }
    if (label < 0) {
      int64_t code = 0;
      if (ParseInt64(label_text, &code) && code >= 0 &&
          code < schema.num_classes()) {
        label = static_cast<int>(code);
      }
    }
    if (label < 0) {
      return Status::Corruption(
          StringPrintf("line %lld: unknown class '%.*s'",
                       static_cast<long long>(line_no),
                       static_cast<int>(label_text.size()), label_text.data()));
    }
    SMPTREE_RETURN_IF_ERROR(
        data.Append(values, static_cast<ClassLabel>(label)));
  }
  return data;
}

void EmitCsv(const Dataset& data, std::ostream& out) {
  const Schema& schema = data.schema();
  for (int a = 0; a < schema.num_attrs(); ++a) {
    out << schema.attr(a).name << ',';
  }
  out << "class\n";
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    for (int a = 0; a < schema.num_attrs(); ++a) {
      out << ValueToString(schema, a, data.value(t, a)) << ',';
    }
    out << schema.class_name(data.label(t)) << '\n';
  }
}

}  // namespace

Status WriteCsv(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  EmitCsv(data, out);
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<Dataset> ReadCsv(const Schema& schema, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ParseCsv(schema, in);
}

std::string ToCsvString(const Dataset& data) {
  std::ostringstream os;
  EmitCsv(data, os);
  return os.str();
}

Result<Dataset> FromCsvString(const Schema& schema, const std::string& text) {
  std::istringstream is(text);
  return ParseCsv(schema, is);
}

}  // namespace smptree
