#include "serve/batch.h"

#include <cmath>

#include "util/string_util.h"

namespace smptree {

namespace {

Status ValueError(const AttrInfo& info, int64_t row, const char* what) {
  return Status::InvalidArgument(StringPrintf(
      "tuple %lld, attribute '%s': %s", static_cast<long long>(row),
      info.name.c_str(), what));
}

/// Decodes one wire value of attribute `info` into `out`.
Status ValueFromJson(const AttrInfo& info, const JsonValue& v, int64_t row,
                     AttrValue* out) {
  if (!info.is_categorical()) {
    if (v.is_number()) {
      // 1e400 parses to inf and 1e39 overflows float: reject both, as the
      // readers do, rather than score an infinity.
      out->f = static_cast<float>(v.number_value());
      if (!std::isfinite(out->f)) {
        return ValueError(info, row, "non-finite continuous value");
      }
      return Status::OK();
    }
    if (!v.is_null()) return ValueError(info, row, "expected a number");
    out->f = kMissingValue;
    return Status::OK();
  }
  if (v.is_string()) {
    for (int code = 0; code < static_cast<int>(info.value_names.size());
         ++code) {
      if (info.value_names[code] == v.string_value()) {
        out->cat = code;
        return Status::OK();
      }
    }
    return Status::InvalidArgument(StringPrintf(
        "tuple %lld, attribute '%s': unknown categorical value '%s'",
        static_cast<long long>(row), info.name.c_str(),
        v.string_value().c_str()));
  }
  if (v.is_number()) {
    // Range-check the double before converting it: casting a value outside
    // int's range (1e300, 2147483648) to int is undefined behaviour.
    const double d = v.number_value();
    if (!(d >= 0.0 && d < static_cast<double>(info.cardinality)) ||
        d != std::floor(d)) {
      return ValueError(info, row, "categorical code out of range");
    }
    out->cat = static_cast<int32_t>(d);
    return Status::OK();
  }
  return ValueError(info, row, "expected a code or value name");
}

}  // namespace

Result<Batch> Batch::FromJson(const Schema& schema, const JsonValue& doc) {
  const JsonValue* tuples = doc.Find("tuples");
  if (tuples == nullptr || !tuples->is_array()) {
    return Status::InvalidArgument(
        "request must be an object with a \"tuples\" array");
  }
  const std::vector<JsonValue>& rows = tuples->array_items();
  if (rows.empty()) {
    return Status::InvalidArgument("\"tuples\" is empty");
  }
  const int num_attrs = schema.num_attrs();
  Batch batch(num_attrs);
  batch.Resize(static_cast<int64_t>(rows.size()));
  for (size_t row = 0; row < rows.size(); ++row) {
    const std::vector<JsonValue>& values = rows[row].array_items();
    if (!rows[row].is_array() ||
        values.size() != static_cast<size_t>(num_attrs)) {
      return Status::InvalidArgument(StringPrintf(
          "tuple %lld: expected an array of %d values",
          static_cast<long long>(row), num_attrs));
    }
    for (int a = 0; a < num_attrs; ++a) {
      SMPTREE_RETURN_IF_ERROR(ValueFromJson(
          schema.attr(a), values[static_cast<size_t>(a)],
          static_cast<int64_t>(row), &batch.mutable_column(a)[row]));
    }
  }
  return batch;
}

}  // namespace smptree
