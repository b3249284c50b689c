#include "data/dataset.h"

#include "util/string_util.h"

namespace smptree {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_attrs());
  for (int a = 0; a < schema_.num_attrs(); ++a) {
    if (!schema_.attr(a).is_categorical()) continuous_attrs_.push_back(a);
  }
}

Status Dataset::Append(const TupleValues& values, ClassLabel label) {
  if (static_cast<int>(values.size()) != num_attrs()) {
    return Status::InvalidArgument(
        StringPrintf("tuple has %zu values, schema has %d attributes",
                     values.size(), num_attrs()));
  }
  if (label >= num_classes()) {
    return Status::InvalidArgument(
        StringPrintf("label %d out of range [0,%d)", label, num_classes()));
  }
  // Checked before any column grows, so a rejected tuple leaves no trace.
  for (const int a : continuous_attrs_) {
    SMPTREE_RETURN_IF_ERROR(
        CheckContinuousValue(schema_.attr(a), num_tuples_, values[a].f));
  }
  for (int a = 0; a < num_attrs(); ++a) {
    columns_[a].push_back(values[a]);
  }
  labels_.push_back(label);
  ++num_tuples_;
  return Status::OK();
}

void Dataset::Reserve(int64_t n) {
  for (auto& col : columns_) col.reserve(n);
  labels_.reserve(n);
}

TupleValues Dataset::Tuple(int64_t tuple) const {
  TupleValues out(num_attrs());
  for (int a = 0; a < num_attrs(); ++a) out[a] = columns_[a][tuple];
  return out;
}

std::vector<int64_t> Dataset::ClassCounts() const {
  std::vector<int64_t> counts(num_classes(), 0);
  for (ClassLabel l : labels_) ++counts[l];
  return counts;
}

uint64_t Dataset::SizeBytes() const {
  return static_cast<uint64_t>(num_tuples_) *
         (static_cast<uint64_t>(num_attrs()) * sizeof(AttrValue) +
          sizeof(ClassLabel));
}

Status NonFiniteValueError(const AttrInfo& info, int64_t row, float value) {
  return Status::InvalidArgument(StringPrintf(
      "row %lld: non-finite continuous value '%g' for attribute '%s'",
      static_cast<long long>(row), static_cast<double>(value),
      info.name.c_str()));
}

Status Dataset::Validate() const {
  for (int a = 0; a < num_attrs(); ++a) {
    const AttrInfo& info = schema_.attr(a);
    if (!info.is_categorical()) continue;
    for (int64_t t = 0; t < num_tuples_; ++t) {
      const int32_t code = columns_[a][t].cat;
      if (code < 0 || code >= info.cardinality) {
        return Status::Corruption(StringPrintf(
            "tuple %lld attr '%s': code %d outside cardinality %d",
            static_cast<long long>(t), info.name.c_str(), code,
            info.cardinality));
      }
    }
  }
  for (int64_t t = 0; t < num_tuples_; ++t) {
    if (labels_[t] >= num_classes()) {
      return Status::Corruption(
          StringPrintf("tuple %lld: label %d outside %d classes",
                       static_cast<long long>(t), labels_[t], num_classes()));
    }
  }
  return Status::OK();
}

}  // namespace smptree
