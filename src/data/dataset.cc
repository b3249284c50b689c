#include "data/dataset.h"

#include "util/string_util.h"

namespace smptree {

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
  const int64_t t = num_tuples();
  for (int a = 0; a < num_attrs(); ++a) {
    if (schema_.attr(a).is_categorical()) continue;
    SMPTREE_RETURN_IF_ERROR(
        CheckContinuousValue(schema_.attr(a), t, values[a].f));
  }
  Resize(t + 1);
  Set(t, values, label);
  return Status::OK();
}

std::vector<int64_t> Dataset::ClassCounts() const {
  std::vector<int64_t> counts(num_classes(), 0);
  for (ClassLabel l : labels_) ++counts[l];
  return counts;
}

uint64_t Dataset::SizeBytes() const {
  return static_cast<uint64_t>(num_tuples()) *
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
    for (int64_t t = 0; t < num_tuples(); ++t) {
      const AttrValue v = value(t, a);
      if (!info.is_categorical()) {
        SMPTREE_RETURN_IF_ERROR(CheckContinuousValue(info, t, v.f));
      } else if (v.cat < 0 || v.cat >= info.cardinality) {
        return Status::Corruption(StringPrintf(
            "tuple %lld attr '%s': code %d outside cardinality %d",
            static_cast<long long>(t), info.name.c_str(), v.cat,
            info.cardinality));
      }
    }
  }
  for (int64_t t = 0; t < num_tuples(); ++t) {
    if (labels_[t] >= num_classes()) {
      return Status::Corruption(
          StringPrintf("tuple %lld: label %d outside %d classes",
                       static_cast<long long>(t), labels_[t], num_classes()));
    }
  }
  return Status::OK();
}

}  // namespace smptree
