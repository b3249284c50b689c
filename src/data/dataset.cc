#include "data/dataset.h"

#include <bit>

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

Status Dataset::Validate(const Schema& schema) const {
  // Each column is first scanned branch-free for any fault; only a faulty
  // column is scanned again for the first bad value to name.
  constexpr uint32_t kExponent = 0x7f800000u;  // all ones: inf or NaN
  for (int a = 0; a < num_attrs(); ++a) {
    const AttrInfo& info = schema.attr(a);
    const std::span<const AttrValue> col = column(a);
    const uint32_t cardinality = static_cast<uint32_t>(info.cardinality);
    uint32_t bad = 0;
    if (info.is_categorical()) {
      for (AttrValue v : col) bad |= std::bit_cast<uint32_t>(v) >= cardinality;
    } else {
      for (AttrValue v : col) {
        bad |= (std::bit_cast<uint32_t>(v) & kExponent) == kExponent;
      }
    }
    if (bad == 0) continue;
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
  const int num_classes = schema.num_classes();
  uint32_t bad = 0;
  for (ClassLabel label : labels_) bad |= label >= num_classes;
  if (bad == 0) return Status::OK();
  for (int64_t t = 0; t < num_tuples(); ++t) {
    if (labels_[t] >= num_classes) {
      return Status::Corruption(
          StringPrintf("tuple %lld: label %d outside %d classes",
                       static_cast<long long>(t), labels_[t], num_classes));
    }
  }
  return Status::OK();
}

}  // namespace smptree
