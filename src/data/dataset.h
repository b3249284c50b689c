// Dataset: columnar training data. Continuous attributes are float columns;
// categorical attributes are dense int32 code columns; class labels are a
// ClassLabel column. Column-major layout matches how SPRINT consumes the
// data (one attribute list per attribute).

#ifndef SMPTREE_DATA_DATASET_H_
#define SMPTREE_DATA_DATASET_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/records.h"
#include "data/schema.h"
#include "util/status.h"

namespace smptree {

/// One training tuple's attribute values, used for row-wise access
/// (prediction, CSV). `values[i]` interprets per schema attr type.
using TupleValues = std::vector<AttrValue>;

/// Columnar training set.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema);

  const Schema& schema() const { return schema_; }
  int64_t num_tuples() const { return num_tuples_; }
  int num_attrs() const { return schema_.num_attrs(); }
  int num_classes() const { return schema_.num_classes(); }

  /// Appends one tuple. `values.size()` must equal num_attrs(); `label` must
  /// be < num_classes().
  Status Append(const TupleValues& values, ClassLabel label);

  /// Reserves space for `n` tuples.
  void Reserve(int64_t n);

  /// Raw column access (values interpreted per attribute type).
  std::span<const AttrValue> column(int attr) const {
    return columns_[attr];
  }
  std::span<const ClassLabel> labels() const { return labels_; }

  AttrValue value(int64_t tuple, int attr) const {
    return columns_[attr][tuple];
  }
  ClassLabel label(int64_t tuple) const { return labels_[tuple]; }

  /// Gathers one tuple's values row-wise.
  TupleValues Tuple(int64_t tuple) const;

  /// Class frequency histogram over the whole set.
  std::vector<int64_t> ClassCounts() const;

  /// Approximate in-memory size in bytes (for the Table 1 "DB size" column).
  uint64_t SizeBytes() const;

  /// Fails unless every categorical code is within its cardinality and every
  /// label is within the class alphabet.
  Status Validate() const;

 private:
  Schema schema_;
  std::vector<std::vector<AttrValue>> columns_;
  std::vector<ClassLabel> labels_;
  int64_t num_tuples_ = 0;
  /// Indices of the continuous attributes, whose values Append checks.
  std::vector<int> continuous_attrs_;
};

/// The InvalidArgument CheckContinuousValue returns for a non-finite value.
Status NonFiniteValueError(const AttrInfo& info, int64_t row, float value);

/// Rejects a continuous value the trainers cannot order: NaN or an
/// infinity, including finite input text that overflows when narrowed to
/// float (1e300). The readers and Dataset::Append call it on every
/// continuous value, so the accepted case is one inline compare. `row` is the row number the error names beside the attribute
/// (the CSV reader passes its line number). The missing-value sentinel is
/// finite and passes.
inline Status CheckContinuousValue(const AttrInfo& info, int64_t row,
                                   float value) {
  if (std::isfinite(value)) return Status::OK();
  return NonFiniteValueError(info, row, value);
}

}  // namespace smptree

#endif  // SMPTREE_DATA_DATASET_H_
