// The columnar data holders. ColumnBlock is the one [attr][tuple] AttrValue
// layout: the serving Batch is a block, and Dataset is a block under a
// schema plus a ClassLabel column -- the training set, and the stream
// trainer's StreamBatch. Continuous attributes are float columns;
// categorical attributes are dense int32 code columns. SPRINT and the
// paper's BASIC scheme read data one attribute at a time, so each attribute
// is one contiguous column.

#ifndef SMPTREE_DATA_DATASET_H_
#define SMPTREE_DATA_DATASET_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/records.h"
#include "data/schema.h"
#include "util/status.h"

namespace smptree {

/// One tuple's attribute values row-wise (prediction, CSV, generators).
/// `values[i]` interprets per schema attr type.
using TupleValues = std::vector<AttrValue>;

/// Attribute values only. Storage is one buffer of num_attrs x capacity
/// values; column `a` starts at a * capacity. A shrinking Resize keeps the
/// capacity, so a reused block stops allocating once it has held its
/// largest fill.
class ColumnBlock {
 public:
  ColumnBlock() = default;
  explicit ColumnBlock(int num_attrs) : num_attrs_(num_attrs) {}
  ColumnBlock(const ColumnBlock&) = default;
  ColumnBlock& operator=(const ColumnBlock&) = default;
  /// A moved-from block is empty, so refilling it never writes past its
  /// (moved-away) storage.
  ColumnBlock(ColumnBlock&& other) noexcept { *this = std::move(other); }
  ColumnBlock& operator=(ColumnBlock&& other) noexcept {
    data_ = std::move(other.data_);
    num_attrs_ = other.num_attrs_;
    num_tuples_ = std::exchange(other.num_tuples_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  int num_attrs() const { return num_attrs_; }
  int64_t num_tuples() const { return num_tuples_; }
  int64_t capacity() const { return capacity_; }

  /// Raw column access (values interpreted per attribute type).
  std::span<const AttrValue> column(int attr) const {
    return {data_.data() + attr * capacity_, static_cast<size_t>(num_tuples_)};
  }
  std::span<AttrValue> mutable_column(int attr) {
    return {data_.data() + attr * capacity_, static_cast<size_t>(num_tuples_)};
  }
  AttrValue value(int64_t tuple, int attr) const {
    return data_[static_cast<size_t>(attr * capacity_ + tuple)];
  }

  /// Sets the tuple count to `n`. Tuples below the old count keep their
  /// values; new ones are unspecified until written. Growing past the
  /// capacity at least doubles it and moves every column once.
  void Resize(int64_t n) {
    if (n > capacity_) {
      const int64_t capacity = std::max(n, 2 * capacity_);
      std::vector<AttrValue> grown(static_cast<size_t>(num_attrs_ * capacity));
      for (int a = 0; a < num_attrs_; ++a) {
        std::copy_n(column(a).begin(), num_tuples_,
                    grown.begin() + a * capacity);
      }
      data_.swap(grown);
      capacity_ = capacity;
    }
    num_tuples_ = n;
  }

  /// Writes tuple `tuple` from one value per attribute.
  void SetRow(int64_t tuple, std::span<const AttrValue> values) {
    for (int a = 0; a < num_attrs_; ++a) mutable_column(a)[tuple] = values[a];
  }

  /// Copies tuple `tuple` into `out`, resized to num_attrs.
  void GatherRow(int64_t tuple, TupleValues* out) const {
    out->resize(static_cast<size_t>(num_attrs_));
    for (int a = 0; a < num_attrs_; ++a) (*out)[a] = value(tuple, a);
  }

 private:
  std::vector<AttrValue> data_;  ///< [attr][capacity]
  int num_attrs_ = 0;
  int64_t num_tuples_ = 0;
  int64_t capacity_ = 0;
};

/// Columnar labelled tuple set. Its fill operations hide the block's own,
/// so values and labels always grow and shrink together.
class Dataset : public ColumnBlock {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema)
      : ColumnBlock(schema.num_attrs()), schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  int num_classes() const { return schema_.num_classes(); }

  /// The attribute values without the labels, e.g. to score in place.
  const ColumnBlock& block() const { return *this; }

  /// Appends one tuple. `values.size()` must equal num_attrs(); `label` must
  /// be < num_classes(); continuous values must be finite.
  Status Append(const TupleValues& values, ClassLabel label);

  /// In-place fill: Resize sets the tuple count (ColumnBlock::Resize), then
  /// the producer writes each new tuple by row (Set) or by column. Nothing
  /// is checked, unlike Append; Validate checks the result. Clear keeps
  /// the capacity.
  void Resize(int64_t n) {
    ColumnBlock::Resize(n);
    labels_.resize(static_cast<size_t>(n));
  }
  void Clear() { Resize(0); }
  void Set(int64_t tuple, std::span<const AttrValue> values,
           ClassLabel label) {
    SetRow(tuple, values);
    labels_[tuple] = label;
  }
  std::span<ClassLabel> mutable_labels() { return labels_; }

  /// Appends tuples [begin, end) of `src`, another dataset with this
  /// schema: one copy per column.
  void AppendRange(const Dataset& src, int64_t begin, int64_t end) {
    const int64_t at = num_tuples();
    Resize(at + (end - begin));
    for (int a = 0; a < num_attrs(); ++a) {
      std::copy(src.column(a).begin() + begin, src.column(a).begin() + end,
                mutable_column(a).begin() + at);
    }
    std::copy(src.labels_.begin() + begin, src.labels_.begin() + end,
              labels_.begin() + at);
  }

  /// Appends the tuples of `src` that `rows` lists, in that order (an index
  /// may repeat): the row gather behind every split, resample and shuffle.
  void AppendRows(const Dataset& src, std::span<const int64_t> rows) {
    const int64_t at = num_tuples();
    Resize(at + static_cast<int64_t>(rows.size()));
    for (int a = 0; a < num_attrs(); ++a) {
      const std::span<const AttrValue> from = src.column(a);
      AttrValue* to = mutable_column(a).data() + at;
      for (const int64_t row : rows) *to++ = from[row];
    }
    ClassLabel* to = labels_.data() + at;
    for (const int64_t row : rows) *to++ = src.labels_[row];
  }

  std::span<const ClassLabel> labels() const { return labels_; }
  ClassLabel label(int64_t tuple) const { return labels_[tuple]; }

  /// Gathers one tuple's values row-wise.
  TupleValues Tuple(int64_t tuple) const {
    TupleValues out;
    GatherRow(tuple, &out);
    return out;
  }

  /// Class frequency histogram over the whole set.
  std::vector<int64_t> ClassCounts() const;

  /// Approximate in-memory size in bytes (for the Table 1 "DB size" column).
  uint64_t SizeBytes() const;

  /// Fails unless every continuous value is finite (InvalidArgument), and
  /// every categorical code is within its cardinality and every label
  /// within the class alphabet (Corruption). Every trainer calls it on the
  /// data it is handed before it indexes anything by a code or a label.
  Status Validate() const { return Validate(schema_); }
  /// The same checks against `schema` (num_attrs() attributes), the one a
  /// trainer was built with.
  Status Validate(const Schema& schema) const;

 private:
  Schema schema_;
  std::vector<ClassLabel> labels_;
};

/// The InvalidArgument CheckContinuousValue returns for a non-finite value.
Status NonFiniteValueError(const AttrInfo& info, int64_t row, float value);

/// Rejects a continuous value the trainers cannot order: NaN or an
/// infinity, including finite input text that overflows when narrowed to
/// float (1e300). The readers, Dataset::Append and Dataset::Validate call
/// it on every continuous value, so the accepted case is one inline
/// compare. `row` is the row number the error names beside the attribute
/// (the CSV reader passes its line number). The missing-value sentinel is
/// finite and passes.
inline Status CheckContinuousValue(const AttrInfo& info, int64_t row,
                                   float value) {
  if (std::isfinite(value)) return Status::OK();
  return NonFiniteValueError(info, row, value);
}

}  // namespace smptree

#endif  // SMPTREE_DATA_DATASET_H_
