// Attribute quantization for the binned training engine (the histogram
// scheme of LightGBM-style learners): each continuous attribute is reduced
// to at most BuildOptions::max_bins ordered bins by cut points computed once
// at load, and every training tuple's attribute values are materialized as a
// column-major uint8_t bin matrix the builder then scans instead of the
// sorted attribute lists.
//
// Bin mapping invariant (everything downstream leans on it):
//
//   bin(v) = #{ cuts c : c <= v }    so    bin(v) <= i  <=>  v < cuts[i]
//
// i.e. "bins 0..i go left" is exactly the SplitTest `value < cuts[i]`. Cut
// points are therefore real float thresholds from day one -- the finished
// tree carries ordinary SplitTests and Classify never sees a bin. The
// canonical missing value (kMissingValue, the lowest float) lands in bin 0
// and keeps its "missing goes left" behavior under every cut.
//
// Categorical attributes map value codes to their own bins (bin == code), so
// the binned engine is exact for them; only continuous attributes are
// approximated, and only when an attribute has more than max_bins distinct
// values (otherwise cuts sit at every adjacent-distinct midpoint and the
// candidate set equals the exact engine's).

#ifndef SMPTREE_BINNED_QUANTIZER_H_
#define SMPTREE_BINNED_QUANTIZER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/records.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "util/status.h"

namespace smptree {

/// Per-attribute bin boundaries and the flat histogram layout they imply.
/// The batch engine computes its cuts from the training set (Build); the
/// streaming builder computes them from a reservoir sample and hands them
/// to FromCuts, so both trainers share one layout and one bin mapping.
class Quantizer {
 public:
  /// Lays out bins for `schema` from per-attribute cut points: continuous
  /// attribute a gets `cuts[a]` and cuts[a].size()+1 bins; a categorical
  /// attribute gets one bin per value code. Offsets tile the flat histogram
  /// in attribute order. The caller guarantees one cut list per attribute,
  /// each strictly ascending with at most 255 cuts (empty for categorical),
  /// and categorical cardinalities of at most 256.
  static Quantizer FromCuts(const Schema& schema,
                            std::vector<std::vector<float>> cuts);

  /// Computes boundaries from `data`. `max_bins` must be in [2, 256] (bins
  /// are uint8_t codes); categorical cardinalities must fit the budget.
  /// Continuous attributes get quantile-spaced cuts advanced to real value
  /// boundaries, or exact adjacent-distinct midpoints when the attribute has
  /// at most max_bins distinct values. Deterministic given the data: cut
  /// placement uses only sorted value order, never hashing or sampling.
  /// Up to `num_threads` threads each take whole attributes; the cuts do
  /// not depend on the thread count.
  Status Build(const Dataset& data, int max_bins, int num_threads = 1);

  int num_attrs() const { return static_cast<int>(attrs_.size()); }
  bool categorical(int attr) const { return attrs_[attr].categorical; }

  /// Bins of `attr`: cuts+1 for continuous, the cardinality for categorical.
  int num_bins(int attr) const { return attrs_[attr].num_bins; }
  /// Split boundaries of a continuous attribute (0 for categorical, which
  /// splits by subset, not by boundary).
  int num_cuts(int attr) const {
    return static_cast<int>(attrs_[attr].cuts.size());
  }
  /// The real threshold of boundary `i`: bins 0..i hold exactly the values
  /// with `value < cut(attr, i)`.
  float cut(int attr, int i) const { return attrs_[attr].cuts[i]; }

  /// Offset of `attr`'s bin rows in a flat per-leaf histogram.
  int offset(int attr) const { return attrs_[attr].offset; }
  /// Sum of num_bins over all attributes (the flat histogram length).
  int total_bins() const { return total_bins_; }

  /// Maps one value into its bin under the invariant above: the index
  /// std::upper_bound returns over the cuts, for every float (a NaN
  /// compares below no cut and lands past the last one). A categorical
  /// code is its bin, unchecked: callers pass validated data.
  ///
  /// The search halves a fixed window per step and picks the next base
  /// with a select rather than a branch, so the steps depend only on the
  /// cut count and every lookup costs the same whatever the value.
  uint8_t BinOf(int attr, AttrValue v) const {
    const AttrBins& a = attrs_[attr];
    if (a.categorical) return static_cast<uint8_t>(v.cat);
    size_t n = a.cuts.size();
    if (n == 0) return 0;
    const float* const cuts = a.cuts.data();
    const float* base = cuts;
    while (n > 1) {
      const size_t half = n / 2;
      base = !(v.f < base[half]) ? base + half : base;
      n -= half;
    }
    return static_cast<uint8_t>((base - cuts) + !(v.f < *base));
  }

 private:
  struct AttrBins {
    bool categorical = false;
    int num_bins = 0;
    int offset = 0;
    std::vector<float> cuts;  ///< ascending; empty for categorical
  };

  std::vector<AttrBins> attrs_;
  int total_bins_ = 0;
};

/// Column-major bin codes of the whole training set: column(attr)[tuple] is
/// the tuple's bin for that attribute. One byte per value, so the matrix is
/// a third the size of one attribute-list file set and scans sequentially
/// per attribute (the builder's H-phase access pattern).
class BinMatrix {
 public:
  /// Maps every value of `data` through `quantizer`, one whole column per
  /// task on up to `num_threads` threads. `data` has passed
  /// Dataset::Validate (a categorical code is copied as its bin). Once
  /// built the matrix is read-only, so any number of trees may scan it
  /// concurrently.
  Status Materialize(const Dataset& data, const Quantizer& quantizer,
                     int num_threads = 1);

  int64_t num_tuples() const { return num_tuples_; }
  int num_attrs() const { return num_attrs_; }

  const uint8_t* column(int attr) const {
    return codes_.data() + static_cast<size_t>(attr) * num_tuples_;
  }

 private:
  int64_t num_tuples_ = 0;
  int num_attrs_ = 0;
  std::vector<uint8_t> codes_;
};

}  // namespace smptree

#endif  // SMPTREE_BINNED_QUANTIZER_H_
