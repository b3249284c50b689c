// Per-leaf (bin x class) count histogram -- the flat concatenation of every
// attribute's bin rows (layout per Quantizer::offset), each row holding
// num_classes int64 counts -- and the two steps of split finding that read
// it: the E-phase sweep over one attribute's rows, and the W-phase partition
// of a winner's rows into the children's class counts. The batch binned
// builder and the streaming Hoeffding builder both split through these two
// functions; only how the histograms are fed differs (a level scan of the
// bin matrix vs. one tuple at a time). A leaf's histogram can also be
// derived from its parent's by subtracting the sibling's -- the "histogram
// subtraction" trick that halves H-phase scan work per level: only the
// smaller child of each split is built by scanning.

#ifndef SMPTREE_BINNED_LEAF_HISTOGRAM_H_
#define SMPTREE_BINNED_LEAF_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "binned/quantizer.h"
#include "core/gini.h"
#include "core/histogram.h"
#include "core/records.h"
#include "core/split.h"
#include "util/status.h"

namespace smptree {

/// Flat (total_bins x num_classes) counts. Not thread-safe: the builder
/// gives each instance a single writer per phase (per-thread locals during
/// the scan, one reducer per leaf at the merge).
class LeafHistogram {
 public:
  /// Sizes to `total_bins` rows of `num_classes` counts, all zero. Reuses
  /// capacity, so pooled instances re-zero without reallocating.
  void Reset(int total_bins, int num_classes);

  /// Zeroes every count, keeping the shape.
  void Clear();

  bool empty() const { return counts_.empty(); }
  int total_bins() const { return total_bins_; }
  int num_classes() const { return num_classes_; }

  /// Counts `count` tuples of class `cls` into bin `flat_bin`.
  void Add(int flat_bin, ClassLabel cls, int64_t count = 1) {
    counts_[static_cast<size_t>(flat_bin) * num_classes_ + cls] += count;
  }

  int64_t count(int flat_bin, int cls) const {
    return counts_[static_cast<size_t>(flat_bin) * num_classes_ + cls];
  }

  /// One bin's class counts.
  std::span<const int64_t> row(int flat_bin) const {
    return {counts_.data() + static_cast<size_t>(flat_bin) * num_classes_,
            static_cast<size_t>(num_classes_)};
  }

  /// Tuples in one bin.
  int64_t RowTotal(int flat_bin) const;

  /// this += other. Returns InvalidArgument without touching any count if
  /// the shapes differ (checked in every build type, not just debug).
  Status Merge(const LeafHistogram& other);

  /// this -= other (derive a child: parent - sibling). Same shape contract
  /// as Merge.
  Status Subtract(const LeafHistogram& other);

 private:
  int total_bins_ = 0;
  int num_classes_ = 0;
  std::vector<int64_t> counts_;
};

/// E for one (leaf, attr): sweeps the attribute's bin rows in `bins`
/// exactly like ReferenceEvaluateContinuousAttr sweeps records -- same
/// Add/Remove accumulation, same SplitImpurityWithTotals call, same
/// BetterThan tie rule -- so where cuts coincide with exact candidate
/// points the impurities agree bit-for-bit. Categorical attributes go
/// through EvaluateCategoricalFromMatrix on their (code x class) rows.
/// `hist` is the leaf's class distribution and `n_total` its total. Writes
/// the best candidate to `out` (invalid if none) and, for a continuous
/// winner, its boundary index to `out_bin` (left iff bin <= *out_bin; -1
/// otherwise). Returns the bins examined (the bins_scanned unit).
uint64_t EvaluateBinnedAttr(const Quantizer& quantizer,
                            const LeafHistogram& bins,
                            const ClassHistogram& hist, int64_t n_total,
                            int attr, const GiniOptions& gini,
                            GiniScratch* scratch, SplitCandidate* out,
                            int* out_bin);

/// W for a leaf whose winner is `best` (with `best_bin` as returned by
/// EvaluateBinnedAttr): fills `left` with the class counts of the winner
/// attribute's bins the test sends left and `right` with the rest of
/// `hist`. Corruption when their totals differ from best.left_count /
/// best.right_count -- the histogram counterpart of the sorted engine's
/// routed-count check.
Status PartitionBinnedSplit(const Quantizer& quantizer,
                            const LeafHistogram& bins,
                            const ClassHistogram& hist,
                            const SplitCandidate& best, int best_bin,
                            ClassHistogram* left, ClassHistogram* right);

}  // namespace smptree

#endif  // SMPTREE_BINNED_LEAF_HISTOGRAM_H_
