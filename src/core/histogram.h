// Class-distribution histograms used to evaluate split points (paper
// section 2.1): for continuous attributes a pair of histograms C_below /
// C_above is swept along the sorted attribute list; for categorical
// attributes a count matrix (value x class) is tabulated in one scan.

#ifndef SMPTREE_CORE_HISTOGRAM_H_
#define SMPTREE_CORE_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/records.h"

namespace smptree {

/// Label with the highest count in `counts` (lowest label wins ties; 0 when
/// empty). The one majority rule: ClassHistogram::Majority and the
/// streaming builder's per-tuple leaf update both use it.
ClassLabel MajorityLabel(std::span<const int64_t> counts);

/// Per-class tuple counts.
class ClassHistogram {
 public:
  ClassHistogram() = default;
  explicit ClassHistogram(int num_classes) : counts_(num_classes, 0) {}

  void Reset(int num_classes) { counts_.assign(num_classes, 0); }
  void Clear() { counts_.assign(counts_.size(), 0); }

  int num_classes() const { return static_cast<int>(counts_.size()); }
  int64_t count(int cls) const { return counts_[cls]; }
  std::span<const int64_t> counts() const { return counts_; }

  void Add(ClassLabel cls, int64_t n = 1) { counts_[cls] += n; }
  void Remove(ClassLabel cls, int64_t n = 1) { counts_[cls] -= n; }
  void Merge(const ClassHistogram& other);
  /// this -= other (used to derive C_above = total - C_below).
  void Subtract(const ClassHistogram& other);

  int64_t Total() const;

  /// True when all tuples belong to one class (or the histogram is empty).
  bool IsPure() const;

  /// Label with the highest count (lowest label wins ties).
  ClassLabel Majority() const { return MajorityLabel(counts_); }

  /// Tuples not belonging to the majority class.
  int64_t ErrorCount() const;

  std::string ToString() const;

 private:
  std::vector<int64_t> counts_;
};

/// Impurity measure used to score splits. SPRINT (and the paper) use the
/// gini index; entropy (information gain, the C4.5 family's measure) is
/// provided as an extension -- same candidate enumeration, different score.
enum class SplitCriterion : unsigned char {
  kGini,
  kEntropy,
};

/// gini(S) = 1 - sum_j p_j^2 over the class distribution.
double GiniIndex(std::span<const int64_t> counts);
double GiniIndex(const ClassHistogram& hist);

/// GiniIndex with the count total supplied by the caller (hoisted out of
/// sweep loops where the total follows the scan position). `total` must
/// equal sum(counts); the arithmetic is identical to GiniIndex, so results
/// agree bit-for-bit.
double GiniIndexWithTotal(std::span<const int64_t> counts, int64_t total);

/// entropy(S) = -sum_j p_j log2 p_j (0 for empty/pure distributions).
double EntropyIndex(std::span<const int64_t> counts);
double EntropyIndex(const ClassHistogram& hist);

/// EntropyIndex with a caller-supplied total (see GiniIndexWithTotal).
double EntropyIndexWithTotal(std::span<const int64_t> counts, int64_t total);

/// Impurity under the chosen criterion.
double Impurity(const ClassHistogram& hist, SplitCriterion criterion);

/// Weighted gini of a binary partition:
///   (n_l/n) gini(left) + (n_r/n) gini(right).
/// Returns 1.0 (worst) when either side is empty so degenerate candidate
/// splits never win.
double GiniSplit(const ClassHistogram& left, const ClassHistogram& right);

/// Weighted impurity of a binary partition under `criterion`; like
/// GiniSplit, empty sides score worst (gini: 1.0; entropy: log2(classes)).
double SplitImpurity(const ClassHistogram& left, const ClassHistogram& right,
                     SplitCriterion criterion);

/// SplitImpurity with caller-supplied side totals (`nl` = left.Total(),
/// `nr` = right.Total()): skips the four Total() passes per candidate that
/// SplitImpurity pays. Same arithmetic, bit-identical results.
double SplitImpurityWithTotals(const ClassHistogram& left,
                               const ClassHistogram& right, int64_t nl,
                               int64_t nr, SplitCriterion criterion);

/// value-code x class count matrix for a categorical attribute list.
class CountMatrix {
 public:
  CountMatrix() = default;
  CountMatrix(int cardinality, int num_classes);

  void Reset(int cardinality, int num_classes);

  int cardinality() const { return cardinality_; }
  int num_classes() const { return num_classes_; }

  void Add(int32_t value_code, ClassLabel cls) {
    ++cells_[static_cast<size_t>(value_code) * num_classes_ + cls];
  }

  void AddCount(int32_t value_code, int cls, int64_t n) {
    cells_[static_cast<size_t>(value_code) * num_classes_ + cls] += n;
  }

  int64_t count(int32_t value_code, int cls) const {
    return cells_[static_cast<size_t>(value_code) * num_classes_ + cls];
  }

  /// Row sum: tuples with this value code.
  int64_t ValueTotal(int32_t value_code) const;

 private:
  int cardinality_ = 0;
  int num_classes_ = 0;
  std::vector<int64_t> cells_;
};

}  // namespace smptree

#endif  // SMPTREE_CORE_HISTOGRAM_H_
