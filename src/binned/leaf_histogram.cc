#include "binned/leaf_histogram.h"

#include "util/string_util.h"

namespace smptree {
namespace {

/// Shape-mismatch diagnostic shared by Merge and Subtract.
Status ShapeMismatch(const char* op, const LeafHistogram& a,
                     const LeafHistogram& b) {
  return Status::InvalidArgument(StringPrintf(
      "LeafHistogram::%s shape mismatch: %d bins x %d classes vs %d bins x "
      "%d classes",
      op, a.total_bins(), a.num_classes(), b.total_bins(), b.num_classes()));
}

}  // namespace

void LeafHistogram::Reset(int total_bins, int num_classes) {
  total_bins_ = total_bins;
  num_classes_ = num_classes;
  counts_.assign(
      static_cast<size_t>(total_bins) * static_cast<size_t>(num_classes), 0);
}

void LeafHistogram::Clear() { counts_.assign(counts_.size(), 0); }

int64_t LeafHistogram::RowTotal(int flat_bin) const {
  int64_t total = 0;
  for (int64_t c : row(flat_bin)) total += c;
  return total;
}

Status LeafHistogram::Merge(const LeafHistogram& other) {
  if (total_bins_ != other.total_bins_ ||
      num_classes_ != other.num_classes_) {
    return ShapeMismatch("Merge", *this, other);
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  return Status::OK();
}

Status LeafHistogram::Subtract(const LeafHistogram& other) {
  if (total_bins_ != other.total_bins_ ||
      num_classes_ != other.num_classes_) {
    return ShapeMismatch("Subtract", *this, other);
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] -= other.counts_[i];
  return Status::OK();
}

uint64_t EvaluateBinnedAttr(const Quantizer& quantizer,
                            const LeafHistogram& bins,
                            const ClassHistogram& hist, int64_t n_total,
                            int attr, const GiniOptions& gini,
                            GiniScratch* scratch, SplitCandidate* out,
                            int* out_bin) {
  const int off = quantizer.offset(attr);
  const int nbins = quantizer.num_bins(attr);
  const int num_classes = hist.num_classes();
  *out = SplitCandidate();
  *out_bin = -1;

  if (quantizer.categorical(attr)) {
    CountMatrix& matrix = scratch->matrix;
    matrix.Reset(nbins, num_classes);
    for (int b = 0; b < nbins; ++b) {
      const std::span<const int64_t> row = bins.row(off + b);
      for (int c = 0; c < num_classes; ++c) {
        if (row[c] != 0) matrix.AddCount(b, c, row[c]);
      }
    }
    *out = EvaluateCategoricalFromMatrix(attr, matrix, hist, gini, scratch);
    return static_cast<uint64_t>(nbins);
  }

  ClassHistogram& below = scratch->below;
  ClassHistogram& above = scratch->above;
  below.Reset(num_classes);
  above = hist;
  int64_t nl = 0;
  SplitCandidate best;
  int best_bin = -1;
  for (int b = 0; b + 1 < nbins; ++b) {
    const std::span<const int64_t> row = bins.row(off + b);
    bool moved = false;
    for (int c = 0; c < num_classes; ++c) {
      if (row[c] == 0) continue;
      below.Add(static_cast<ClassLabel>(c), row[c]);
      above.Remove(static_cast<ClassLabel>(c), row[c]);
      nl += row[c];
      moved = true;
    }
    // An empty row leaves the partition of boundary b-1, already offered
    // (or skipped while nl == 0): same counts, same impurity bits, higher
    // threshold, so BetterThan's lower-threshold tie rule never lets it win.
    if (!moved) continue;
    if (nl == 0) continue;      // no records left of this cut yet
    if (nl == n_total) break;   // all records left: no proper split remains
    SplitCandidate candidate;
    candidate.test.attr = attr;
    candidate.test.threshold = quantizer.cut(attr, b);
    candidate.gini =
        SplitImpurityWithTotals(below, above, nl, n_total - nl, gini.criterion);
    candidate.left_count = nl;
    candidate.right_count = n_total - nl;
    if (candidate.BetterThan(best)) {
      best = candidate;
      best_bin = b;
    }
  }
  *out = best;
  *out_bin = best_bin;
  return nbins > 0 ? static_cast<uint64_t>(nbins - 1) : 0;
}

Status PartitionBinnedSplit(const Quantizer& quantizer,
                            const LeafHistogram& bins,
                            const ClassHistogram& hist,
                            const SplitCandidate& best, int best_bin,
                            ClassHistogram* left, ClassHistogram* right) {
  const int num_classes = hist.num_classes();
  const int off = quantizer.offset(best.test.attr);
  const int nbins = quantizer.num_bins(best.test.attr);
  left->Reset(num_classes);
  for (int b = 0; b < nbins; ++b) {
    const bool goes_left = best.test.categorical
                               ? best.test.SubsetContains(b)
                               : b <= best_bin;
    if (!goes_left) continue;
    const std::span<const int64_t> row = bins.row(off + b);
    for (int c = 0; c < num_classes; ++c) {
      left->Add(static_cast<ClassLabel>(c), row[c]);
    }
  }
  *right = hist;
  right->Subtract(*left);
  if (left->Total() != best.left_count || right->Total() != best.right_count) {
    return Status::Corruption(StringPrintf(
        "split on attribute %d covers %lld/%lld tuples, expected %lld/%lld",
        best.test.attr, static_cast<long long>(left->Total()),
        static_cast<long long>(right->Total()),
        static_cast<long long>(best.left_count),
        static_cast<long long>(best.right_count)));
  }
  return Status::OK();
}

}  // namespace smptree
