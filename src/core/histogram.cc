#include "core/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace smptree {

void ClassHistogram::Merge(const ClassHistogram& other) {
  assert(num_classes() == other.num_classes());
  for (int c = 0; c < num_classes(); ++c) counts_[c] += other.counts_[c];
}

void ClassHistogram::Subtract(const ClassHistogram& other) {
  assert(num_classes() == other.num_classes());
  for (int c = 0; c < num_classes(); ++c) counts_[c] -= other.counts_[c];
}

int64_t ClassHistogram::Total() const {
  int64_t total = 0;
  for (int64_t c : counts_) total += c;
  return total;
}

bool ClassHistogram::IsPure() const {
  int nonzero = 0;
  for (int64_t c : counts_) {
    if (c > 0 && ++nonzero > 1) return false;
  }
  return true;
}

ClassLabel MajorityLabel(std::span<const int64_t> counts) {
  size_t best = 0;
  for (size_t c = 1; c < counts.size(); ++c) {
    if (counts[c] > counts[best]) best = c;
  }
  return static_cast<ClassLabel>(best);
}

int64_t ClassHistogram::ErrorCount() const {
  return Total() - counts_[Majority()];
}

std::string ClassHistogram::ToString() const {
  std::ostringstream os;
  os << "[";
  for (int c = 0; c < num_classes(); ++c) {
    if (c) os << ", ";
    os << counts_[c];
  }
  os << "]";
  return os.str();
}

double GiniIndexWithTotal(std::span<const int64_t> counts, int64_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  const double inv = 1.0 / static_cast<double>(total);
  for (int64_t c : counts) {
    const double p = static_cast<double>(c) * inv;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

double GiniIndex(std::span<const int64_t> counts) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return GiniIndexWithTotal(counts, total);
}

double GiniIndex(const ClassHistogram& hist) { return GiniIndex(hist.counts()); }

double EntropyIndexWithTotal(std::span<const int64_t> counts, int64_t total) {
  if (total == 0) return 0.0;
  double entropy = 0.0;
  const double inv = 1.0 / static_cast<double>(total);
  for (int64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) * inv;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double EntropyIndex(std::span<const int64_t> counts) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return EntropyIndexWithTotal(counts, total);
}

double EntropyIndex(const ClassHistogram& hist) {
  return EntropyIndex(hist.counts());
}

double Impurity(const ClassHistogram& hist, SplitCriterion criterion) {
  return criterion == SplitCriterion::kGini ? GiniIndex(hist)
                                            : EntropyIndex(hist);
}

double GiniSplit(const ClassHistogram& left, const ClassHistogram& right) {
  return SplitImpurityWithTotals(left, right, left.Total(), right.Total(),
                                 SplitCriterion::kGini);
}

double SplitImpurity(const ClassHistogram& left, const ClassHistogram& right,
                     SplitCriterion criterion) {
  return SplitImpurityWithTotals(left, right, left.Total(), right.Total(),
                                 criterion);
}

double SplitImpurityWithTotals(const ClassHistogram& left,
                               const ClassHistogram& right, int64_t nl,
                               int64_t nr, SplitCriterion criterion) {
  const int64_t n = nl + nr;
  if (criterion == SplitCriterion::kGini) {
    if (nl == 0 || nr == 0) return 1.0;
    const double wl = static_cast<double>(nl) / static_cast<double>(n);
    const double wr = static_cast<double>(nr) / static_cast<double>(n);
    return wl * GiniIndexWithTotal(left.counts(), nl) +
           wr * GiniIndexWithTotal(right.counts(), nr);
  }
  if (nl == 0 || nr == 0) {
    // Worst possible entropy so degenerate splits never win.
    return std::log2(std::max(2, left.num_classes()));
  }
  const double wl = static_cast<double>(nl) / static_cast<double>(n);
  const double wr = static_cast<double>(nr) / static_cast<double>(n);
  return wl * EntropyIndexWithTotal(left.counts(), nl) +
         wr * EntropyIndexWithTotal(right.counts(), nr);
}

CountMatrix::CountMatrix(int cardinality, int num_classes) {
  Reset(cardinality, num_classes);
}

void CountMatrix::Reset(int cardinality, int num_classes) {
  cardinality_ = cardinality;
  num_classes_ = num_classes;
  cells_.assign(static_cast<size_t>(cardinality) * num_classes, 0);
}

int64_t CountMatrix::ValueTotal(int32_t value_code) const {
  int64_t total = 0;
  for (int c = 0; c < num_classes_; ++c) total += count(value_code, c);
  return total;
}

}  // namespace smptree
