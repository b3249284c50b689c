// Test oracle helper: a categorical subset's class histogram rebuilt from
// the count-matrix rows. The library's subset search updates its
// histograms one row at a time; tests rebuild them from scratch with this
// to check that search against a brute-force enumeration.

#ifndef SMPTREE_TESTS_SUBSET_HISTOGRAM_H_
#define SMPTREE_TESTS_SUBSET_HISTOGRAM_H_

#include <cassert>
#include <cstdint>

#include "core/histogram.h"

namespace smptree {

/// Fills `hist` with the per-class totals of all codes in `subset_mask`
/// (bit v set => code v included). Cardinality must be <= 64.
inline void SubsetHistogram(const CountMatrix& matrix, uint64_t subset_mask,
                            ClassHistogram* hist) {
  assert(matrix.cardinality() <= 64);
  hist->Reset(matrix.num_classes());
  for (int v = 0; v < matrix.cardinality(); ++v) {
    if (((subset_mask >> v) & 1) == 0) continue;
    for (int c = 0; c < matrix.num_classes(); ++c) {
      hist->Add(static_cast<ClassLabel>(c), matrix.count(v, c));
    }
  }
}

}  // namespace smptree

#endif  // SMPTREE_TESTS_SUBSET_HISTOGRAM_H_
