// Attribute-list creation and one-time pre-sort (paper section 2.1, and the
// setup/sort columns of Table 1). From a columnar Dataset this produces one
// AttrRecord array per attribute; continuous lists are then sorted by value.
// Sorting happens once -- split preserves order, so no re-sorting is ever
// needed during tree growth.
//
// The sort is a stable LSD radix sort on a 32-bit key made from the float
// (three 11/11/10-bit passes, a pass skipped when its digit is constant).
// Every list starts in tid order, so stability alone yields the
// ContinuousRecordLess order, (value, tid) with -0.0f equal to +0.0f, and
// the lists are byte-identical for any thread count.
//
// The paper measures setup and sort as separate sequential phases and notes
// "speedups can be improved by parallelizing the setup phase more
// aggressively"; `sort_threads > 1` parallelizes BOTH phases (one attribute
// per thread, dynamic scheduling). BuildOptions::sort_threads defaults to
// the build's num_threads; 1 is the paper's sequential setup, which the
// figure benchmarks and bench/ablation_setup_parallel's baseline use.

#ifndef SMPTREE_CORE_PRESORT_H_
#define SMPTREE_CORE_PRESORT_H_

#include <vector>

#include "core/records.h"
#include "data/dataset.h"
#include "util/status.h"

namespace smptree {

/// One attribute list per attribute, root-level order.
struct AttributeLists {
  std::vector<std::vector<AttrRecord>> lists;
  double setup_seconds = 0.0;  ///< time to create the lists
  double sort_seconds = 0.0;   ///< time to sort the continuous lists
};

/// Builds (setup) and pre-sorts (sort) the attribute lists of `data`.
/// `sort_threads` <= 1 runs both phases on the calling thread.
Result<AttributeLists> BuildAttributeLists(const Dataset& data,
                                           int sort_threads = 1);

}  // namespace smptree

#endif  // SMPTREE_CORE_PRESORT_H_
