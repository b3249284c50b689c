// The binned training engine: breadth-first tree growth over quantized
// attributes (binned/quantizer.h). Instead of SPRINT's sorted attribute
// lists, each level runs
//
//   H  build per-leaf (bin x class) histograms -- record-range parallel with
//      per-thread locals reduced at a barrier; each split's larger child is
//      derived by parent-minus-sibling subtraction instead of scanning;
//   E  evaluate splits by sweeping histogram rows, O(bins) per (leaf,attr)
//      -- (leaf,attr) tasks through the dynamic scheduler, reusing the
//      core gini arithmetic over bin counts;
//   W  pick winners and create children (master, as in BASIC);
//   S  reassign each record's leaf index by one bin comparison -- no
//      attribute-list partitioning, no probe, no scratch files.
//
// The engine is exact for categorical attributes (bin == value code) and
// approximate for continuous ones: candidate thresholds come from the
// quantizer's cuts. Where an attribute has at most max_bins distinct values
// the cuts are every adjacent-distinct midpoint, and the winner (attribute,
// impurity, child counts) matches the exact engine bit-for-bit. Accuracy
// deltas in the general case are measured by bench/binned_vs_sorted and
// bounded in binned_builder_test -- reported, never hidden.
//
// Trees are byte-identical across thread counts: candidate evaluation is
// integer-exact per (leaf, attr), and the master reduces winners and numbers
// children in frontier order.

#ifndef SMPTREE_BINNED_BINNED_BUILDER_H_
#define SMPTREE_BINNED_BINNED_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "binned/quantizer.h"
#include "core/builder_context.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "util/stats.h"
#include "util/status.h"

namespace smptree {

/// Grows `tree` (which must be empty) from `data` using the binned engine.
/// `bin_matrix` must hold `data` mapped through `quantizer`; the cuts may
/// come from `data` itself (a single tree) or from a larger set the rows
/// were drawn from (a forest member over the forest's shared bins).
/// `weights` is empty (every row counts once) or holds one multiplicity per
/// row: a row of weight w counts as w copies in every histogram and class
/// count, and a row of weight 0 never enters the tree -- so a bootstrap
/// bag's draw counts grow exactly the tree the materialized bag would.
/// Honors options.num_threads / min_split / max_levels / feature_sampling /
/// gini / trace; ignores the sorted engine's algorithm, window, and storage
/// options. H-phase compute lands in counters->h_nanos and bins_scanned
/// counts the boundaries examined by E (the O(bins) work unit). Appends one
/// LevelTraceEntry per processed level to `level_trace`.
Status BuildTreeBinned(const Dataset& data, const Quantizer& quantizer,
                       const BinMatrix& bin_matrix,
                       std::span<const int32_t> weights,
                       const BuildOptions& options, DecisionTree* tree,
                       BuildCounters* counters,
                       std::vector<LevelTraceEntry>* level_trace);

}  // namespace smptree

#endif  // SMPTREE_BINNED_BINNED_BUILDER_H_
