// BatchScorer: scores a ColumnBlock -- a serving Batch or a Dataset's
// block() -- against a FlatTree / FlatForest with an interleaved
// lane-refill walk. Instead of gathering each row into a scratch vector
// and walking the tree tuple-at-a-time (the engine's pointer path before
// the flat models), the scorer advances kLanes independent root-to-leaf
// walks at once:
//
//   - tuples are processed in blocks of kBlockTuples so label/vote scratch
//     and the tree's hot levels stay cache-resident;
//   - a block's tuples are dealt round-robin to kLanes lanes; each lane
//     walks its own stream with its node id in a register, refilling from
//     its next tuple the round after it lands on a leaf. Each chain is
//     serial dependent loads; kLanes independent chains keep that latency
//     overlapped, per-lane refill makes total rounds track the mean tuple
//     depth instead of the max over a lane group, and the round-robin deal
//     keeps all eight cursors within a few cache lines so the batch's
//     columns stay prefetch-friendly forward streams. Large deep trees,
//     where depth skew is proportionally small, switch to a leaner
//     lockstep-group walk (see batch_scorer.cc for the measured cutover);
//   - the per-level step is branch-free: continuous compare and inline
//     subset test are both evaluated and mask-selected by the node's kind
//     flag, child select is a shift off a packed children word, and leaves
//     self-link so a parked lane steps harmlessly in place
//     (infer/flat_tree.h). Only >64-value subsets take a (rare,
//     well-predicted) branch into the big-word pool;
//   - label stores are idempotent (mid-walk stores are overwritten, the
//     leaf store lands last), so lane refill needs no branches and leaf
//     node ids never round-trip through a cursor array;
//   - per-node column pointers are bound once per (tree, batch), so the
//     walk's critical chain is id -> column -> value -> compare -> id, with
//     no per-tuple row copy and no virtual dispatch.
//
// Parity: labels equal DecisionTree::Classify per tuple, and forest labels
// and vote-share probabilities are byte-identical to Forest::Vote /
// Forest::Probabilities (same strictly-greater lowest-label-ties argmax,
// same vote/num_trees division).
//
// Thread model: a BatchScorer owns reusable scratch, so one instance per
// thread (the engine keeps one in each worker arena). The models themselves
// are immutable and freely shared.

#ifndef SMPTREE_INFER_BATCH_SCORER_H_
#define SMPTREE_INFER_BATCH_SCORER_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "infer/flat_tree.h"

namespace smptree {

class BatchScorer {
 public:
  BatchScorer() = default;

  // Scratch-owning, so moves fine but copies are a mistake.
  BatchScorer(const BatchScorer&) = delete;
  BatchScorer& operator=(const BatchScorer&) = delete;
  BatchScorer(BatchScorer&&) = default;
  BatchScorer& operator=(BatchScorer&&) = default;

  /// Scores every tuple of `batch`, writing labels[0..num_tuples). The
  /// batch's columns must match the schema the tree was trained on; `tree`
  /// must be non-empty.
  void ScoreTree(const FlatTree& tree, const ColumnBlock& batch,
                 ClassLabel* labels);

  /// Majority-vote labels into labels[0..num_tuples); when `probs` is
  /// non-null, vote-share probabilities (row-major num_tuples x
  /// num_classes) byte-identical to Forest::Probabilities.
  void ScoreForest(const FlatForest& forest, const ColumnBlock& batch,
                   ClassLabel* labels, double* probs);

  /// Independent root-to-leaf chains walked in lockstep. Eight ~15-cycle
  /// dependent-load chains in flight covers the step latency; ids and meta
  /// words per lane still fit the register file.
  static constexpr size_t kLanes = 8;

 private:
  /// Tuples per block: large enough to amortize per-block setup, small
  /// enough that vote scratch stays in L1/L2 next to the tree's top levels.
  static constexpr int64_t kBlockTuples = 512;

  /// Fills node_col_[slot .. slot + num_nodes) with each node's split
  /// column pointer in `batch`, returning the span's base. One pointer per
  /// node per batch lets the walk load its value straight off the node id
  /// -- the meta -> attr -> column indirection would otherwise sit on the
  /// critical dependency chain of every step.
  const AttrValue* const* BindTree(const FlatTree& tree,
                                   const ColumnBlock& batch, size_t slot);

  std::vector<const AttrValue*> node_col_;  ///< per-node column, per batch
  std::vector<size_t> member_slot_;  ///< forest: node_col_ offset per member
  std::vector<ClassLabel> member_labels_;  ///< forest: one member's labels
  std::vector<int32_t> votes_;  ///< forest: kBlockTuples x num_classes
};

}  // namespace smptree

#endif  // SMPTREE_INFER_BATCH_SCORER_H_
