// Flattened inference models: a DecisionTree (core/tree.h) compiled into a
// contiguous struct-of-arrays node layout for serving-side scoring, and the
// forest aggregate of the same.
//
// Why a second representation: the builders' TreeNode is optimized for
// concurrent growth -- ~100-byte nodes in chunked arenas, a shared_ptr per
// categorical big-subset, a class-count vector per node. Scoring never
// touches most of that, but pays for all of it in cache misses and pointer
// chases. FlatTree keeps only what Classify reads, one small array per
// field, in breadth-first order so the hot top levels of the tree share
// cache lines across tuples. Child links are array indices, not pointers;
// leaves link to themselves so a level-synchronous scorer can advance every
// cursor unconditionally (infer/batch_scorer.h).
//
// Parity contract: FlatTree::Classify and BatchScorer produce labels (and
// forest vote-share probabilities) BYTE-IDENTICAL to DecisionTree::Classify
// / Forest::Probabilities on every input, including missing values,
// out-of-range categorical codes and >64-value subset tests. The
// flat_infer_test parity suite enforces this across all builders, both
// training engines, pruned trees and forests.
//
// Concurrency: a FlatTree/FlatForest is immutable after Compile, so any
// number of threads may score against it with no synchronization -- the
// same published-then-read contract as core/tree.h, and what lets
// serve/model_store.h hand one compiled copy to every scoring thread.

#ifndef SMPTREE_INFER_FLAT_TREE_H_
#define SMPTREE_INFER_FLAT_TREE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/tree.h"
#include "data/dataset.h"
#include "ensemble/forest.h"

namespace smptree {

class FlatTree {
 public:
  /// Per-node flag bits (flags()[id]).
  static constexpr uint8_t kLeaf = 1;         ///< node is a leaf (self-link)
  static constexpr uint8_t kCategorical = 2;  ///< split is a subset test
  static constexpr uint8_t kBigSubset = 4;    ///< subset lives in big_words()

  FlatTree() = default;

  /// Compiles `tree` (fully built, published -- see core/tree.h) into the
  /// flat form. Nodes are laid out breadth-first with the two children of
  /// every internal node adjacent; unreachable arena nodes (possible only
  /// before CompactAfterPrune) are dropped. An empty tree compiles to an
  /// empty FlatTree (the forest-kind ServingModel's schema carrier).
  static FlatTree Compile(const DecisionTree& tree);

  int32_t num_nodes() const { return static_cast<int32_t>(left_.size()); }
  bool empty() const { return left_.empty(); }
  /// Tree levels (max depth + 1): the maximum number of level-synchronous
  /// passes a scorer needs.
  int levels() const { return levels_; }

  /// Heap bytes of the flat arrays (the /statz "model_bytes.flat" number).
  size_t bytes() const;

  /// Scores one tuple; identical to DecisionTree::Classify on the source
  /// tree. The batch path (infer/batch_scorer.h) is the fast one -- this is
  /// the spot-check / single-row entry point.
  ClassLabel Classify(const TupleValues& values) const {
    assert(!empty());
    int32_t id = 0;
    while ((flags_[id] & kLeaf) == 0) {
      id = SendsLeft(id, values[static_cast<size_t>(attr_[id])]) ? left_[id]
                                                                 : right_[id];
    }
    return label_[id];
  }

  /// True when `v` goes to node `id`'s left child, replicating
  /// SplitTest::GoesLeft exactly (continuous: value < threshold; missing is
  /// the lowest float so it always goes left; categorical: subset membership
  /// with out-of-range codes going right). Only meaningful for internal
  /// nodes.
  bool SendsLeft(int32_t id, AttrValue v) const {
    const uint8_t f = flags_[id];
    if ((f & kCategorical) == 0) return v.f < threshold_[id];
    if ((f & kBigSubset) == 0) {
      return v.cat >= 0 && v.cat < 64 &&
             ((subset_[id] >> v.cat) & 1) != 0;
    }
    const uint64_t packed = subset_[id];
    const uint32_t len = static_cast<uint32_t>(packed);
    const size_t word = static_cast<size_t>(static_cast<uint32_t>(v.cat)) >> 6;
    if (v.cat < 0 || word >= len) return false;
    const size_t offset = static_cast<size_t>(packed >> 32);
    return ((big_words_[offset + word] >> (v.cat & 63)) & 1) != 0;
  }

  // Raw array views -- the BatchScorer hot-loop contract. All are dense,
  // size num_nodes(), breadth-first, root at index 0. For leaves attr is 0
  // and left/right are the node's own index, so an unconditional
  // "select child" step parks finished cursors in place.
  const uint8_t* flags() const { return flags_.data(); }
  const int32_t* attr() const { return attr_.data(); }
  const float* threshold() const { return threshold_.data(); }
  const uint64_t* subset() const { return subset_.data(); }
  const int32_t* left() const { return left_.data(); }
  const int32_t* right() const { return right_.data(); }
  const ClassLabel* label() const { return label_.data(); }

  // Packed mirrors of the same node data, 16 bytes per node across three
  // arrays, built once in Compile for the scorer's inner loop: one step
  // needs one meta load (attr + flags), one test load (threshold bits or
  // inline subset mask -- the node kind decides which interpretation is
  // live), and one children load (right | left << 32, so `word >>
  // (goes_left * 32)` selects the child with no flip), instead of six
  // scattered array reads. Inline masks never have bit 63 set (Compile
  // moves those to the big pool), so a clamped min(code, 63) bit test is
  // exact for out-of-range codes. Big-subset nodes keep their locator in
  // subset_ and take the canonical SendsLeft path.
  const uint32_t* meta() const { return meta_.data(); }
  const uint64_t* test() const { return test_.data(); }
  const uint64_t* children() const { return children_.data(); }

  /// meta()[id] layout: low 8 bits are the flags byte (kLeaf etc., so a
  /// uint32 AND still isolates kLeaf), the rest is the split attribute.
  static constexpr int kMetaAttrShift = 8;

 private:
  // One array per field Classify reads (SoA). subset_ holds the inline
  // <=64-value mask, or -- when kBigSubset is set -- the (offset << 32 | len)
  // locator of the subset's words inside big_words_.
  std::vector<uint8_t> flags_;
  std::vector<int32_t> attr_;
  std::vector<float> threshold_;
  std::vector<uint64_t> subset_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<ClassLabel> label_;
  std::vector<uint64_t> big_words_;  ///< concatenated >64-value subsets
  std::vector<uint32_t> meta_;       ///< packed attr << 8 | flags
  std::vector<uint64_t> test_;       ///< threshold bits / inline mask
  std::vector<uint64_t> children_;   ///< right | left << 32
  int levels_ = 0;
};

/// A forest compiled member-by-member, plus the precomputed vote
/// denominator so Probabilities needs no per-call size lookups. Immutable
/// after Compile; concurrent-reader safe.
class FlatForest {
 public:
  FlatForest() = default;

  static FlatForest Compile(const Forest& forest);

  int num_trees() const { return static_cast<int>(trees_.size()); }
  int num_classes() const { return num_classes_; }
  const FlatTree& tree(int i) const { return trees_[static_cast<size_t>(i)]; }

  /// The divisor turning per-class vote counts into vote shares; matches
  /// Forest::Probabilities (num_trees, or 1.0 for an empty forest) so the
  /// resulting doubles are bit-identical.
  double vote_denominator() const { return vote_denominator_; }

  /// Deepest member's levels(): the scorer's worst-case pass count.
  int max_levels() const { return max_levels_; }

  size_t bytes() const;

 private:
  std::vector<FlatTree> trees_;
  int num_classes_ = 0;
  int max_levels_ = 0;
  double vote_denominator_ = 1.0;
};

}  // namespace smptree

#endif  // SMPTREE_INFER_FLAT_TREE_H_
