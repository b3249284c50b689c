#include "infer/batch_scorer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace smptree {
namespace {

constexpr size_t kLanes = BatchScorer::kLanes;

/// Below this many tuples the lane-refill walk degenerates (sub-ranges of a
/// couple of tuples each); a plain scalar walk wins.
constexpr size_t kMinRefillTuples = 64;

/// Above this many nodes the walk switches from lane-refill to lane-
/// lockstep groups. Measured crossover on Agrawal trees: refill's per-round
/// bookkeeping (clamp, idempotent store, refill selects) buys back the
/// depth-skew waste of a lockstep group -- a big win for shallow skewed
/// trees, where the max-of-kLanes depth runs far past the mean -- but on
/// large deep trees the skew is proportionally small and the leaner
/// lockstep round wins.
constexpr int32_t kLockstepNodeCutoff = 512;

/// Walks `tree` over tuples [begin, begin + count), writing each tuple's
/// leaf label to out[0..count). `node_col` is the per-(tree, batch)
/// column-pointer scratch (node_col[id] = column of node id's split
/// attribute): resolving the column per node rather than per step drops the
/// meta -> attr -> column hops from the walk's critical dependency chain,
/// leaving id -> column -> value -> compare -> id.
///
/// Traversal (refill mode, trees up to kLockstepNodeCutoff nodes): the
/// block's tuples are dealt to kLanes lanes round-robin (lane i owns tuples
/// i, i + kLanes, ...) and each lane walks its own stream with an
/// independent cursor, refilling from its next tuple the round after it
/// lands on a leaf. Root-to-leaf chains are serial dependent loads; kLanes
/// independent chains keep that latency overlapped, and per-lane refill
/// means a lane never idles behind the deepest tuple of a lane group --
/// total rounds track the MEAN tuple depth, not the expected max over
/// kLanes tuples, which for skewed trees is nearly half the work. The
/// label store is idempotent: every round each lane stores label[id] for
/// its current tuple (an internal node's majority label mid-walk), so the
/// last store before the cursor advances is the true leaf label and no "is
/// this lane done" branch exists anywhere -- refill is a pair of
/// flag-driven conditional moves off the critical path.
///
/// Bigger trees take the lockstep-group mode instead (see
/// kLockstepNodeCutoff): same lanes and branch-free step, but adjacent
/// tuples advance together and the group exits on the AND of the meta
/// words.
void WalkLabels(const FlatTree& tree, const AttrValue* const* node_col,
                int64_t begin, int64_t count, ClassLabel* out) {
  const size_t n = static_cast<size_t>(count);
  const uint32_t* meta = tree.meta();
  const uint64_t* test = tree.test();
  const uint64_t* children = tree.children();
  const ClassLabel* label = tree.label();
  const size_t base = static_cast<size_t>(begin);
  if ((tree.flags()[0] & FlatTree::kLeaf) != 0) {
    for (size_t t = 0; t < n; ++t) out[t] = label[0];
    return;
  }

  // One level of descent for tuple `t`, branch-free, off the packed node
  // words (flat_tree.h): `m` is the node's preloaded meta word. Both the
  // continuous compare and the inline subset test are computed from the
  // same `test` word and the node's kind bit selects between them with
  // mask arithmetic -- a ternary here tempts the compiler into a
  // data-dependent branch on the node kind, which mispredicts whenever a
  // lane crosses between continuous and categorical levels. The clamped
  // min(code, 63) index folds SendsLeft's `cat >= 0 && cat < 64` into the
  // bit test itself: Compile guarantees inline masks keep bit 63 clear, so
  // every out-of-range code reads a zero bit and goes right. Leaves read
  // column 0 and self-link, so stepping a parked lane is harmless. Only
  // >64-value subsets branch -- absent from typical trees, so the
  // predictor retires the test for free.
  static_assert(FlatTree::kCategorical == 2,
                "the cat-bit extraction below hardcodes the flag position");
  const auto step = [&](int32_t id, uint32_t m, size_t t) -> int32_t {
    const AttrValue v = node_col[id][base + t];
    const uint64_t w = test[id];
    const uint64_t ch = children[id];
    uint32_t goes_left;
    if (__builtin_expect((m & FlatTree::kBigSubset) != 0, 0)) {
      goes_left = tree.SendsLeft(id, v) ? 1u : 0u;
    } else {
      float thr;
      const uint32_t thr_bits = static_cast<uint32_t>(w);
      std::memcpy(&thr, &thr_bits, sizeof(thr));
      const uint32_t continuous_left = v.f < thr ? 1u : 0u;
      const uint32_t idx = std::min(static_cast<uint32_t>(v.cat), 63u);
      const uint32_t bit = static_cast<uint32_t>(w >> idx) & 1u;
      const uint32_t cat_mask = 0u - ((m >> 1) & 1u);  // kCategorical bit
      goes_left = ((bit ^ continuous_left) & cat_mask) ^ continuous_left;
    }
    // Child select by shift: the children word is right | left << 32, so
    // goes_left picks the half directly -- no conditional at all.
    return static_cast<int32_t>(
        static_cast<uint32_t>(ch >> (goes_left << 5)));
  };

  const uint32_t root_meta = meta[0];
  if (n >= kMinRefillTuples && tree.num_nodes() <= kLockstepNodeCutoff) {
    // Lane i owns tuples i, i + kLanes, i + 2*kLanes, ... -- STRIDED, not
    // contiguous ranges, so the eight cursors stay within a few cache
    // lines of each other and the columns look like a handful of forward
    // streams to the hardware prefetcher instead of 8 x attrs scattered
    // ones. Lane state: raw cursor r (advances by kLanes the round after
    // the lane lands on a leaf), node id, preloaded meta word. The clamped
    // cursor min(r, last) is what the step reads and the store writes;
    // once a lane passes its last tuple the refill is suppressed, so it
    // parks on that tuple's leaf and re-stores the same (correct) label
    // until the other lanes drain.
    size_t r0 = 0, r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5, r6 = 6, r7 = 7;
    const size_t l0 = 0 + kLanes * ((n - 1 - 0) / kLanes);
    const size_t l1 = 1 + kLanes * ((n - 1 - 1) / kLanes);
    const size_t l2 = 2 + kLanes * ((n - 1 - 2) / kLanes);
    const size_t l3 = 3 + kLanes * ((n - 1 - 3) / kLanes);
    const size_t l4 = 4 + kLanes * ((n - 1 - 4) / kLanes);
    const size_t l5 = 5 + kLanes * ((n - 1 - 5) / kLanes);
    const size_t l6 = 6 + kLanes * ((n - 1 - 6) / kLanes);
    const size_t l7 = 7 + kLanes * ((n - 1 - 7) / kLanes);
    int32_t id0 = 0, id1 = 0, id2 = 0, id3 = 0;
    int32_t id4 = 0, id5 = 0, id6 = 0, id7 = 0;
    uint32_t m0 = root_meta, m1 = root_meta, m2 = root_meta, m3 = root_meta;
    uint32_t m4 = root_meta, m5 = root_meta, m6 = root_meta, m7 = root_meta;
    static_assert(kLanes == 8, "lane unroll below assumes 8");
#define SMPTREE_LANE_ROUND(i)                                   \
  do {                                                          \
    const size_t tc = std::min(r##i, l##i);                     \
    id##i = step(id##i, m##i, tc);                              \
    m##i = meta[id##i];                                         \
    const size_t done = m##i & FlatTree::kLeaf;                 \
    out[tc] = label[id##i];                                     \
    const size_t rn = r##i + (done << 3);                       \
    const bool refill = done != 0 && rn < n;                    \
    id##i = refill ? 0 : id##i;                                 \
    m##i = refill ? root_meta : m##i;                           \
    r##i = rn;                                                  \
  } while (0)
    while (r0 <= l0 || r1 <= l1 || r2 <= l2 || r3 <= l3 || r4 <= l4 ||
           r5 <= l5 || r6 <= l6 || r7 <= l7) {
      SMPTREE_LANE_ROUND(0);
      SMPTREE_LANE_ROUND(1);
      SMPTREE_LANE_ROUND(2);
      SMPTREE_LANE_ROUND(3);
      SMPTREE_LANE_ROUND(4);
      SMPTREE_LANE_ROUND(5);
      SMPTREE_LANE_ROUND(6);
      SMPTREE_LANE_ROUND(7);
    }
#undef SMPTREE_LANE_ROUND
    return;
  }

  // Lockstep groups (big trees): kLanes adjacent tuples walk together and
  // the group exits when the AND of the meta words carries the leaf bit --
  // finished lanes step in place on their self-linked leaf until the
  // group's deepest tuple lands.
  size_t t = 0;
  for (; t + kLanes <= n; t += kLanes) {
    int32_t id0 = 0, id1 = 0, id2 = 0, id3 = 0;
    int32_t id4 = 0, id5 = 0, id6 = 0, id7 = 0;
    uint32_t m0 = root_meta, m1 = root_meta, m2 = root_meta, m3 = root_meta;
    uint32_t m4 = root_meta, m5 = root_meta, m6 = root_meta, m7 = root_meta;
    static_assert(kLanes == 8, "lane unroll below assumes 8");
    while ((m0 & m1 & m2 & m3 & m4 & m5 & m6 & m7 & FlatTree::kLeaf) == 0) {
      id0 = step(id0, m0, t);
      id1 = step(id1, m1, t + 1);
      id2 = step(id2, m2, t + 2);
      id3 = step(id3, m3, t + 3);
      id4 = step(id4, m4, t + 4);
      id5 = step(id5, m5, t + 5);
      id6 = step(id6, m6, t + 6);
      id7 = step(id7, m7, t + 7);
      m0 = meta[id0];
      m1 = meta[id1];
      m2 = meta[id2];
      m3 = meta[id3];
      m4 = meta[id4];
      m5 = meta[id5];
      m6 = meta[id6];
      m7 = meta[id7];
    }
    out[t] = label[id0];
    out[t + 1] = label[id1];
    out[t + 2] = label[id2];
    out[t + 3] = label[id3];
    out[t + 4] = label[id4];
    out[t + 5] = label[id5];
    out[t + 6] = label[id6];
    out[t + 7] = label[id7];
  }
  for (; t < n; ++t) {
    int32_t id = 0;
    uint32_t m = root_meta;
    while ((m & FlatTree::kLeaf) == 0) {
      id = step(id, m, t);
      m = meta[id];
    }
    out[t] = label[id];
  }
}

}  // namespace

const AttrValue* const* BatchScorer::BindTree(const FlatTree& tree,
                                              const ColumnBlock& batch,
                                              size_t slot) {
  const size_t n = static_cast<size_t>(tree.num_nodes());
  if (node_col_.size() < slot + n) node_col_.resize(slot + n);
  const int32_t* attr = tree.attr();
  for (size_t id = 0; id < n; ++id) {
    node_col_[slot + id] = batch.column(attr[id]).data();
  }
  return node_col_.data() + slot;
}

void BatchScorer::ScoreTree(const FlatTree& tree, const ColumnBlock& batch,
                            ClassLabel* labels) {
  assert(!tree.empty());
  const AttrValue* const* node_col = BindTree(tree, batch, 0);
  const int64_t num_tuples = batch.num_tuples();
  for (int64_t begin = 0; begin < num_tuples; begin += kBlockTuples) {
    const int64_t count = std::min(kBlockTuples, num_tuples - begin);
    WalkLabels(tree, node_col, begin, count, labels + begin);
  }
}

void BatchScorer::ScoreForest(const FlatForest& forest,
                              const ColumnBlock& batch, ClassLabel* labels,
                              double* probs) {
  const size_t num_classes = static_cast<size_t>(forest.num_classes());
  const int num_trees = forest.num_trees();
  const double denom = forest.vote_denominator();
  // Bind every member's column-pointer scratch up front (one contiguous
  // span per member) so the per-block member loop pays no rebinds.
  member_slot_.resize(static_cast<size_t>(num_trees));
  size_t slot = 0;
  for (int m = 0; m < num_trees; ++m) {
    member_slot_[static_cast<size_t>(m)] = slot;
    BindTree(forest.tree(m), batch, slot);
    slot += static_cast<size_t>(forest.tree(m).num_nodes());
  }
  const int64_t num_tuples = batch.num_tuples();
  for (int64_t begin = 0; begin < num_tuples; begin += kBlockTuples) {
    const int64_t count = std::min(kBlockTuples, num_tuples - begin);
    votes_.assign(static_cast<size_t>(count) * num_classes, 0);
    member_labels_.resize(static_cast<size_t>(count));
    int32_t* votes = votes_.data();
    for (int m = 0; m < num_trees; ++m) {
      // Walk the member into label scratch, then fold into vote counts in
      // a separate cheap pass -- the walk's idempotent stores rule out
      // bumping counters in-line.
      const FlatTree& tree = forest.tree(m);
      WalkLabels(tree, node_col_.data() + member_slot_[static_cast<size_t>(m)],
                 begin, count, member_labels_.data());
      for (int64_t t = 0; t < count; ++t) {
        ++votes[static_cast<size_t>(t) * num_classes +
                member_labels_[static_cast<size_t>(t)]];
      }
    }
    for (int64_t t = 0; t < count; ++t) {
      const int32_t* row = &votes_[static_cast<size_t>(t) * num_classes];
      // Argmax with strictly-greater scan from label 0: ties keep the
      // lowest label, exactly like Forest::Vote.
      size_t best = 0;
      for (size_t c = 1; c < num_classes; ++c) {
        if (row[c] > row[best]) best = c;
      }
      labels[begin + t] = static_cast<ClassLabel>(best);
      if (probs != nullptr) {
        double* prow = probs + static_cast<size_t>(begin + t) * num_classes;
        for (size_t c = 0; c < num_classes; ++c) {
          // votes/num_trees with the same division Forest::Probabilities
          // performs, so the doubles are bit-identical.
          prow[c] = static_cast<double>(row[c]) / denom;
        }
      }
    }
  }
}

}  // namespace smptree
