// The decision tree produced by the builders: binary nodes with a SplitTest,
// leaves with a majority class. Nodes live in a chunked arena whose chunk
// pointers are published atomically, so readers index nodes with no lock
// while other threads append (the SMP builders create children from
// concurrent W phases). Node creation is internally synchronized; node
// *content* visibility across threads relies on the builders' barriers /
// gates, which is how the algorithms already order W before S.
//
// Concurrent reads (the serving contract): once building and pruning are
// done and the finished tree has been published to the reading threads with
// the usual release/acquire handoff (e.g. via shared_ptr<const DecisionTree>
// in serve/model_store.h), any number of threads may call the const reader
// surface -- Classify, node(), root(), num_nodes(), Stats(), Validate(),
// ToString() -- concurrently with no synchronization. This holds because
// the readers are physically const: an audit (enforced by the
// concurrent-reader tests in tree_test.cc) confirms none of them lazily
// mutate state -- no memoized stats, no cached traversals, and
// SplitTest::GoesLeft only reads the immutable subset/threshold. The only
// mutating entry points are CreateRoot/AddChild/SetSplit/MakeLeaf/
// CompactAfterPrune/mutable_node, none of which may run concurrently with
// readers outside the builders' own ordering protocols.

#ifndef SMPTREE_CORE_TREE_H_
#define SMPTREE_CORE_TREE_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "core/split.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "util/mutex.h"

namespace smptree {

/// Index of a node within its DecisionTree; dense, root == 0.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One decision-tree node.
struct TreeNode {
  SplitTest split;                 ///< valid iff internal node
  NodeId left = kInvalidNode;
  NodeId right = kInvalidNode;
  NodeId parent = kInvalidNode;
  int depth = 0;                   ///< root is depth 0
  ClassLabel majority = 0;         ///< predicted class when used as a leaf
  std::vector<int64_t> class_counts;  ///< training distribution at the node

  bool is_leaf() const { return left == kInvalidNode; }
  int64_t tuple_count() const {
    int64_t n = 0;
    for (int64_t c : class_counts) n += c;
    return n;
  }
};

/// Tree-shape statistics (the paper's Table 1 reports levels and max
/// leaves/level).
struct TreeStats {
  int64_t num_nodes = 0;
  int64_t num_leaves = 0;
  int levels = 0;               ///< number of levels (max depth + 1)
  int64_t max_leaves_per_level = 0;
};

/// A binary decision tree over a fixed schema.
class DecisionTree {
 public:
  explicit DecisionTree(Schema schema);

  /// Movable (not copyable). Never move a tree that builder threads are
  /// still growing -- a move transfers exclusive ownership of the arena,
  /// which is also why the moves are exempt from the thread-safety
  /// analysis (there is no lock to track).
  DecisionTree(DecisionTree&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  DecisionTree& operator=(DecisionTree&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS;
  DecisionTree(const DecisionTree&) = delete;
  DecisionTree& operator=(const DecisionTree&) = delete;

  const Schema& schema() const { return schema_; }

  /// Creates the root node with the full training-set class distribution.
  /// Must be called exactly once, before any AddChild.
  NodeId CreateRoot(const ClassHistogram& counts);

  /// Adds a child under `parent` on the given side ("left" == the side the
  /// split test sends matching tuples to). Thread-safe.
  NodeId AddChild(NodeId parent, bool left_side, const ClassHistogram& counts);

  /// Installs the split test on an internal node (called by the W phase).
  void SetSplit(NodeId node, const SplitTest& test);

  /// Detaches a node's children, turning it back into a leaf (used by
  /// pruning). The orphaned descendants stay in the arena but are
  /// unreachable; CompactAfterPrune() removes them.
  void MakeLeaf(NodeId node);

  /// Rebuilds the arena keeping only reachable nodes (after pruning).
  void CompactAfterPrune();

  /// Independent copy of the reachable nodes, renumbered in preorder (the
  /// order SerializeTree emits) with every field copied as is. Must not run
  /// concurrently with AddChild.
  DecisionTree Clone() const;

  /// Lock-free node access (safe concurrently with AddChild by design).
  const TreeNode& node(NodeId id) const { return *Slot(id); }
  TreeNode& mutable_node(NodeId id) { return *Slot(id); }
  NodeId root() const { return num_nodes() == 0 ? kInvalidNode : 0; }
  int64_t num_nodes() const {
    return size_.load(std::memory_order_acquire);
  }

  /// Classifies one tuple by walking from the root. Safe for any number of
  /// concurrent callers on a published, fully-built tree (see the
  /// "Concurrent reads" contract above); touches no mutable state.
  ClassLabel Classify(const TupleValues& values) const;

  /// Classifies tuple `t` of `data` (columns must match the schema).
  /// Concurrent-reader safe, like the TupleValues overload.
  ClassLabel Classify(const Dataset& data, int64_t tuple) const;

  TreeStats Stats() const;

  /// Structural invariants check (for tests and model loading): parent /
  /// child links consistent, depths increment, every node reachable from
  /// the root exactly once, split tests reference schema attributes of the
  /// right kind, and every internal node's class counts equal the sum of
  /// its children's.
  Status Validate() const;

  /// Pretty multi-line rendering ("|--" indentation, split tests by name).
  std::string ToString() const;

 private:
  // Chunked arena: node id -> chunks_[id >> kChunkBits][id & kChunkMask].
  // Readers load the chunk pointer with acquire and never touch any mutable
  // map structure; AddChild allocates chunks under the mutex and publishes
  // them with release stores. Capacity: kMaxChunks * kChunkSize nodes.
  static constexpr int kChunkBits = 10;
  static constexpr int64_t kChunkSize = int64_t{1} << kChunkBits;
  static constexpr int64_t kChunkMask = kChunkSize - 1;
  static constexpr int64_t kMaxChunks = int64_t{1} << 14;  // 16M nodes

  TreeNode* Slot(NodeId id) const {
    assert(id >= 0 && id < num_nodes());
    TreeNode* chunk =
        (*chunks_)[static_cast<size_t>(id) >> kChunkBits].load(
            std::memory_order_acquire);
    return chunk + (id & kChunkMask);
  }

  /// Appends a node (arena slot + id) under grow_mutex_.
  NodeId Append(TreeNode node) REQUIRES(*grow_mutex_);

  /// Appends `nodes` in order (Clone's fill of a fresh arena).
  void AppendAll(std::vector<TreeNode> nodes) EXCLUDES(*grow_mutex_);

  // lint: unguarded(set at construction/load; immutable while shared)
  Schema schema_;
  // Heap-allocated so DecisionTree stays movable (builders never move a
  // tree while growing it).
  std::unique_ptr<std::array<std::atomic<TreeNode*>, kMaxChunks>> chunks_;
  std::vector<std::unique_ptr<TreeNode[]>> owned_chunks_
      GUARDED_BY(*grow_mutex_);
  std::atomic<int64_t> size_{0};
  std::unique_ptr<Mutex> grow_mutex_ = std::make_unique<Mutex>();
};

}  // namespace smptree

#endif  // SMPTREE_CORE_TREE_H_
