#include "core/tree.h"

#include <cassert>
#include <functional>
#include <sstream>

#include "util/string_util.h"

namespace smptree {

DecisionTree::DecisionTree(Schema schema)
    : schema_(std::move(schema)),
      chunks_(
          std::make_unique<std::array<std::atomic<TreeNode*>, kMaxChunks>>()) {
  for (auto& chunk : *chunks_) {
    chunk.store(nullptr, std::memory_order_relaxed);
  }
}

DecisionTree::DecisionTree(DecisionTree&& other) noexcept NO_THREAD_SAFETY_ANALYSIS
    : schema_(std::move(other.schema_)),
      chunks_(std::move(other.chunks_)),
      owned_chunks_(std::move(other.owned_chunks_)),
      size_(other.size_.load(std::memory_order_relaxed)),
      grow_mutex_(std::move(other.grow_mutex_)) {
  other.size_.store(0, std::memory_order_relaxed);
}

DecisionTree& DecisionTree::operator=(DecisionTree&& other) noexcept
    NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    chunks_ = std::move(other.chunks_);
    owned_chunks_ = std::move(other.owned_chunks_);
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    grow_mutex_ = std::move(other.grow_mutex_);
    other.size_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

NodeId DecisionTree::Append(TreeNode node) {
  // Caller holds grow_mutex_.
  const int64_t id = size_.load(std::memory_order_relaxed);
  assert(id < kMaxChunks * kChunkSize && "node arena capacity exceeded");
  const size_t chunk_index = static_cast<size_t>(id) >> kChunkBits;
  TreeNode* chunk =
      (*chunks_)[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    auto fresh = std::make_unique<TreeNode[]>(kChunkSize);
    chunk = fresh.get();
    owned_chunks_.push_back(std::move(fresh));
    // Publish the chunk before the size so readers that observe the new
    // size always find the chunk pointer.
    (*chunks_)[chunk_index].store(chunk, std::memory_order_release);
  }
  chunk[id & kChunkMask] = std::move(node);
  size_.store(id + 1, std::memory_order_release);
  return static_cast<NodeId>(id);
}

NodeId DecisionTree::CreateRoot(const ClassHistogram& counts) {
  MutexLock lock(*grow_mutex_);
  assert(num_nodes() == 0);
  TreeNode root;
  root.depth = 0;
  root.class_counts.assign(counts.counts().begin(), counts.counts().end());
  root.majority = counts.Majority();
  return Append(std::move(root));
}

NodeId DecisionTree::AddChild(NodeId parent, bool left_side,
                              const ClassHistogram& counts) {
  MutexLock lock(*grow_mutex_);
  assert(parent >= 0 && parent < num_nodes());
  TreeNode child;
  child.parent = parent;
  child.depth = Slot(parent)->depth + 1;
  child.class_counts.assign(counts.counts().begin(), counts.counts().end());
  child.majority = counts.Majority();
  const NodeId id = Append(std::move(child));
  if (left_side) {
    Slot(parent)->left = id;
  } else {
    Slot(parent)->right = id;
  }
  return id;
}

void DecisionTree::SetSplit(NodeId node, const SplitTest& test) {
  Slot(node)->split = test;
}

void DecisionTree::MakeLeaf(NodeId node) {
  TreeNode* n = Slot(node);
  n->left = kInvalidNode;
  n->right = kInvalidNode;
  n->split = SplitTest{};
}

void DecisionTree::CompactAfterPrune() {
  if (num_nodes() == 0) return;
  *this = Clone();
}

DecisionTree DecisionTree::Clone() const {
  DecisionTree copy(schema_);
  if (num_nodes() == 0) return copy;
  // Collect reachable nodes in preorder, then fill the copy's arena.
  std::vector<TreeNode> kept;
  kept.reserve(static_cast<size_t>(num_nodes()));
  std::function<NodeId(NodeId, NodeId)> visit = [&](NodeId id,
                                                    NodeId new_parent) {
    const TreeNode& source = node(id);
    const NodeId new_id = static_cast<NodeId>(kept.size());
    kept.push_back(source);
    kept[new_id].parent = new_parent;
    if (!source.is_leaf()) {
      const NodeId left = visit(source.left, new_id);
      const NodeId right = visit(source.right, new_id);
      kept[new_id].left = left;
      kept[new_id].right = right;
    }
    return new_id;
  };
  visit(0, kInvalidNode);
  copy.AppendAll(std::move(kept));
  return copy;
}

void DecisionTree::AppendAll(std::vector<TreeNode> nodes) {
  MutexLock lock(*grow_mutex_);
  for (TreeNode& n : nodes) Append(std::move(n));
}

ClassLabel DecisionTree::Classify(const TupleValues& values) const {
  assert(num_nodes() > 0);
  NodeId id = 0;
  for (;;) {
    const TreeNode& n = node(id);
    if (n.is_leaf()) return n.majority;
    id = n.split.GoesLeft(values[n.split.attr]) ? n.left : n.right;
  }
}

ClassLabel DecisionTree::Classify(const Dataset& data, int64_t tuple) const {
  assert(num_nodes() > 0);
  NodeId id = 0;
  for (;;) {
    const TreeNode& n = node(id);
    if (n.is_leaf()) return n.majority;
    id = n.split.GoesLeft(data.value(tuple, n.split.attr)) ? n.left : n.right;
  }
}

TreeStats DecisionTree::Stats() const {
  TreeStats stats;
  stats.num_nodes = num_nodes();
  std::vector<int64_t> leaves_at_depth;
  for (NodeId id = 0; id < stats.num_nodes; ++id) {
    const TreeNode& n = node(id);
    if (n.depth >= stats.levels) stats.levels = n.depth + 1;
    if (n.is_leaf()) {
      ++stats.num_leaves;
      if (n.depth >= static_cast<int>(leaves_at_depth.size())) {
        leaves_at_depth.resize(n.depth + 1, 0);
      }
      ++leaves_at_depth[n.depth];
    }
  }
  for (int64_t c : leaves_at_depth) {
    stats.max_leaves_per_level = std::max(stats.max_leaves_per_level, c);
  }
  return stats;
}

Status DecisionTree::Validate() const {
  const int64_t n = num_nodes();
  if (n == 0) return Status::Corruption("tree has no nodes");
  std::vector<char> visited(static_cast<size_t>(n), 0);
  std::vector<NodeId> stack = {0};
  if (node(0).parent != kInvalidNode) {
    return Status::Corruption("root has a parent");
  }
  if (node(0).depth != 0) return Status::Corruption("root depth != 0");
  int64_t reached = 0;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id < 0 || id >= n) {
      return Status::Corruption(StringPrintf("child id %d out of range", id));
    }
    if (visited[id]) {
      return Status::Corruption(
          StringPrintf("node %d reached twice (cycle or shared child)", id));
    }
    visited[id] = 1;
    ++reached;
    const TreeNode& current = node(id);
    if (static_cast<int>(current.class_counts.size()) !=
        schema_.num_classes()) {
      return Status::Corruption(
          StringPrintf("node %d: class-count arity mismatch", id));
    }
    if (current.majority >= schema_.num_classes()) {
      return Status::Corruption(StringPrintf("node %d: bad majority", id));
    }
    if (current.is_leaf()) {
      if (current.right != kInvalidNode) {
        return Status::Corruption(
            StringPrintf("node %d: leaf with right child", id));
      }
      continue;
    }
    if (current.right == kInvalidNode) {
      return Status::Corruption(
          StringPrintf("node %d: internal node missing right child", id));
    }
    const SplitTest& test = current.split;
    if (!test.valid() || test.attr >= schema_.num_attrs()) {
      return Status::Corruption(
          StringPrintf("node %d: invalid split attribute", id));
    }
    if (test.categorical != schema_.attr(test.attr).is_categorical()) {
      return Status::Corruption(
          StringPrintf("node %d: split kind does not match attribute", id));
    }
    for (NodeId child : {current.left, current.right}) {
      if (child < 0 || child >= n) {
        return Status::Corruption(
            StringPrintf("node %d: child out of range", id));
      }
      if (node(child).parent != id) {
        return Status::Corruption(
            StringPrintf("node %d: child %d has wrong parent", id, child));
      }
      if (node(child).depth != current.depth + 1) {
        return Status::Corruption(
            StringPrintf("node %d: child %d has wrong depth", id, child));
      }
      stack.push_back(child);
    }
    for (int c = 0; c < schema_.num_classes(); ++c) {
      if (node(current.left).class_counts[c] +
              node(current.right).class_counts[c] !=
          current.class_counts[c]) {
        return Status::Corruption(StringPrintf(
            "node %d: children's class counts do not sum to parent's", id));
      }
    }
  }
  if (reached != n) {
    return Status::Corruption(StringPrintf(
        "%lld of %lld nodes unreachable from the root",
        static_cast<long long>(n - reached), static_cast<long long>(n)));
  }
  return Status::OK();
}

std::string DecisionTree::ToString() const {
  std::ostringstream os;
  std::function<void(NodeId, int)> emit = [&](NodeId id, int indent) {
    const TreeNode& n = node(id);
    for (int i = 0; i < indent; ++i) os << "|   ";
    if (n.is_leaf()) {
      os << "leaf: " << schema_.class_name(n.majority) << " "
         << StringPrintf("(n=%lld)", static_cast<long long>(n.tuple_count()))
         << "\n";
      return;
    }
    os << n.split.ToString(schema_) << " ?\n";
    emit(n.left, indent + 1);
    for (int i = 0; i < indent; ++i) os << "|   ";
    os << "else\n";
    emit(n.right, indent + 1);
  };
  if (num_nodes() > 0) emit(0, 0);
  return os.str();
}

}  // namespace smptree
