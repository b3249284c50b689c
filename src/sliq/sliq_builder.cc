#include "sliq/sliq_builder.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/builder_context.h"
#include "core/presort.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {

namespace {

/// The memory-resident class list: SLIQ's central structure. `leaf` is a
/// dense index into the current level's leaf states, or kDone once the
/// tuple's path reached a finalized leaf.
struct ClassListEntry {
  ClassLabel label = 0;
  int32_t leaf = 0;
};
constexpr int32_t kDone = -1;

/// Per-leaf state for one level.
struct SliqLeaf {
  NodeId node = kInvalidNode;
  ClassHistogram hist;
  SplitCandidate best;

  // Continuous-scan state (reset per attribute).
  ClassHistogram below;
  ClassHistogram above;
  float prev_value = 0.0f;
  bool has_prev = false;

  // Categorical-scan state.
  CountMatrix matrix;
};

}  // namespace

Status SliqOptions::Validate() const {
  if (min_split < 1) return Status::InvalidArgument("min_split < 1");
  if (max_levels < 0) return Status::InvalidArgument("max_levels < 0");
  if (sort_threads < 1) return Status::InvalidArgument("sort_threads < 1");
  if (gini.max_exhaustive_cardinality < 1 ||
      gini.max_exhaustive_cardinality > 20) {
    return Status::InvalidArgument("max_exhaustive_cardinality outside [1,20]");
  }
  return Status::OK();
}

Result<SliqResult> TrainSliq(const Dataset& data, const SliqOptions& options) {
  SMPTREE_RETURN_IF_ERROR(options.Validate());
  SMPTREE_RETURN_IF_ERROR(data.schema().Validate());
  SMPTREE_RETURN_IF_ERROR(data.Validate());
  if (data.num_tuples() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  const Schema& schema = data.schema();
  for (int a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).is_categorical() &&
        schema.attr(a).cardinality > kMaxCategoricalCardinality) {
      return Status::NotSupported(
          StringPrintf("categorical attribute '%s' cardinality %d too large",
                       schema.attr(a).name.c_str(),
                       schema.attr(a).cardinality));
    }
  }

  SliqResult result;
  result.tree = std::make_unique<DecisionTree>(schema);
  Timer total;

  // Setup + pre-sort: SLIQ needs sorted lists only for continuous
  // attributes (categorical evaluation scans the columns directly), but we
  // reuse the shared presort for the setup/sort timing parity with SPRINT.
  SMPTREE_ASSIGN_OR_RETURN(AttributeLists lists,
                           BuildAttributeLists(data, options.sort_threads));
  result.stats.setup_seconds = lists.setup_seconds;
  result.stats.sort_seconds = lists.sort_seconds;

  Timer build;
  const int64_t n = data.num_tuples();
  const int num_classes = data.num_classes();
  const int num_attrs = schema.num_attrs();

  // The class list.
  std::vector<ClassListEntry> class_list(n);
  {
    const auto labels = data.labels();
    for (int64_t t = 0; t < n; ++t) {
      class_list[t].label = labels[t];
      class_list[t].leaf = 0;
    }
  }
  result.stats.class_list_bytes = n * sizeof(ClassListEntry);

  // Root.
  ClassHistogram root_hist(num_classes);
  for (int64_t t = 0; t < n; ++t) root_hist.Add(class_list[t].label);
  result.tree->CreateRoot(root_hist);

  std::vector<SliqLeaf> leaves;
  if (!FinalizedAsLeaf(root_hist, 0, options.min_split, options.max_levels)) {
    SliqLeaf root;
    root.node = result.tree->root();
    root.hist = root_hist;
    leaves.push_back(std::move(root));
  } else {
    for (auto& entry : class_list) entry.leaf = kDone;
  }

  GiniScratch scratch;
  int depth = 0;
  while (!leaves.empty()) {
    // --- Evaluate: one pass per attribute over ALL leaves at once. ---
    for (int attr = 0; attr < num_attrs; ++attr) {
      const AttrInfo& info = schema.attr(attr);
      if (info.is_categorical()) {
        for (SliqLeaf& leaf : leaves) {
          leaf.matrix.Reset(info.cardinality, num_classes);
        }
        const auto column = data.column(attr);
        for (int64_t t = 0; t < n; ++t) {
          const int32_t li = class_list[t].leaf;
          if (li == kDone) continue;
          leaves[li].matrix.Add(column[t].cat, class_list[t].label);
        }
        for (SliqLeaf& leaf : leaves) {
          const SplitCandidate candidate = EvaluateCategoricalFromMatrix(
              attr, leaf.matrix, leaf.hist, options.gini, &scratch);
          if (candidate.BetterThan(leaf.best)) leaf.best = candidate;
        }
      } else {
        for (SliqLeaf& leaf : leaves) {
          leaf.below.Reset(num_classes);
          leaf.above = leaf.hist;
          leaf.has_prev = false;
        }
        // The sorted attribute list routes every record to its current
        // leaf through the class list; each leaf sees its own subsequence
        // in sorted order, exactly as SPRINT's partitioned lists would.
        for (const AttrRecord& rec : lists.lists[attr]) {
          const int32_t li = class_list[rec.tid].leaf;
          if (li == kDone) continue;
          SliqLeaf& leaf = leaves[li];
          const float v = rec.value.f;
          if (leaf.has_prev && v != leaf.prev_value) {
            SplitCandidate candidate;
            candidate.test.attr = attr;
            candidate.test.categorical = false;
            const float mid =
                leaf.prev_value + (v - leaf.prev_value) * 0.5f;
            candidate.test.threshold = mid > leaf.prev_value ? mid : v;
            candidate.gini = SplitImpurity(leaf.below, leaf.above, options.gini.criterion);
            candidate.left_count = leaf.below.Total();
            candidate.right_count = leaf.above.Total();
            if (candidate.gini <= 1.0 && candidate.left_count > 0 &&
                candidate.right_count > 0 &&
                candidate.BetterThan(leaf.best)) {
              leaf.best = candidate;
            }
          }
          leaf.below.Add(class_list[rec.tid].label);
          leaf.above.Remove(class_list[rec.tid].label);
          leaf.prev_value = v;
          leaf.has_prev = true;
        }
      }
    }

    // --- Split: install winners, create children. ---
    struct Child {
      NodeId node = kInvalidNode;
      ClassHistogram hist;
      int32_t next_index = kDone;  // dense index in the next level
    };
    std::vector<Child> children(2 * leaves.size());
    for (size_t li = 0; li < leaves.size(); ++li) {
      SliqLeaf& leaf = leaves[li];
      if (!leaf.best.valid()) continue;  // stays a majority leaf
      result.tree->SetSplit(leaf.node, leaf.best.test);
      children[2 * li].hist.Reset(num_classes);
      children[2 * li + 1].hist.Reset(num_classes);
    }

    // --- Update the class list (SLIQ moves no data, only these labels). ---
    for (int64_t t = 0; t < n; ++t) {
      ClassListEntry& entry = class_list[t];
      if (entry.leaf == kDone) continue;
      const SliqLeaf& leaf = leaves[entry.leaf];
      if (!leaf.best.valid()) {
        entry.leaf = kDone;
        continue;
      }
      const bool left =
          leaf.best.test.GoesLeft(data.value(t, leaf.best.test.attr));
      const int32_t slot =
          static_cast<int32_t>(2 * entry.leaf) + (left ? 0 : 1);
      children[slot].hist.Add(entry.label);
      entry.leaf = slot;  // provisional: remapped below
    }

    // --- Finalize children, build the next level. ---
    std::vector<SliqLeaf> next;
    const int child_depth = depth + 1;
    for (size_t li = 0; li < leaves.size(); ++li) {
      const SliqLeaf& leaf = leaves[li];
      if (!leaf.best.valid()) continue;
      for (int side = 0; side < 2; ++side) {
        Child& child = children[2 * li + side];
        assert(child.hist.Total() ==
               (side == 0 ? leaf.best.left_count : leaf.best.right_count));
        child.node =
            result.tree->AddChild(leaf.node, side == 0, child.hist);
        if (!FinalizedAsLeaf(child.hist, child_depth, options.min_split,
                             options.max_levels)) {
          child.next_index = static_cast<int32_t>(next.size());
          SliqLeaf state;
          state.node = child.node;
          state.hist = child.hist;
          next.push_back(std::move(state));
        }
      }
    }
    // Remap provisional child slots to next-level indices (or kDone).
    for (int64_t t = 0; t < n; ++t) {
      ClassListEntry& entry = class_list[t];
      if (entry.leaf == kDone) continue;
      entry.leaf = children[entry.leaf].next_index;
    }

    leaves = std::move(next);
    ++depth;
  }
  result.stats.build_seconds = build.Seconds();
  result.stats.tree = result.tree->Stats();

  Timer prune_timer;
  result.stats.nodes_pruned = PruneTree(result.tree.get(), options.prune);
  result.stats.prune_seconds = prune_timer.Seconds();
  result.stats.total_seconds = total.Seconds();
  return result;
}

}  // namespace smptree
