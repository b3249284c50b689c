// Serial SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996): the decision-tree
// classifier SPRINT descends from, included as a second baseline (the paper
// discusses it throughout section 2 and takes its pruning economics and
// accuracy results from it).
//
// SLIQ's design, contrasted with SPRINT:
//   * one pre-sorted attribute list per attribute holding (value, tid) --
//     sorted ONCE and never partitioned; lists always cover the whole
//     training set;
//   * a memory-resident CLASS LIST mapping every tid to its class label and
//     the tree leaf it currently belongs to;
//   * split evaluation scans each attribute list once per level, routing
//     every entry through the class list to its leaf and updating that
//     leaf's histograms -- all leaves of a level are evaluated in a single
//     pass per attribute;
//   * splitting updates only the class list (no data movement at all),
//     which is why SLIQ needs the class list to fit in memory while SPRINT
//     does not.
//
// Both classifiers make the same greedy gini decisions over the same
// candidate splits, so with the library's deterministic tie-breaking SLIQ
// produces a tree bit-identical to serial SPRINT's -- the cross-validation
// the sliq tests rely on.

#ifndef SMPTREE_SLIQ_SLIQ_BUILDER_H_
#define SMPTREE_SLIQ_SLIQ_BUILDER_H_

#include <memory>

#include "core/classifier.h"
#include "core/gini.h"
#include "core/prune.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "util/status.h"

namespace smptree {

struct SliqOptions {
  int64_t min_split = 2;
  int max_levels = 0;  ///< 0 = unlimited
  GiniOptions gini;
  PruneOptions prune;
  /// Threads for the one-time pre-sort (the build itself is serial SLIQ).
  int sort_threads = 1;

  Status Validate() const;
};

struct SliqStats {
  double setup_seconds = 0.0;
  double sort_seconds = 0.0;
  double build_seconds = 0.0;
  double prune_seconds = 0.0;
  double total_seconds = 0.0;
  TreeStats tree;
  int64_t nodes_pruned = 0;
  /// Memory the resident class list occupies -- SLIQ's scalability limit.
  uint64_t class_list_bytes = 0;
};

struct SliqResult {
  std::unique_ptr<DecisionTree> tree;
  SliqStats stats;
};

/// Trains a SLIQ classifier on `data` (fully in-memory) after
/// Dataset::Validate accepts it.
Result<SliqResult> TrainSliq(const Dataset& data, const SliqOptions& options);

}  // namespace smptree

#endif  // SMPTREE_SLIQ_SLIQ_BUILDER_H_
