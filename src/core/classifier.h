// The public facade: train a decision-tree classifier over a Dataset with
// any of the paper's algorithms, get back the tree plus the phase timing
// breakdown the paper's evaluation reports (setup / sort / build).
//
// Quickstart:
//
//   smptree::ClassifierOptions options;
//   options.build.algorithm = smptree::Algorithm::kMwk;
//   options.build.num_threads = 4;
//   auto result = smptree::TrainClassifier(data, options);
//   if (!result.ok()) { ... }
//   smptree::ClassLabel y = result->tree->Classify(tuple_values);

#ifndef SMPTREE_CORE_CLASSIFIER_H_
#define SMPTREE_CORE_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <span>

#include "core/build_stats.h"
#include "core/builder_context.h"
#include "core/prune.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "util/status.h"

namespace smptree {

class BinMatrix;
class Quantizer;

/// Training configuration: growth options plus pruning.
struct ClassifierOptions {
  BuildOptions build;
  PruneOptions prune;
};

/// Phase timing and build accounting (the paper's Table 1 columns plus the
/// storage/synchronization counters the ablations report).
struct TrainStats {
  double setup_seconds = 0.0;  ///< attribute-list creation
  double sort_seconds = 0.0;   ///< pre-sorting of continuous lists
  double build_seconds = 0.0;  ///< tree growth (the parallelized phase)
  double prune_seconds = 0.0;
  double total_seconds = 0.0;

  TreeStats tree;                 ///< shape before pruning
  int64_t nodes_pruned = 0;

  // Storage traffic (records through the attribute files).
  uint64_t records_read = 0;
  uint64_t records_written = 0;

  // Synchronization accounting.
  uint64_t barrier_waits = 0;
  uint64_t condvar_waits = 0;
  uint64_t attr_tasks = 0;
  uint64_t free_queue_rounds = 0;
  double wait_seconds = 0.0;

  // Cumulative per-phase CPU time across all threads (paper steps E/W/S,
  // plus the binned engine's histogram phase H -- 0 for the sorted engine).
  double e_phase_seconds = 0.0;
  double w_phase_seconds = 0.0;
  double s_phase_seconds = 0.0;
  double h_phase_seconds = 0.0;

  /// Frontier shape per level (leaves processed and records held).
  std::vector<LevelTraceEntry> level_trace;

  /// Structured summary of the same accounting (plus the per-thread
  /// compute-vs-blocked breakdown when options.build.trace was set);
  /// build_stats.ToJson() is what --stats-out and /statz export.
  BuildStats build_stats;
};

/// A trained model.
struct TrainResult {
  std::unique_ptr<DecisionTree> tree;
  TrainStats stats;
};

/// Trains a classifier on `data`. Validates options and data (a bad code,
/// label or non-finite value is a Status, not a model), runs setup + sort +
/// the selected build algorithm + optional pruning.
Result<TrainResult> TrainClassifier(const Dataset& data,
                                    const ClassifierOptions& options);

/// The binned engine's build + prune over bins made beforehand: `bins` is
/// `data` mapped through `quantizer`, and `weights` gives each row's
/// multiplicity (empty: every row once; see BuildTreeBinned). A forest
/// quantizes its training set once and trains every member here on its
/// bootstrap draw counts. setup/sort seconds are 0: the caller did them.
/// Validates options and `data` as TrainClassifier does.
Result<TrainResult> TrainBinnedClassifier(const Dataset& data,
                                          const Quantizer& quantizer,
                                          const BinMatrix& bins,
                                          std::span<const int32_t> weights,
                                          const ClassifierOptions& options);

}  // namespace smptree

#endif  // SMPTREE_CORE_CLASSIFIER_H_
