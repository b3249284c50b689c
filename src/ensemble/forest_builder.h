// ForestBuilder: trains a bagged forest with two-level parallelism. The
// outer level runs whole trees concurrently (classic task parallelism: each
// member is an independent build over its own bootstrap bag); the inner
// level is the paper's within-tree machinery (BASIC / FWK / MWK / SUBTREE
// builder threads, or the binned engine's level team). A fixed thread
// budget P is split between the two levels by PlanThreadSplit:
//
//   kTreesFirst  -- spend threads on concurrent trees first: outer =
//                   min(T, P), the remainder (P / outer) goes to each
//                   member's inner builder. With T >= P every thread builds
//                   its own tree (embarrassingly parallel, no inner
//                   synchronization at all); with T < P the surplus flows
//                   inward.
//   kInnerFirst  -- build members one at a time, all P threads inside the
//                   paper's builder. This is the paper's regime measured
//                   end-to-end over an ensemble workload; it exists to let
//                   the bench compare outer vs inner scaling directly.
//
// `concurrent_trees` overrides the planner's outer width for sweeps.
//
// Bags: the sorted engine trains each member on a materialized bootstrap
// resample (BootstrapSample). The binned engine quantizes and bins the
// training set once, on all P threads, and trains each member over that
// shared read-only bin matrix with the member's bootstrap draw counts as
// row weights (BootstrapCounts); rows drawn 0 times are its out-of-bag set
// and never enter its frontier. Cut points therefore come from the full
// training set, not from each bag.
//
// Determinism: the forest depends only on (options, data), never on the
// schedule. Every member i draws its seed from splitmix64(seed, i), its
// bootstrap bag and feature-sampling stream come from that seed alone,
// and members are installed in index order -- so trees-first and
// inner-first runs of the same options produce byte-identical forests when
// the inner builder is serial or binned (the binned engine numbers nodes in
// frontier order at every thread count), and structurally identical
// distributions otherwise (parallel sorted builders number nodes in
// scheduling order, which perturbs per-node feature draws; see
// FeatureSampling in core/builder_context.h).
//
// OOB: with bootstrap on, each member's resample leaves ~36.8% of the
// training tuples out of bag; those tuples are scored by that member only,
// and the majority vote over each tuple's out-of-bag members gives an
// unbiased generalization estimate without a held-out set.

#ifndef SMPTREE_ENSEMBLE_FOREST_BUILDER_H_
#define SMPTREE_ENSEMBLE_FOREST_BUILDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/classifier.h"
#include "data/dataset.h"
#include "ensemble/forest.h"
#include "util/status.h"

namespace smptree {

/// How PlanThreadSplit spends the thread budget (header comment above).
enum class ForestSchedule : unsigned char {
  kTreesFirst,
  kInnerFirst,
};

/// Member `member`'s seed under master seed `seed` (a splitmix64
/// finalizer over the pair): it alone drives the member's bootstrap bag and
/// feature sampling, whatever the build order.
uint64_t ForestMemberSeed(uint64_t seed, int member);

/// Returns "trees-first" / "inner-first".
const char* ForestScheduleName(ForestSchedule schedule);

/// The planner's decision: how many trees build concurrently and how many
/// builder threads each of those gets. concurrent_trees * inner_threads is
/// at most num_threads (integer division truncates; threads are never
/// oversubscribed by plan).
struct ThreadSplit {
  int concurrent_trees = 1;
  int inner_threads = 1;
};

/// Splits `num_threads` between concurrent trees and within-tree builder
/// threads. `concurrent_trees_override` > 0 pins the outer width (clamped
/// to [1, min(num_trees, num_threads)]); 0 lets the schedule decide.
/// Exposed for the bench sweep and tests.
ThreadSplit PlanThreadSplit(int num_trees, int num_threads,
                            ForestSchedule schedule,
                            int concurrent_trees_override);

/// Forest training configuration.
struct ForestOptions {
  int num_trees = 10;
  /// Train each member on a bootstrap resample (with replacement, same size
  /// as the training set). Off: every member sees the full training set --
  /// with full feature sampling that makes every member identical, which is
  /// exactly what the single-tree parity tests want.
  bool bootstrap = true;
  /// Attributes considered per node (random-forest feature subsampling);
  /// 0 = all attributes at every node.
  int features_per_node = 0;
  /// Master seed: member i derives its bootstrap + feature-sampling seed
  /// as splitmix64(seed, i), so the forest is deterministic in (seed, data).
  uint64_t seed = 42;
  /// Total thread budget across both levels.
  int num_threads = 1;
  ForestSchedule schedule = ForestSchedule::kTreesFirst;
  /// Outer-width override for PlanThreadSplit (0 = derive from schedule).
  int concurrent_trees = 0;
  /// Compute out-of-bag accuracy after training (needs bootstrap).
  bool oob = true;
  /// Per-member training options. num_threads and feature_sampling are
  /// overwritten per member by the planner and the per-tree seed; with
  /// concurrent trees, build.trace is ignored (a shared recorder cannot be
  /// folded per member while other members still emit spans).
  ClassifierOptions tree;

  Status Validate() const;
};

/// Forest-level training accounting: the per-member TrainStats plus the
/// fold the observability tooling consumes.
struct ForestTrainStats {
  double total_seconds = 0.0;
  /// Binned engine: wall seconds of the one shared quantize + bin-matrix
  /// pass, before any member starts (members report setup/sort 0). 0 for
  /// the sorted engine, whose members each sort their own bag.
  double bin_seconds = 0.0;
  /// Majority-vote accuracy over each tuple's out-of-bag members;
  /// -1 when not computed (oob off, or bootstrap off).
  double oob_accuracy = -1.0;
  /// Tuples that were out of bag for at least one member.
  int64_t oob_tuples = 0;
  /// The planner's decision for this run.
  ThreadSplit split;
  /// Per-member stats, index-aligned with the forest's trees.
  std::vector<TrainStats> trees;
  /// Member BuildStats folded into one record (algorithm
  /// "FOREST(<inner>)", counters summed, per-level frontiers merged by
  /// depth) so --stats-out / /statz / bench_to_json work unchanged.
  BuildStats build_stats;
};

/// A trained forest.
struct ForestTrainResult {
  std::unique_ptr<Forest> forest;
  ForestTrainStats stats;
};

/// Trains a bagged forest on `data` (validates options, plans the thread
/// split, trains members, folds OOB + stats).
Result<ForestTrainResult> TrainForest(const Dataset& data,
                                      const ForestOptions& options);

}  // namespace smptree

#endif  // SMPTREE_ENSEMBLE_FOREST_BUILDER_H_
