// Incremental decision-tree induction over an unbounded stream (the VFDT
// scheme of Domingos & Hulten, grounded here in PAPERS.md "Constructing
// Decision Trees from Data Streams"): every arriving tuple is routed to its
// leaf and folded into that leaf's (bin x class) LeafHistogram -- the same
// sufficient statistic the batch binned engine scans -- and a leaf splits
// once the Hoeffding bound says the observed best split is, with confidence
// 1 - delta, the true best:
//
//   epsilon = R * sqrt(ln(1/delta) / 2n)      R = 1 for gini,
//                                             log2(k) for entropy
//
// Split when (second_best_impurity - best_impurity) > epsilon, or when
// epsilon < tau after the grace period (the tie-break: both candidates are
// so close that either is fine). Splitting runs the batch binned engine's
// own code (binned/leaf_histogram.h): EvaluateBinnedAttr sweeps each
// attribute's bins and PartitionBinnedSplit derives the children's counts,
// so a streaming split is exactly what the batch engine would pick from the
// same histogram.
//
// Bounded memory: leaves bin through the Quantizer a SketchQuantizer
// freezes from a reservoir sample -- the batch engine's layout, with cuts
// at observed quantiles (warmup tuples are buffered and replayed through
// the tree once cuts freeze) -- and when active leaf histograms exceed the
// budget the least promising leaves (lowest observed_count x impurity) are
// deactivated -- they keep routing and keep their class counts (so
// predictions stay exact) but stop paying histogram memory and can no
// longer split.
//
// The tree maintains the serving invariant at every tuple boundary: each
// routed tuple increments the class counts of every node on its root-to-leaf
// path, and splits partition a node's counts exactly across its children, so
// DecisionTree::Validate() passes on any snapshot and ModelStore::Install
// accepts a hot-publish mid-stream.
//
// Threading: one builder thread calls Ingest/Finish/Snapshot; Stats() and
// StatsJson() read relaxed atomics and are safe from any thread (the /statz
// handler calls them while training runs).

#ifndef SMPTREE_STREAM_HOEFFDING_BUILDER_H_
#define SMPTREE_STREAM_HOEFFDING_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "binned/leaf_histogram.h"
#include "core/gini.h"
#include "core/tree.h"
#include "stream/sketch_quantizer.h"
#include "stream/stream_source.h"

namespace smptree {

/// Knobs for the streaming builder.
struct HoeffdingOptions {
  int max_bins = 64;          ///< bins per continuous attribute
  int reservoir_size = 2048;  ///< sketch samples per continuous attribute
  /// Tuples buffered (and replayed) before cut points freeze.
  int64_t warmup_tuples = 2000;
  /// Minimum new tuples at a leaf between split attempts.
  int64_t grace_period = 200;
  double delta = 1e-6;  ///< Hoeffding confidence: P(wrong winner) < delta
  double tau = 0.05;    ///< tie-break: split anyway once epsilon < tau
  /// Budget for active leaf histograms; 0 = unbounded. Leaves are
  /// deactivated lowest-promise-first once the budget is exceeded.
  uint64_t memory_budget_bytes = uint64_t{64} << 20;
  /// Hot-publish period in tuples (0 = only on Finish/demand). Each period
  /// boundary snapshots the tree and calls `publish`.
  int64_t snapshot_every = 0;
  GiniOptions gini;
  uint64_t seed = 1;  ///< reservoir randomness
  /// Snapshot sink, typically bound to ModelStore::Install. A failure
  /// aborts the stream.
  std::function<Status(DecisionTree&& snapshot, int64_t tuples_ingested)>
      publish;
};

/// Point-in-time view of the builder's counters (all values read relaxed;
/// consistent enough for monitoring, not for invariant checks).
struct StreamStats {
  int64_t tuples = 0;
  int64_t splits = 0;
  int64_t active_leaves = 0;
  int64_t deactivated_leaves = 0;
  int64_t snapshots = 0;
  int64_t nodes = 0;
  uint64_t sketch_bytes = 0;
  uint64_t histogram_bytes = 0;
  bool frozen = false;
};

/// Single-writer incremental tree builder. See file comment for contracts.
class HoeffdingTreeBuilder {
 public:
  HoeffdingTreeBuilder(const Schema& schema, HoeffdingOptions options);

  /// Validates options, initializes the sketch, and creates the root leaf.
  /// Must be called (and succeed) before Ingest.
  Status Init();

  /// Routes every tuple of `batch` through the tree (or buffers it during
  /// warmup), splitting leaves and hot-publishing snapshots as configured.
  /// A batch that fails Dataset::Validate against the builder's schema is
  /// rejected whole, before any tuple changes the tree or a snapshot.
  Status Ingest(const StreamBatch& batch);

  /// Freezes the sketch if the stream ended inside warmup (replaying the
  /// buffer), then publishes a final snapshot when a publish hook is set.
  Status Finish();

  /// Independent copy of the current tree (DecisionTree::Clone; the tree
  /// is move-only). Builder thread only.
  DecisionTree Snapshot() const;

  /// Snapshot + publish hook + snapshot counter. No-op without a hook.
  Status Publish();

  const DecisionTree& tree() const { return tree_; }
  const Schema& schema() const { return schema_; }
  /// The frozen bin layout every leaf histogram uses (empty before the
  /// sketch freezes).
  const Quantizer& quantizer() const { return sketch_.quantizer(); }

  /// Safe from any thread.
  StreamStats Stats() const;

  /// The /statz "stream" JSON object, e.g. {"tuples": 1000, ...}. Safe from
  /// any thread.
  std::string StatsJson() const;

 private:
  /// Live-leaf state; slots are reused when leaves split.
  struct StreamLeaf {
    NodeId node = kInvalidNode;
    ClassHistogram hist;  ///< observed at this leaf (excludes created-with)
    LeafHistogram bins;   ///< (bin x class) observed counts; empty if !active
    int64_t since_eval = 0;
    bool active = true;
  };

  /// Freezes cuts, sizes the root histogram, and replays the warmup buffer.
  Status FreezeAndReplay();

  /// Routes tuple `tuple` of `block` root-to-leaf, updating path counts and
  /// the leaf's statistics; attempts a split at grace-period boundaries.
  Status Route(const ColumnBlock& block, int64_t tuple, ClassLabel label);

  /// Hoeffding test at a leaf; splits when the bound (or tie-break) holds.
  Status TrySplit(int slot);

  /// Applies `best` at the leaf: PartitionBinnedSplit of the observed
  /// counts, exact partition of the node's counts, two fresh leaves.
  Status DoSplit(int slot, const SplitCandidate& best, int best_bin);

  /// Deactivates lowest-promise leaves until histograms fit the budget.
  void EnforceBudget();

  int NewLeafSlot(NodeId node);
  uint64_t LeafBytes() const;

  const Schema schema_;
  const HoeffdingOptions options_;
  SketchQuantizer sketch_;
  DecisionTree tree_;
  GiniScratch scratch_;
  std::vector<StreamLeaf> leaves_;
  std::vector<int> free_slots_;
  std::vector<int32_t> slot_of_node_;  ///< NodeId -> leaves_ index or -1
  StreamBatch warmup_;  ///< tuples seen before the cuts freeze
  TupleValues row_;     ///< Route's copy of the tuple it routes
  bool initialized_ = false;

  struct Counters {
    std::atomic<int64_t> tuples{0};
    std::atomic<int64_t> splits{0};
    std::atomic<int64_t> active_leaves{0};
    std::atomic<int64_t> deactivated_leaves{0};
    std::atomic<int64_t> snapshots{0};
    std::atomic<uint64_t> sketch_bytes{0};
    std::atomic<uint64_t> histogram_bytes{0};
    std::atomic<bool> frozen{false};
  };
  Counters counters_;
};

}  // namespace smptree

#endif  // SMPTREE_STREAM_HOEFFDING_BUILDER_H_
