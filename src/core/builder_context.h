// BuildContext: the level-step engine every builder drives (paper section 3):
//
//   E  EvaluateAttrForLeaves / EvaluateLeafAttr -- gini split evaluation of
//      one attribute over leaves of the current level;
//   W  RunW -- pick the winning split of a leaf from the per-attribute
//      candidates, scan the winner's list to build the tid probe, tally the
//      child class histograms, apply the child-purity pre-test, and create
//      the child nodes;
//   S  SplitAttribute -- partition one attribute's lists of every leaf into
//      the children via the probe, appending into the next level's slot
//      files (records of finalized children are dropped);
//
// plus AssignChildSlots (the Figure 5 child relabelling) and AdvanceLevel.
//
// The engine is deliberately thread-agnostic: the serial builder calls these
// in a straight loop; BASIC/FWK/MWK/SUBTREE interleave the same calls under
// their own scheduling and synchronization. Safety contract per call is
// documented on each method.

#ifndef SMPTREE_CORE_BUILDER_CONTEXT_H_
#define SMPTREE_CORE_BUILDER_CONTEXT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gini.h"
#include "core/presort.h"
#include "core/probe.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "storage/level_storage.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/trace.h"

namespace smptree {

/// Tree-building algorithm selector.
enum class Algorithm : unsigned char {
  kSerial,          ///< serial SPRINT (section 2)
  kBasic,           ///< attribute data parallelism, master W (section 3.2.1)
  kFwk,             ///< fixed-window-K pipelining (section 3.2.2)
  kMwk,             ///< moving-window-K (section 3.2.3)
  kSubtree,         ///< dynamic subtree task parallelism (section 3.3)
  kRecordParallel,  ///< record data parallelism (the SP/distributed scheme
                    ///< the paper argues is ill-suited to SMPs; ablation)
};

const char* AlgorithmName(Algorithm algorithm);

/// Training-engine selector: the SPRINT sorted-attribute-list machinery
/// (everything in Algorithm) or the binned engine (src/binned/), which
/// quantizes continuous attributes into at most BuildOptions::max_bins bins
/// once at load and evaluates splits over per-leaf histograms in O(bins)
/// per attribute instead of O(records).
enum class Engine : unsigned char {
  kSorted,  ///< exact sorted attribute lists (paper sections 2-3)
  kBinned,  ///< quantized per-leaf histograms with sibling subtraction
};

/// Returns "sorted" / "binned".
const char* EngineName(Engine engine);

/// One tree level's working-set shape: how many unfinalized leaves the
/// builders processed at that depth and how many attribute-list records
/// (per attribute) they held. The per-level record volume decays as pure
/// children are dropped -- the curve the paper's file-reuse scheme rides.
struct LevelTraceEntry {
  int level = 0;  ///< depth (root = 0)
  int64_t leaves = 0;
  int64_t records = 0;
};

/// Per-node feature subsampling (the random-forest ingredient): when
/// active, each tree node evaluates splits over a deterministic
/// pseudo-random subset of `features_per_node` attributes instead of all of
/// them. The subset is a pure function of (seed, node id), so a build is
/// reproducible given its seed and a deterministic node numbering (serial
/// builds always; parallel builders number nodes in scheduling order, so
/// across thread counts only the *distribution* is preserved).
struct FeatureSampling {
  /// Attributes evaluated per node; 0 (or >= num_attrs) evaluates all.
  int features_per_node = 0;
  uint64_t seed = 0;

  bool active(int num_attrs) const {
    return features_per_node > 0 && features_per_node < num_attrs;
  }

  /// True when `attr` is in the node's sampled attribute subset.
  bool Allows(NodeId node, int attr, int num_attrs) const;
};

/// Everything configurable about a build.
struct BuildOptions {
  Algorithm algorithm = Algorithm::kSerial;
  /// Training engine. kSorted runs `algorithm`; kBinned runs the breadth-
  /// first histogram builder of src/binned/ (which has one parallel scheme
  /// of its own and ignores `algorithm`/`window`/storage options). The
  /// binned engine is approximate: split thresholds come from the quantized
  /// bin boundaries, so accuracy deltas vs kSorted are measured and
  /// reported (bench/binned_vs_sorted), never hidden.
  Engine engine = Engine::kSorted;
  /// Bin budget per attribute for the binned engine (bins are uint8_t, so
  /// at most 256). Categorical attributes use one bin per value code and
  /// must fit the budget.
  int max_bins = 256;
  int num_threads = 1;
  /// Window size K for FWK/MWK (the paper finds 4 works well). Also the
  /// per-group window when SUBTREE runs with the MWK subroutine.
  int window = 4;
  /// Per-group level subroutine for SUBTREE: kBasic (the paper's default)
  /// or kMwk (the hybrid the paper suggests in section 3.4: "we can also
  /// use FWK or MWK as the subroutine").
  Algorithm subtree_subroutine = Algorithm::kBasic;
  /// Children with fewer records become leaves without further splitting.
  int64_t min_split = 2;
  /// Maximum number of tree levels (0 = unlimited).
  int max_levels = 0;
  /// Turn off the Figure 5 child relabelling (ablation only; leaves the
  /// "holes" of the simple assignment scheme in the slot schedule).
  bool relabel_children = true;
  /// Per-node feature subsampling (inactive by default; the ensemble
  /// builder switches it on for forest members).
  FeatureSampling feature_sampling;
  GiniOptions gini;
  /// Storage environment; nullptr selects the in-memory Env (Machine B).
  /// Pass Env::Posix() for the paper's local-disk configuration (Machine A).
  Env* env = nullptr;
  /// Scratch directory for attribute files; empty picks a unique directory
  /// under the system temp dir (PosixEnv) or a fixed namespace (MemEnv).
  std::string scratch_dir;
  /// Threads used for attribute-list setup and pre-sorting (setup
  /// parallelization, the paper's suggested improvement; 1 = paper-faithful
  /// sequential).
  int sort_threads = 1;
  /// Bound (in records) on each child's S-phase write buffer: once a
  /// child's pending records reach this many they are streamed into its
  /// alternate slot file mid-leaf, keeping the working set at
  /// O(split_buffer_records) instead of O(leaf). 0 buffers each child in
  /// full before writing (the pre-streaming behavior; kept selectable for
  /// the buffered-vs-direct equivalence tests). Either way the bytes
  /// written are identical.
  int64_t split_buffer_records = 4096;
  /// When set, every builder thread binds to this recorder and emits
  /// per-level E/W/S + wait spans (util/trace.h). The recorder must outlive
  /// the build; null (the default) disables tracing -- the builders then pay
  /// one thread_local load per span. Not owned.
  TraceRecorder* trace = nullptr;

  Status Validate() const;
};

/// Purity pre-test (paper section 3.2.2), the one rule every batch builder
/// applies to a new node: a node at `depth` holding `hist` is finalized as
/// a leaf, never evaluated for a split, when it is pure, holds fewer than
/// `min_split` tuples, or sits on the last level `max_levels` allows
/// (0 = unlimited).
bool FinalizedAsLeaf(const ClassHistogram& hist, int depth, int64_t min_split,
                     int max_levels);

/// Per-leaf state for the current tree level.
struct LeafTask {
  NodeId node = kInvalidNode;
  Segment seg;           ///< where this leaf's lists live (current set)
  ClassHistogram hist;   ///< class distribution of the leaf

  /// Filled during E: best candidate per attribute (index = attr).
  std::vector<SplitCandidate> candidates;

  /// Filled during W.
  SplitCandidate winner;
  NodeId child_node[2] = {kInvalidNode, kInvalidNode};
  bool child_active[2] = {false, false};  ///< false: finalized as leaf (or none)
  ClassHistogram child_hist[2];
  /// Filled by AssignChildSlots for active children.
  Segment child_seg[2];
};

/// The level-step engine. One instance per build (SUBTREE: per build, shared
/// by all groups; each group owns its own storage and leaf vectors).
class BuildContext {
 public:
  /// `tree` must be empty; `probe` is sized here. Storage is created inside
  /// (num_slots from the options/algorithm) unless a SUBTREE group supplies
  /// its own per-group storage to the per-call overloads.
  BuildContext(const Dataset& data, const BuildOptions& options,
               DecisionTree* tree, BuildCounters* counters);

  const Dataset& data() const { return *data_; }
  const BuildOptions& options() const { return options_; }
  DecisionTree* tree() { return tree_; }
  SplitProbe* probe() { return &probe_; }
  BuildCounters* counters() { return counters_; }
  /// The build's trace recorder, or null when tracing is off. Builder worker
  /// bodies pass it to a TraceThreadBinding.
  TraceRecorder* trace() { return options_.trace; }
  LevelStorage* storage() { return storage_.get(); }
  Env* env() { return env_; }
  const std::string& scratch_dir() const { return scratch_dir_; }

  /// Number of slot files per attribute for the configured algorithm
  /// (2 for serial/BASIC/SUBTREE groups, K for FWK/MWK).
  int num_slots() const;

  /// Creates the scratch dir + storage, loads the pre-sorted attribute
  /// lists (consuming them), creates the tree root, and returns the root
  /// LeafTask in `level`. Single-threaded.
  Status InitRoot(AttributeLists lists, std::vector<LeafTask>* level);

  /// E over one attribute for a contiguous run of leaves (BASIC-style
  /// scheduling unit). Safe concurrently for distinct attributes. The
  /// `storage` overloads serve SUBTREE groups with their own file sets.
  Status EvaluateAttrForLeaves(int attr, std::vector<LeafTask>* level,
                               size_t first_leaf, size_t leaf_limit,
                               GiniScratch* scratch, LevelStorage* storage);
  Status EvaluateAttrForLeaves(int attr, std::vector<LeafTask>* level,
                               size_t first_leaf, size_t leaf_limit,
                               GiniScratch* scratch) {
    return EvaluateAttrForLeaves(attr, level, first_leaf, leaf_limit, scratch,
                                 storage_.get());
  }

  /// E for one (leaf, attribute) pair (FWK/MWK scheduling unit). Safe
  /// concurrently for distinct (leaf, attr) pairs.
  Status EvaluateLeafAttr(LeafTask* leaf, int attr, GiniScratch* scratch,
                          LevelStorage* storage);
  Status EvaluateLeafAttr(LeafTask* leaf, int attr, GiniScratch* scratch) {
    return EvaluateLeafAttr(leaf, attr, scratch, storage_.get());
  }

  /// W for one leaf: requires all its candidates filled (happens-before via
  /// the caller's synchronization). Safe concurrently for distinct leaves.
  /// Uses `storage` (the group's own for SUBTREE) to read the winner list.
  Status RunW(LeafTask* leaf, LevelStorage* storage);
  Status RunW(LeafTask* leaf) { return RunW(leaf, storage_.get()); }

  /// Assigns slots/offsets to active children of the whole level in
  /// relabelled order. Single-threaded (between W and S).
  void AssignChildSlots(std::vector<LeafTask>* level, int num_slots) const;

  /// S over one attribute for all leaves of the level, in order. Safe
  /// concurrently for distinct attributes. Flushes the attribute's
  /// alternate files at the end.
  Status SplitAttribute(int attr, const std::vector<LeafTask>& level,
                        LevelStorage* storage);
  Status SplitAttribute(int attr, const std::vector<LeafTask>& level) {
    return SplitAttribute(attr, level, storage_.get());
  }

  /// Collects the next level's LeafTasks (active children, in relabelled
  /// order) and accumulates the processed level into the trace. Called once
  /// per level per (group-)master; safe across concurrent SUBTREE groups.
  std::vector<LeafTask> CollectNextLevel(const std::vector<LeafTask>& level);

  /// Frontier shape per depth, aggregated across SUBTREE groups; sorted by
  /// level. Call after the build completes.
  std::vector<LevelTraceEntry> LevelTrace() const;

  /// Levels grown so far (for max_levels enforcement and stats).
  int levels_built() const { return levels_built_; }
  void set_levels_built(int levels) { levels_built_ = levels; }

 private:
  // lint: unguarded(set at construction; read-only while the team runs)
  const Dataset* data_;
  // lint: unguarded(set at construction; read-only while the team runs)
  BuildOptions options_;
  // lint: unguarded(growth serializes on the tree's own grow_mutex_)
  DecisionTree* tree_;
  // lint: unguarded(BuildCounters is all-atomic)
  BuildCounters* counters_;
  // lint: unguarded(set at construction; read-only while the team runs)
  Env* env_;
  // lint: unguarded(set at construction; read-only while the team runs)
  std::unique_ptr<Env> owned_env_;  // when options.env == nullptr
  // lint: unguarded(set at construction; read-only while the team runs)
  std::string scratch_dir_;
  // Level-phase contract: mutated only between team barriers;
  // SharedExclusiveCheck asserts the quiescence in debug builds.
  // lint: unguarded(mutated only between team barriers, debug-checked)
  std::unique_ptr<LevelStorage> storage_;
  // W writes distinct tids; S reads only leaves whose W completed this
  // level (see probe.h).
  // lint: unguarded(per-tid W ownership; S reads post-W leaves only)
  SplitProbe probe_;
  // lint: unguarded(written between levels by the coordinator only)
  int levels_built_ = 0;

  mutable Mutex trace_mutex_;
  std::map<int, LevelTraceEntry> trace_ GUARDED_BY(trace_mutex_);  // by depth
};

/// Picks a unique scratch directory for a build ("<base>/smptree-<n>").
std::string MakeScratchDir(Env* env, const std::string& requested);

}  // namespace smptree

#endif  // SMPTREE_CORE_BUILDER_CONTEXT_H_
