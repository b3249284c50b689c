#include "core/builder_context.h"

#include <atomic>
#include <cassert>
#include <filesystem>
#include <limits>
#include <span>
#include <vector>

#include "util/random.h"
#include "util/string_util.h"

namespace smptree {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSerial:
      return "SERIAL";
    case Algorithm::kBasic:
      return "BASIC";
    case Algorithm::kFwk:
      return "FWK";
    case Algorithm::kMwk:
      return "MWK";
    case Algorithm::kSubtree:
      return "SUBTREE";
    case Algorithm::kRecordParallel:
      return "REC";
  }
  return "?";
}

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kSorted:
      return "sorted";
    case Engine::kBinned:
      return "binned";
  }
  return "?";
}

bool FeatureSampling::Allows(NodeId node, int attr, int num_attrs) const {
  if (!active(num_attrs)) return true;
  // Partial Fisher-Yates over the attribute indices, seeded per node:
  // the first features_per_node positions after k swap steps are the
  // node's sampled subset. O(num_attrs) per query, trivial next to the
  // record scan the E phase performs when the attribute is kept.
  Random rng(seed ^ (0x9E3779B97F4A7C15ull +
                     static_cast<uint64_t>(node) * 0xBF58476D1CE4E5B9ull));
  // Attribute counts are bounded by the schema (small); a stack-friendly
  // vector keeps this allocation-free in practice via SSO-sized sizes.
  std::vector<int> idx(static_cast<size_t>(num_attrs));
  for (int i = 0; i < num_attrs; ++i) idx[static_cast<size_t>(i)] = i;
  for (int i = 0; i < features_per_node; ++i) {
    const int j = i + static_cast<int>(rng.Uniform(
                          static_cast<uint64_t>(num_attrs - i)));
    std::swap(idx[static_cast<size_t>(i)], idx[static_cast<size_t>(j)]);
    if (idx[static_cast<size_t>(i)] == attr) return true;
  }
  return false;
}

Status BuildOptions::Validate() const {
  if (num_threads < 1) return Status::InvalidArgument("num_threads < 1");
  if (feature_sampling.features_per_node < 0) {
    return Status::InvalidArgument("features_per_node < 0");
  }
  if (feature_sampling.features_per_node > 0 &&
      algorithm == Algorithm::kRecordParallel) {
    // The record-parallel ablation evaluates attributes through its own
    // replicated-statistics path, not the EvaluateLeafAttr gate; rejecting
    // beats silently ignoring the option.
    return Status::InvalidArgument(
        "feature subsampling is not supported by the record-parallel "
        "ablation");
  }
  if (window < 1) return Status::InvalidArgument("window < 1");
  if (max_bins < 2 || max_bins > 256) {
    // Bins are uint8_t codes in the materialized matrix; 2 is the smallest
    // budget that admits any split.
    return Status::InvalidArgument("max_bins outside [2,256]");
  }
  if (min_split < 1) return Status::InvalidArgument("min_split < 1");
  if (max_levels < 0) return Status::InvalidArgument("max_levels < 0");
  if (sort_threads < 1) return Status::InvalidArgument("sort_threads < 1");
  if (split_buffer_records < 0) {
    return Status::InvalidArgument("split_buffer_records < 0");
  }
  if (gini.max_exhaustive_cardinality < 1 ||
      gini.max_exhaustive_cardinality > 20) {
    return Status::InvalidArgument(
        "max_exhaustive_cardinality outside [1,20]");
  }
  if (subtree_subroutine != Algorithm::kBasic &&
      subtree_subroutine != Algorithm::kMwk) {
    return Status::InvalidArgument(
        "subtree_subroutine must be BASIC or MWK");
  }
  return Status::OK();
}

bool FinalizedAsLeaf(const ClassHistogram& hist, int depth, int64_t min_split,
                     int max_levels) {
  return hist.IsPure() || hist.Total() < min_split ||
         (max_levels > 0 && depth >= max_levels - 1);
}

std::string MakeScratchDir(Env* env, const std::string& requested) {
  static std::atomic<uint64_t> counter{0};
  // Relaxed RMW: the counter only allocates unique suffixes; it publishes
  // no data, so no ordering is needed.
  const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  std::string base = requested;
  if (base.empty()) {
    if (env->Name() == "posix") {
      base = std::filesystem::temp_directory_path().string();
    } else {
      base = "/scratch";
    }
  }
  return base + StringPrintf("/smptree-%d-%llu", ::getpid(),
                             static_cast<unsigned long long>(id));
}

BuildContext::BuildContext(const Dataset& data, const BuildOptions& options,
                           DecisionTree* tree, BuildCounters* counters)
    : data_(&data), options_(options), tree_(tree), counters_(counters) {
  if (options_.env != nullptr) {
    env_ = options_.env;
  } else {
    owned_env_ = Env::NewMem();
    env_ = owned_env_.get();
  }
}

int BuildContext::num_slots() const {
  switch (options_.algorithm) {
    case Algorithm::kFwk:
    case Algorithm::kMwk:
      return options_.window;
    case Algorithm::kSubtree:
      // Groups running the MWK subroutine need K slot files per attribute,
      // exactly like standalone MWK; the BASIC subroutine uses the paper's
      // four-files-per-attribute scheme.
      return options_.subtree_subroutine == Algorithm::kMwk ? options_.window
                                                            : 2;
    default:
      // Serial SPRINT, BASIC and the record-parallel ablation use the
      // paper's four files per attribute: two current slots (left/right
      // children) plus two alternates.
      return 2;
  }
}

Status BuildContext::InitRoot(AttributeLists lists,
                              std::vector<LeafTask>* level) {
  const int num_attrs = data_->num_attrs();
  if (static_cast<int>(lists.lists.size()) != num_attrs) {
    return Status::InvalidArgument("attribute list arity mismatch");
  }
  for (int a = 0; a < num_attrs; ++a) {
    const AttrInfo& info = data_->schema().attr(a);
    if (info.is_categorical() &&
        info.cardinality > kMaxCategoricalCardinality) {
      return Status::NotSupported(StringPrintf(
          "categorical attribute '%s' has cardinality %d > %d",
          info.name.c_str(), info.cardinality, kMaxCategoricalCardinality));
    }
  }

  scratch_dir_ = MakeScratchDir(env_, options_.scratch_dir);
  SMPTREE_RETURN_IF_ERROR(LevelStorage::Create(
      env_, scratch_dir_, "attr", num_attrs, num_slots(), &storage_));

  const int64_t n = data_->num_tuples();
  for (int a = 0; a < num_attrs; ++a) {
    SMPTREE_RETURN_IF_ERROR(storage_->AppendRoot(a, lists.lists[a]));
    lists.lists[a].clear();
    lists.lists[a].shrink_to_fit();  // lists are large; free as we go
  }
  SMPTREE_RETURN_IF_ERROR(storage_->FinishRootLoad());

  probe_.Reset(static_cast<size_t>(n));

  ClassHistogram root_hist(data_->num_classes());
  for (ClassLabel l : data_->labels()) root_hist.Add(l);
  tree_->CreateRoot(root_hist);
  levels_built_ = 1;

  level->clear();
  if (!FinalizedAsLeaf(root_hist, 0, options_.min_split,
                       options_.max_levels)) {
    LeafTask root;
    root.node = tree_->root();
    root.seg = Segment{0, 0, static_cast<uint64_t>(n)};
    root.hist = root_hist;
    root.candidates.resize(num_attrs);
    level->push_back(std::move(root));
  }
  return Status::OK();
}

Status BuildContext::EvaluateLeafAttr(LeafTask* leaf, int attr,
                                      GiniScratch* scratch,
                                      LevelStorage* storage) {
  PhaseTimer phase(counters_, BuildPhase::kEvaluate);
  if (!options_.feature_sampling.Allows(leaf->node, attr,
                                        data_->num_attrs())) {
    // Attribute not in this node's sampled subset: no candidate. RunW
    // already treats an invalid candidate as "this attribute offers no
    // split", so every builder inherits subsampling through this one gate.
    leaf->candidates[attr] = SplitCandidate();
    return Status::OK();
  }
  SegmentBuffer buf;
  SMPTREE_RETURN_IF_ERROR(storage->ReadSegment(attr, leaf->seg, &buf));
  leaf->candidates[attr] = EvaluateAttr(data_->schema(), attr, buf.records(),
                                        leaf->hist, options_.gini, scratch);
  counters_->records_scanned.fetch_add(leaf->seg.count,
                                       std::memory_order_relaxed);
  counters_->attr_tasks.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BuildContext::EvaluateAttrForLeaves(int attr,
                                           std::vector<LeafTask>* level,
                                           size_t first_leaf,
                                           size_t leaf_limit,
                                           GiniScratch* scratch,
                                           LevelStorage* storage) {
  for (size_t i = first_leaf; i < leaf_limit; ++i) {
    SMPTREE_RETURN_IF_ERROR(
        EvaluateLeafAttr(&(*level)[i], attr, scratch, storage));
  }
  return Status::OK();
}

Status BuildContext::RunW(LeafTask* leaf, LevelStorage* storage) {
  PhaseTimer phase(counters_, BuildPhase::kWinner);
  // Reduce the per-attribute candidates to the global winner for this leaf.
  SplitCandidate best;
  for (const SplitCandidate& c : leaf->candidates) {
    if (c.BetterThan(best)) best = c;
  }
  leaf->winner = best;
  leaf->child_active[0] = leaf->child_active[1] = false;
  if (!best.valid()) {
    // No attribute offers a proper split (e.g. all values identical while
    // classes are mixed): the node stays a majority-class leaf.
    return Status::OK();
  }

  tree_->SetSplit(leaf->node, best.test);

  // Scan the winning attribute's list: route every tid through the probe
  // and tally the children's class distributions (this doubles as the
  // paper's purity pre-test input).
  leaf->child_hist[0].Reset(data_->num_classes());
  leaf->child_hist[1].Reset(data_->num_classes());
  SegmentBuffer buf;
  SMPTREE_RETURN_IF_ERROR(
      storage->ReadSegment(best.test.attr, leaf->seg, &buf));
  for (const AttrRecord& rec : buf.records()) {
    const bool left = best.test.GoesLeft(rec.value);
    probe_.Route(rec.tid, left);
    leaf->child_hist[left ? 0 : 1].Add(rec.label);
  }
  counters_->records_scanned.fetch_add(leaf->seg.count,
                                       std::memory_order_relaxed);

  if (leaf->child_hist[0].Total() != best.left_count ||
      leaf->child_hist[1].Total() != best.right_count) {
    return Status::Corruption(StringPrintf(
        "winner split of node %d routed %lld/%lld records, expected %lld/%lld",
        leaf->node, static_cast<long long>(leaf->child_hist[0].Total()),
        static_cast<long long>(leaf->child_hist[1].Total()),
        static_cast<long long>(best.left_count),
        static_cast<long long>(best.right_count)));
  }

  const int child_depth = tree_->node(leaf->node).depth + 1;
  for (int side = 0; side < 2; ++side) {
    const ClassHistogram& h = leaf->child_hist[side];
    leaf->child_node[side] = tree_->AddChild(leaf->node, side == 0, h);
    // Finalized children never get slot files, keeping the K-slot
    // schedule hole-free after relabelling.
    leaf->child_active[side] = !FinalizedAsLeaf(
        h, child_depth, options_.min_split, options_.max_levels);
  }
  return Status::OK();
}

void BuildContext::AssignChildSlots(std::vector<LeafTask>* level,
                                    int num_slots) const {
  std::vector<uint64_t> totals(num_slots, 0);
  int64_t next_index = 0;
  for (LeafTask& leaf : *level) {
    for (int side = 0; side < 2; ++side) {
      if (leaf.child_node[side] == kInvalidNode) continue;
      if (!leaf.child_active[side]) {
        if (!options_.relabel_children) ++next_index;  // leave the hole
        continue;
      }
      const int slot = static_cast<int>(next_index % num_slots);
      leaf.child_seg[side] =
          Segment{slot, totals[slot],
                  static_cast<uint64_t>(leaf.child_hist[side].Total())};
      totals[slot] += leaf.child_seg[side].count;
      ++next_index;
    }
  }
}

Status BuildContext::SplitAttribute(int attr,
                                    const std::vector<LeafTask>& level,
                                    LevelStorage* storage) {
  PhaseTimer phase(counters_, BuildPhase::kSplit);
  const bool any_appends = [&] {
    for (const LeafTask& leaf : level) {
      if (leaf.child_active[0] || leaf.child_active[1]) return true;
    }
    return false;
  }();
  uint64_t moved = 0;
  // Probe lookups hit effectively random bit-vector words (tids arrive in
  // attribute-value order), so the loop prefetches the probe word this many
  // records ahead of the lookup it pairs with.
  constexpr size_t kProbePrefetchDistance = 16;
  const size_t buffer_cap =
      options_.split_buffer_records > 0
          ? static_cast<size_t>(options_.split_buffer_records)
          : std::numeric_limits<size_t>::max();
  SegmentBuffer buf;
  std::vector<AttrRecord> batch[2];
  for (const LeafTask& leaf : level) {
    if (!leaf.child_active[0] && !leaf.child_active[1]) {
      continue;  // all children finalized (or none): records are dropped
    }
    SMPTREE_RETURN_IF_ERROR(storage->ReadSegment(attr, leaf.seg, &buf));
    const bool is_winner_attr = leaf.winner.test.attr == attr;
    // Children's records are buffered per side and streamed into the
    // alternate files in bounded runs. Segments must stay contiguous: when
    // both children share a slot file (window K=1, or holes in the
    // no-relabel ablation) the left child's run must fully precede the
    // right child's -- matching AssignChildSlots order -- so only the left
    // buffer may drain mid-leaf there; the right side then buffers in full.
    const bool shared_slot = leaf.child_active[0] && leaf.child_active[1] &&
                             leaf.child_seg[0].slot == leaf.child_seg[1].slot;
    const bool may_stream[2] = {true, !shared_slot};
    batch[0].clear();
    batch[1].clear();
    const std::span<const AttrRecord> records = buf.records();
    for (size_t i = 0; i < records.size(); ++i) {
      if (!is_winner_attr && i + kProbePrefetchDistance < records.size()) {
        probe_.Prefetch(records[i + kProbePrefetchDistance].tid);
      }
      const AttrRecord& rec = records[i];
      // The winning attribute is partitioned by applying the split test
      // directly (paper section 2.3); the losing attributes consult the
      // probe structure on the tid.
      const bool left = is_winner_attr ? leaf.winner.test.GoesLeft(rec.value)
                                       : probe_.GoesLeft(rec.tid);
      const int side = left ? 0 : 1;
      if (!leaf.child_active[side]) continue;
      batch[side].push_back(rec);
      if (batch[side].size() >= buffer_cap && may_stream[side]) {
        SMPTREE_RETURN_IF_ERROR(storage->AppendChild(
            attr, leaf.child_seg[side].slot, batch[side]));
        moved += batch[side].size();
        batch[side].clear();
      }
    }
    for (int side = 0; side < 2; ++side) {
      if (batch[side].empty()) continue;
      SMPTREE_RETURN_IF_ERROR(storage->AppendChild(
          attr, leaf.child_seg[side].slot, batch[side]));
      moved += batch[side].size();
    }
  }
  counters_->records_split.fetch_add(moved, std::memory_order_relaxed);
  if (any_appends) {
    SMPTREE_RETURN_IF_ERROR(storage->FlushAlternate(attr));
  }
  return Status::OK();
}

std::vector<LeafTask> BuildContext::CollectNextLevel(
    const std::vector<LeafTask>& level) {
  if (!level.empty()) {
    const int depth = tree_->node(level.front().node).depth;
    int64_t records = 0;
    for (const LeafTask& leaf : level) {
      records += static_cast<int64_t>(leaf.seg.count);
    }
    MutexLock lock(trace_mutex_);
    LevelTraceEntry& entry = trace_[depth];
    entry.level = depth;
    entry.leaves += static_cast<int64_t>(level.size());
    entry.records += records;
  }
  std::vector<LeafTask> next;
  for (const LeafTask& leaf : level) {
    for (int side = 0; side < 2; ++side) {
      if (!leaf.child_active[side]) continue;
      LeafTask task;
      task.node = leaf.child_node[side];
      task.seg = leaf.child_seg[side];
      task.hist = leaf.child_hist[side];
      task.candidates.resize(data_->num_attrs());
      next.push_back(std::move(task));
    }
  }
  return next;
}

std::vector<LevelTraceEntry> BuildContext::LevelTrace() const {
  MutexLock lock(trace_mutex_);
  std::vector<LevelTraceEntry> out;
  out.reserve(trace_.size());
  for (const auto& [depth, entry] : trace_) out.push_back(entry);
  return out;
}

}  // namespace smptree
