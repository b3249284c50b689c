#include "stream/hoeffding_builder.h"

#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace smptree {

HoeffdingTreeBuilder::HoeffdingTreeBuilder(const Schema& schema,
                                           HoeffdingOptions options)
    : schema_(schema), options_(std::move(options)), tree_(schema) {}

Status HoeffdingTreeBuilder::Init() {
  if (initialized_) return Status::InvalidArgument("Init called twice");
  if (options_.delta <= 0.0 || options_.delta >= 1.0) {
    return Status::InvalidArgument("delta outside (0, 1)");
  }
  if (options_.tau < 0.0) {
    return Status::InvalidArgument("negative tau");
  }
  if (options_.grace_period < 1) {
    return Status::InvalidArgument("grace_period must be >= 1");
  }
  if (options_.warmup_tuples < 0) {
    return Status::InvalidArgument("negative warmup_tuples");
  }
  SketchQuantizer::Options sketch_options;
  sketch_options.max_bins = options_.max_bins;
  sketch_options.reservoir_size = options_.reservoir_size;
  sketch_options.seed = options_.seed;
  SMPTREE_RETURN_IF_ERROR(sketch_.Init(schema_, sketch_options));

  tree_.CreateRoot(ClassHistogram(schema_.num_classes()));
  warmup_ = StreamBatch(schema_);
  initialized_ = true;
  const int root_slot = NewLeafSlot(tree_.root());
  (void)root_slot;
  if (options_.warmup_tuples == 0) {
    SMPTREE_RETURN_IF_ERROR(FreezeAndReplay());
  }
  return Status::OK();
}

Status HoeffdingTreeBuilder::Ingest(const StreamBatch& batch) {
  if (!initialized_) {
    return Status::InvalidArgument("Ingest before Init");
  }
  if (batch.num_attrs() != schema_.num_attrs()) {
    return Status::InvalidArgument(StringPrintf(
        "batch has %d attrs, schema has %d attrs", batch.num_attrs(),
        schema_.num_attrs()));
  }
  // The whole batch is checked before any tuple changes state.
  SMPTREE_RETURN_IF_ERROR(batch.Validate(schema_));
  const ColumnBlock& block = batch.block();
  for (int64_t t = 0; t < batch.num_tuples(); ++t) {
    const ClassLabel label = batch.label(t);
    if (!sketch_.frozen()) {
      sketch_.Observe(block, t);
      warmup_.AppendRange(batch, t, t + 1);
      counters_.tuples.fetch_add(1, std::memory_order_relaxed);
      if (sketch_.observed() >= options_.warmup_tuples) {
        SMPTREE_RETURN_IF_ERROR(FreezeAndReplay());
      }
    } else {
      SMPTREE_RETURN_IF_ERROR(Route(block, t, label));
      counters_.tuples.fetch_add(1, std::memory_order_relaxed);
    }

    if (options_.snapshot_every > 0 && options_.publish) {
      const int64_t n = counters_.tuples.load(std::memory_order_relaxed);
      if (n % options_.snapshot_every == 0) {
        SMPTREE_RETURN_IF_ERROR(Publish());
      }
    }
  }
  return Status::OK();
}

Status HoeffdingTreeBuilder::FreezeAndReplay() {
  SMPTREE_RETURN_IF_ERROR(sketch_.Freeze());
  counters_.sketch_bytes.store(sketch_.MemoryBytes(),
                               std::memory_order_relaxed);
  counters_.frozen.store(true, std::memory_order_relaxed);
  // Size the histograms of the leaves that already exist (just the root
  // unless warmup was zero-length).
  uint64_t active_bytes = 0;
  for (StreamLeaf& leaf : leaves_) {
    if (leaf.node == kInvalidNode || !leaf.active) continue;
    leaf.bins.Reset(quantizer().total_bins(), schema_.num_classes());
    active_bytes += LeafBytes();
  }
  counters_.histogram_bytes.store(active_bytes, std::memory_order_relaxed);

  for (int64_t t = 0; t < warmup_.num_tuples(); ++t) {
    SMPTREE_RETURN_IF_ERROR(Route(warmup_.block(), t, warmup_.label(t)));
  }
  warmup_ = StreamBatch();
  return Status::OK();
}

Status HoeffdingTreeBuilder::Route(const ColumnBlock& block, int64_t tuple,
                                   ClassLabel label) {
  block.GatherRow(tuple, &row_);  // one gather, then contiguous reads
  NodeId id = tree_.root();
  while (true) {
    TreeNode& nd = tree_.mutable_node(id);
    ++nd.class_counts[label];
    if (nd.is_leaf()) break;
    id = nd.split.GoesLeft(row_[nd.split.attr]) ? nd.left : nd.right;
  }
  TreeNode& nd = tree_.mutable_node(id);
  nd.majority = MajorityLabel(nd.class_counts);

  const int32_t slot = static_cast<size_t>(id) < slot_of_node_.size()
                           ? slot_of_node_[static_cast<size_t>(id)]
                           : -1;
  if (slot < 0) {
    return Status::Internal(
        StringPrintf("leaf node %d has no stream slot", id));
  }
  StreamLeaf& leaf = leaves_[static_cast<size_t>(slot)];
  leaf.hist.Add(label);
  if (!leaf.active) return Status::OK();

  const Quantizer& layout = quantizer();
  const int num_attrs = schema_.num_attrs();
  for (int a = 0; a < num_attrs; ++a) {
    leaf.bins.Add(layout.offset(a) + layout.BinOf(a, row_[a]), label);
  }
  if (++leaf.since_eval >= options_.grace_period) {
    return TrySplit(slot);
  }
  return Status::OK();
}

Status HoeffdingTreeBuilder::TrySplit(int slot) {
  StreamLeaf& leaf = leaves_[static_cast<size_t>(slot)];
  leaf.since_eval = 0;
  const int64_t n = leaf.hist.Total();
  if (n < 2 || leaf.hist.IsPure()) return Status::OK();

  SplitCandidate best;
  SplitCandidate second;
  int best_bin = -1;
  const int num_attrs = schema_.num_attrs();
  for (int a = 0; a < num_attrs; ++a) {
    SplitCandidate candidate;
    int bin = -1;
    EvaluateBinnedAttr(quantizer(), leaf.bins, leaf.hist, n, a,
                       options_.gini, &scratch_, &candidate, &bin);
    if (candidate.BetterThan(best)) {
      second = best;
      best = candidate;
      best_bin = bin;
    } else if (candidate.BetterThan(second)) {
      second = candidate;
    }
  }
  if (!best.valid()) return Status::OK();

  const double g0 = Impurity(leaf.hist, options_.gini.criterion);
  const double gain = g0 - best.gini;
  if (gain <= 1e-12) return Status::OK();

  // Hoeffding bound on the impurity-difference estimate after n samples.
  const int num_classes = schema_.num_classes();
  const double range =
      options_.gini.criterion == SplitCriterion::kEntropy
          ? std::log2(static_cast<double>(num_classes))
          : 1.0;
  const double epsilon =
      range * std::sqrt(std::log(1.0 / options_.delta) /
                        (2.0 * static_cast<double>(n)));
  const double gap = second.valid() ? second.gini - best.gini : gain;
  if (gap > epsilon || epsilon < options_.tau) {
    return DoSplit(slot, best, best_bin);
  }
  return Status::OK();
}

Status HoeffdingTreeBuilder::DoSplit(int slot, const SplitCandidate& best,
                                     int best_bin) {
  const int num_classes = schema_.num_classes();

  // Observed partition of this leaf's tuples, from the winner's bin rows.
  // `leaf` stays valid until NewLeafSlot may grow leaves_.
  StreamLeaf& leaf = leaves_[static_cast<size_t>(slot)];
  const NodeId node = leaf.node;
  ClassHistogram obs_left;
  ClassHistogram obs_right;
  SMPTREE_RETURN_IF_ERROR(PartitionBinnedSplit(quantizer(), leaf.bins,
                                               leaf.hist, best, best_bin,
                                               &obs_left, &obs_right));

  // Partition the node's full counts (observed + created-with) exactly:
  // created-with counts follow the observed ratio per class, and the right
  // child takes the remainder, so parent == left + right class by class --
  // the invariant DecisionTree::Validate() checks on every snapshot.
  ClassHistogram left_counts(num_classes);
  ClassHistogram right_counts(num_classes);
  {
    const TreeNode& nd = tree_.node(node);
    for (int c = 0; c < num_classes; ++c) {
      const int64_t total = nd.class_counts[static_cast<size_t>(c)];
      const int64_t observed = leaf.hist.count(c);
      const int64_t created = total - observed;
      const int64_t o0 = obs_left.count(c);
      const int64_t c0 = observed > 0 ? created * o0 / observed : created / 2;
      left_counts.Add(static_cast<ClassLabel>(c), o0 + c0);
      right_counts.Add(static_cast<ClassLabel>(c), total - (o0 + c0));
    }
  }

  tree_.SetSplit(node, best.test);
  const NodeId left_child = tree_.AddChild(node, true, left_counts);
  const NodeId right_child = tree_.AddChild(node, false, right_counts);

  // Retire the parent's slot (its histogram storage is recycled by the
  // children via the free list) and open two fresh leaves.
  leaf.node = kInvalidNode;
  leaf.hist.Clear();
  leaf.since_eval = 0;
  counters_.active_leaves.fetch_sub(1, std::memory_order_relaxed);
  counters_.histogram_bytes.fetch_sub(LeafBytes(), std::memory_order_relaxed);
  slot_of_node_[static_cast<size_t>(node)] = -1;
  free_slots_.push_back(slot);
  (void)NewLeafSlot(left_child);
  (void)NewLeafSlot(right_child);

  counters_.splits.fetch_add(1, std::memory_order_relaxed);
  EnforceBudget();
  return Status::OK();
}

int HoeffdingTreeBuilder::NewLeafSlot(NodeId node) {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(leaves_.size());
    leaves_.emplace_back();
  }
  StreamLeaf& leaf = leaves_[static_cast<size_t>(slot)];
  leaf.node = node;
  leaf.hist.Reset(schema_.num_classes());
  leaf.since_eval = 0;
  leaf.active = true;
  if (sketch_.frozen()) {
    leaf.bins.Reset(quantizer().total_bins(), schema_.num_classes());
    counters_.histogram_bytes.fetch_add(LeafBytes(),
                                        std::memory_order_relaxed);
  }
  if (static_cast<size_t>(node) >= slot_of_node_.size()) {
    slot_of_node_.resize(static_cast<size_t>(tree_.num_nodes()), -1);
  }
  slot_of_node_[static_cast<size_t>(node)] = slot;
  counters_.active_leaves.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void HoeffdingTreeBuilder::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return;
  const uint64_t leaf_bytes = LeafBytes();
  if (leaf_bytes == 0) return;
  while (counters_.histogram_bytes.load(std::memory_order_relaxed) >
         options_.memory_budget_bytes) {
    // Deactivate the least promising active leaf: few observed tuples or
    // nearly pure means a split is far away, so its histogram earns the
    // least. Always keep at least one leaf splittable.
    int victim = -1;
    double victim_promise = 0.0;
    int active = 0;
    for (size_t i = 0; i < leaves_.size(); ++i) {
      const StreamLeaf& leaf = leaves_[i];
      if (leaf.node == kInvalidNode || !leaf.active) continue;
      ++active;
      const double promise =
          static_cast<double>(leaf.hist.Total()) *
          Impurity(leaf.hist, options_.gini.criterion);
      if (victim < 0 || promise < victim_promise) {
        victim = static_cast<int>(i);
        victim_promise = promise;
      }
    }
    if (active <= 1 || victim < 0) break;
    StreamLeaf& leaf = leaves_[static_cast<size_t>(victim)];
    leaf.active = false;
    leaf.bins = LeafHistogram();
    counters_.active_leaves.fetch_sub(1, std::memory_order_relaxed);
    counters_.deactivated_leaves.fetch_add(1, std::memory_order_relaxed);
    counters_.histogram_bytes.fetch_sub(leaf_bytes,
                                        std::memory_order_relaxed);
  }
}

uint64_t HoeffdingTreeBuilder::LeafBytes() const {
  return static_cast<uint64_t>(quantizer().total_bins()) *
         static_cast<uint64_t>(schema_.num_classes()) * sizeof(int64_t);
}

Status HoeffdingTreeBuilder::Finish() {
  if (!initialized_) {
    return Status::InvalidArgument("Finish before Init");
  }
  if (!sketch_.frozen()) {
    SMPTREE_RETURN_IF_ERROR(FreezeAndReplay());
  }
  return Publish();
}

DecisionTree HoeffdingTreeBuilder::Snapshot() const { return tree_.Clone(); }

Status HoeffdingTreeBuilder::Publish() {
  if (!options_.publish) return Status::OK();
  SMPTREE_RETURN_IF_ERROR(options_.publish(
      Snapshot(), counters_.tuples.load(std::memory_order_relaxed)));
  counters_.snapshots.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

StreamStats HoeffdingTreeBuilder::Stats() const {
  StreamStats s;
  s.tuples = counters_.tuples.load(std::memory_order_relaxed);
  s.splits = counters_.splits.load(std::memory_order_relaxed);
  s.active_leaves = counters_.active_leaves.load(std::memory_order_relaxed);
  s.deactivated_leaves =
      counters_.deactivated_leaves.load(std::memory_order_relaxed);
  s.snapshots = counters_.snapshots.load(std::memory_order_relaxed);
  s.nodes = tree_.num_nodes();
  s.sketch_bytes = counters_.sketch_bytes.load(std::memory_order_relaxed);
  s.histogram_bytes =
      counters_.histogram_bytes.load(std::memory_order_relaxed);
  s.frozen = counters_.frozen.load(std::memory_order_relaxed);
  return s;
}

std::string HoeffdingTreeBuilder::StatsJson() const {
  const StreamStats s = Stats();
  return StringPrintf(
      "{\"tuples\": %lld, \"splits\": %lld, \"active_leaves\": %lld, "
      "\"deactivated_leaves\": %lld, \"snapshots\": %lld, \"nodes\": %lld, "
      "\"sketch_bytes\": %llu, \"histogram_bytes\": %llu, \"frozen\": %s}",
      static_cast<long long>(s.tuples), static_cast<long long>(s.splits),
      static_cast<long long>(s.active_leaves),
      static_cast<long long>(s.deactivated_leaves),
      static_cast<long long>(s.snapshots), static_cast<long long>(s.nodes),
      static_cast<unsigned long long>(s.sketch_bytes),
      static_cast<unsigned long long>(s.histogram_bytes),
      s.frozen ? "true" : "false");
}

}  // namespace smptree
