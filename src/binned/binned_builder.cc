#include "binned/binned_builder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "binned/leaf_histogram.h"
#include "core/gini.h"
#include "core/histogram.h"
#include "core/split.h"
#include "parallel/level_engine.h"
#include "parallel/scheduler.h"
#include "util/barrier.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace smptree {

namespace {

/// Records per H/S scheduling chunk: big enough that the per-chunk gather of
/// leaf slots and labels amortizes, small enough to balance across threads.
constexpr int64_t kChunkRecords = 8192;

/// Per-thread local-histogram budget in int64 counts (~16 MiB per thread).
/// Levels whose scan leaves exceed it are histogrammed in multiple batches;
/// each extra batch pays one more pass over the bin matrix, so the budget
/// only matters for frontiers with thousands of leaves.
constexpr int64_t kLocalCountBudget = int64_t{1} << 21;

/// Per-leaf state for one frontier level.
struct BinnedLeaf {
  NodeId node = kInvalidNode;
  ClassHistogram hist;  ///< class distribution of the leaf
  LeafHistogram bins;   ///< (bin x class) counts, filled during H
  int64_t count = 0;
  /// Histogram provenance: scan leaves accumulate from the bin matrix;
  /// subtract leaves derive bins = prev[parent].bins - frontier[sibling].bins
  /// (always the larger sibling of a split, so scans cover the smaller half).
  bool scan = true;
  int parent = -1;   ///< index into the previous level's frontier
  int sibling = -1;  ///< index of the scanning sibling in this frontier

  std::vector<SplitCandidate> candidates;  ///< per attr, filled during E
  /// Continuous boundary index backing candidates[attr] (-1 for categorical
  /// or no candidate): left iff bin <= candidate_bins[attr].
  std::vector<int> candidate_bins;

  /// Filled during W.
  SplitCandidate winner;
  int winner_bin = -1;
  NodeId child_node[2] = {kInvalidNode, kInvalidNode};
  int child_frontier[2] = {-1, -1};  ///< next-frontier index; -1 = finalized
};

/// Histogram integrity check: every attribute's bin rows must sum to the
/// leaf's class distribution. Catches scan/reduce races and subtraction
/// drift the way RunW's routed-count check catches probe drift.
Status VerifyLeafBins(const Quantizer& quantizer, const BinnedLeaf& leaf) {
  const int num_classes = leaf.hist.num_classes();
  for (int a = 0; a < quantizer.num_attrs(); ++a) {
    const int off = quantizer.offset(a);
    const int nbins = quantizer.num_bins(a);
    for (int c = 0; c < num_classes; ++c) {
      int64_t sum = 0;
      for (int b = 0; b < nbins; ++b) sum += leaf.bins.count(off + b, c);
      if (sum != leaf.hist.count(c)) {
        return Status::Corruption(StringPrintf(
            "node %d: attribute %d bins hold %lld class-%d tuples, leaf has "
            "%lld",
            leaf.node, a, static_cast<long long>(sum), c,
            static_cast<long long>(leaf.hist.count(c))));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status BuildTreeBinned(const Dataset& data, const Quantizer& quantizer,
                       const BinMatrix& bin_matrix,
                       std::span<const int32_t> weights,
                       const BuildOptions& options, DecisionTree* tree,
                       BuildCounters* counters,
                       std::vector<LevelTraceEntry>* level_trace) {
  const int num_attrs = data.num_attrs();
  const int num_classes = data.num_classes();
  const int64_t n = data.num_tuples();
  const int total_bins = quantizer.total_bins();
  const int threads = options.num_threads;
  if (quantizer.num_attrs() != num_attrs ||
      bin_matrix.num_attrs() != num_attrs || bin_matrix.num_tuples() != n) {
    return Status::InvalidArgument(
        "quantizer/bin matrix do not match the dataset");
  }
  const bool weighted = !weights.empty();
  if (weighted && static_cast<int64_t>(weights.size()) != n) {
    return Status::InvalidArgument(StringPrintf(
        "%zu row weights for %lld rows", weights.size(),
        static_cast<long long>(n)));
  }

  // Rows of weight 0 start outside the frontier (leaf_of = -1), so no
  // phase ever reads them again.
  const std::span<const ClassLabel> labels = data.labels();
  ClassHistogram root_hist(num_classes);
  std::vector<int32_t> leaf_of(static_cast<size_t>(n), 0);
  for (int64_t t = 0; t < n; ++t) {
    const int32_t w = weighted ? weights[static_cast<size_t>(t)] : 1;
    if (w < 0) {
      return Status::InvalidArgument(StringPrintf(
          "row %lld has negative weight %d", static_cast<long long>(t), w));
    }
    if (w == 0) leaf_of[static_cast<size_t>(t)] = -1;
    root_hist.Add(labels[static_cast<size_t>(t)], w);
  }
  tree->CreateRoot(root_hist);

  if (FinalizedAsLeaf(root_hist, 0, options.min_split, options.max_levels)) {
    return Status::OK();
  }

  // ---- level state, owned by the master between barriers ----------------
  // Everything below follows the BASIC builder's phase contract: the worker
  // lambda reads these vectors during a phase; only thread 0 mutates them,
  // and only between the barriers that delimit phases, so every write is
  // ordered before every cross-thread read by a barrier.
  std::vector<BinnedLeaf> frontier;
  std::vector<BinnedLeaf> prev;
  std::vector<BinnedLeaf> next;
  std::vector<std::vector<int>> scan_batches;  // frontier indices per batch
  std::vector<int> subtract_leaves;            // frontier indices
  std::vector<int> slot_of_frontier;  // frontier index -> batch slot or -1
  size_t num_batches = 0;
  std::vector<LeafHistogram> free_bins;  // recycled histogram storage

  const int64_t counts_per_leaf =
      static_cast<int64_t>(total_bins) * num_classes;
  const size_t max_batch = static_cast<size_t>(
      std::max<int64_t>(1, kLocalCountBudget / std::max<int64_t>(
                                                   1, counts_per_leaf)));
  const int64_t num_chunks = (n + kChunkRecords - 1) / kChunkRecords;

  // Plans the H phase of the current frontier: batches the scan leaves
  // under the local-histogram budget, lists the subtract leaves, maps batch
  // 0's slots, and arms every scheduler. Master-only, between barriers.
  const auto PlanBatch = [&](size_t batch) {
    slot_of_frontier.assign(frontier.size(), -1);
    const std::vector<int>& leaves = scan_batches[batch];
    for (size_t j = 0; j < leaves.size(); ++j) {
      slot_of_frontier[static_cast<size_t>(leaves[j])] = static_cast<int>(j);
    }
  };
  DynamicScheduler h_sched;
  DynamicScheduler r_sched;
  DynamicScheduler sub_sched;
  DynamicScheduler e_sched;
  DynamicScheduler s_sched;
  const auto PlanLevel = [&] {
    scan_batches.clear();
    subtract_leaves.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
      BinnedLeaf& leaf = frontier[i];
      if (!leaf.scan) {
        subtract_leaves.push_back(static_cast<int>(i));
        continue;
      }
      if (!free_bins.empty()) {  // donate pooled storage to the scan leaf
        leaf.bins = std::move(free_bins.back());
        free_bins.pop_back();
      }
      if (scan_batches.empty() || scan_batches.back().size() >= max_batch) {
        scan_batches.emplace_back();
      }
      scan_batches.back().push_back(static_cast<int>(i));
    }
    num_batches = scan_batches.size();
    if (num_batches > 0) PlanBatch(0);
    h_sched.Reset(num_chunks);
    r_sched.Reset(num_batches > 0
                      ? static_cast<int64_t>(scan_batches.front().size())
                      : 0);
    sub_sched.Reset(static_cast<int64_t>(subtract_leaves.size()));
    e_sched.Reset(static_cast<int64_t>(frontier.size()) * num_attrs);
    s_sched.Reset(num_chunks);
  };

  {
    BinnedLeaf root;
    root.node = tree->root();
    root.hist = root_hist;
    root.count = n;
    root.candidates.resize(static_cast<size_t>(num_attrs));
    root.candidate_bins.assign(static_cast<size_t>(num_attrs), -1);
    frontier.push_back(std::move(root));
  }
  PlanLevel();

  Barrier barrier(threads);
  ErrorSink sink;
  std::atomic<bool> done{false};
  std::vector<std::vector<LeafHistogram>> locals(
      static_cast<size_t>(threads));

  auto worker = [&](int tid) {
    TraceThreadBinding trace(options.trace, tid);
    GiniScratch scratch;
    // The rows of one chunk that belong to a scan leaf, packed: offset in
    // the chunk, batch slot, label and weight.
    std::vector<int32_t> row_buf(static_cast<size_t>(kChunkRecords));
    std::vector<int32_t> slot_buf(static_cast<size_t>(kChunkRecords));
    std::vector<ClassLabel> label_buf(static_cast<size_t>(kChunkRecords));
    std::vector<int32_t> weight_buf(static_cast<size_t>(kChunkRecords));
    std::vector<LeafHistogram>& local = locals[static_cast<size_t>(tid)];
    int level_no = 0;
    while (!done.load(std::memory_order_acquire)) {
      // H: per batch, scan record ranges into per-thread local histograms,
      // then reduce each scan leaf's locals behind a barrier.
      for (size_t b = 0; b < num_batches; ++b) {
        const std::vector<int>& batch = scan_batches[b];
        {
          PhaseTimer phase(counters, BuildPhase::kHistogram);
          TraceSpan span("H", "phase", level_no,
                         static_cast<int64_t>(batch.size()));
          // Re-zero this thread's locals even when aborted: the reducer
          // merges them unconditionally.
          if (local.size() < batch.size()) local.resize(batch.size());
          for (size_t j = 0; j < batch.size(); ++j) {
            local[j].Reset(total_bins, num_classes);
          }
          for (int64_t ci = h_sched.Next(); ci >= 0 && !sink.aborted();
               ci = h_sched.Next()) {
            const int64_t lo = ci * kChunkRecords;
            const int64_t hi = std::min(n, lo + kChunkRecords);
            size_t present = 0;
            for (int64_t t = lo; t < hi; ++t) {
              const int32_t li = leaf_of[static_cast<size_t>(t)];
              if (li < 0) continue;
              const int32_t slot = slot_of_frontier[static_cast<size_t>(li)];
              if (slot < 0) continue;
              row_buf[present] = static_cast<int32_t>(t - lo);
              slot_buf[present] = slot;
              label_buf[present] = labels[static_cast<size_t>(t)];
              weight_buf[present] =
                  weighted ? weights[static_cast<size_t>(t)] : 1;
              ++present;
            }
            if (present == 0) continue;
            for (int a = 0; a < num_attrs; ++a) {
              const uint8_t* col = bin_matrix.column(a) + lo;
              const int off = quantizer.offset(a);
              for (size_t i = 0; i < present; ++i) {
                local[static_cast<size_t>(slot_buf[i])].Add(
                    off + col[row_buf[i]], label_buf[i], weight_buf[i]);
              }
            }
            counters->records_scanned.fetch_add(
                static_cast<uint64_t>(present) * num_attrs,
                std::memory_order_relaxed);
          }
        }
        TimedBarrierWait(&barrier, counters);
        if (!sink.aborted()) {
          PhaseTimer phase(counters, BuildPhase::kHistogram);
          TraceSpan span("H", "phase", level_no);
          for (int64_t j = r_sched.Next(); j >= 0 && !sink.aborted();
               j = r_sched.Next()) {
            BinnedLeaf& leaf = frontier[static_cast<size_t>(batch[j])];
            leaf.bins.Reset(total_bins, num_classes);
            for (int t = 0; t < threads; ++t) {
              const std::vector<LeafHistogram>& other =
                  locals[static_cast<size_t>(t)];
              if (static_cast<size_t>(j) < other.size() &&
                  !other[static_cast<size_t>(j)].empty()) {
                sink.Record(leaf.bins.Merge(other[static_cast<size_t>(j)]));
              }
            }
            sink.Record(VerifyLeafBins(quantizer, leaf));
          }
        }
        TimedBarrierWait(&barrier, counters);
        if (b + 1 < num_batches) {
          if (tid == 0 && !sink.aborted()) {
            PlanBatch(b + 1);
            h_sched.Reset(num_chunks);
            r_sched.Reset(static_cast<int64_t>(scan_batches[b + 1].size()));
          }
          TimedBarrierWait(&barrier, counters);
        }
      }
      // H (subtraction): larger children inherit parent minus sibling.
      if (!sink.aborted()) {
        PhaseTimer phase(counters, BuildPhase::kHistogram);
        TraceSpan span("H", "phase", level_no,
                       static_cast<int64_t>(subtract_leaves.size()));
        for (int64_t j = sub_sched.Next(); j >= 0 && !sink.aborted();
             j = sub_sched.Next()) {
          BinnedLeaf& leaf =
              frontier[static_cast<size_t>(subtract_leaves[j])];
          leaf.bins = std::move(prev[static_cast<size_t>(leaf.parent)].bins);
          sink.Record(leaf.bins.Subtract(
              frontier[static_cast<size_t>(leaf.sibling)].bins));
          sink.Record(VerifyLeafBins(quantizer, leaf));
        }
      }
      TimedBarrierWait(&barrier, counters);

      // E: (leaf, attr) tasks through the dynamic scheduler, O(bins) each.
      if (!sink.aborted()) {
        PhaseTimer phase(counters, BuildPhase::kEvaluate);
        TraceSpan span("E", "phase", level_no,
                       static_cast<int64_t>(frontier.size()));
        uint64_t scanned = 0;
        for (int64_t id = e_sched.Next(); id >= 0 && !sink.aborted();
             id = e_sched.Next()) {
          BinnedLeaf& leaf = frontier[static_cast<size_t>(id / num_attrs)];
          const int attr = static_cast<int>(id % num_attrs);
          if (!options.feature_sampling.Allows(leaf.node, attr, num_attrs)) {
            leaf.candidates[static_cast<size_t>(attr)] = SplitCandidate();
            leaf.candidate_bins[static_cast<size_t>(attr)] = -1;
            continue;
          }
          scanned += EvaluateBinnedAttr(
              quantizer, leaf.bins, leaf.hist, leaf.count, attr, options.gini,
              &scratch, &leaf.candidates[static_cast<size_t>(attr)],
              &leaf.candidate_bins[static_cast<size_t>(attr)]);
          counters->attr_tasks.fetch_add(1, std::memory_order_relaxed);
        }
        counters->bins_scanned.fetch_add(scanned, std::memory_order_relaxed);
      }
      TimedBarrierWait(&barrier, counters);

      // W: master picks winners, derives child distributions from the
      // winner attribute's bin rows, creates children, and lays out the next
      // frontier (smaller child scans, larger subtracts).
      if (tid == 0 && !sink.aborted()) {
        PhaseTimer phase(counters, BuildPhase::kWinner);
        TraceSpan span("W", "phase", level_no,
                       static_cast<int64_t>(frontier.size()));
        next.clear();
        for (size_t li = 0; li < frontier.size(); ++li) {
          BinnedLeaf& leaf = frontier[li];
          SplitCandidate best;
          for (const SplitCandidate& c : leaf.candidates) {
            if (c.BetterThan(best)) best = c;
          }
          leaf.winner = best;
          leaf.winner_bin = -1;
          leaf.child_node[0] = leaf.child_node[1] = kInvalidNode;
          leaf.child_frontier[0] = leaf.child_frontier[1] = -1;
          if (!best.valid()) continue;  // stays a majority-class leaf
          if (!best.test.categorical) {
            leaf.winner_bin =
                leaf.candidate_bins[static_cast<size_t>(best.test.attr)];
          }
          tree->SetSplit(leaf.node, best.test);

          ClassHistogram child_hist[2];
          Status partitioned =
              PartitionBinnedSplit(quantizer, leaf.bins, leaf.hist, best,
                                   leaf.winner_bin, &child_hist[0],
                                   &child_hist[1]);
          if (!partitioned.ok()) {
            sink.Record(std::move(partitioned));
            break;
          }

          const int child_depth = tree->node(leaf.node).depth + 1;
          bool active[2];
          for (int side = 0; side < 2; ++side) {
            const ClassHistogram& h = child_hist[side];
            leaf.child_node[side] = tree->AddChild(leaf.node, side == 0, h);
            active[side] = !FinalizedAsLeaf(h, child_depth, options.min_split,
                                            options.max_levels);
          }
          int idx[2] = {-1, -1};
          for (int side = 0; side < 2; ++side) {
            if (!active[side]) continue;
            BinnedLeaf child;
            child.node = leaf.child_node[side];
            child.hist = child_hist[side];
            child.count = child.hist.Total();
            child.parent = static_cast<int>(li);
            child.candidates.resize(static_cast<size_t>(num_attrs));
            child.candidate_bins.assign(static_cast<size_t>(num_attrs), -1);
            idx[side] = static_cast<int>(next.size());
            leaf.child_frontier[side] = idx[side];
            next.push_back(std::move(child));
          }
          if (active[0] && active[1]) {
            // The smaller child is built by scanning, the larger one by
            // subtraction (ties keep left scanning, for determinism).
            const int scan_side =
                next[static_cast<size_t>(idx[1])].count <
                        next[static_cast<size_t>(idx[0])].count
                    ? 1
                    : 0;
            BinnedLeaf& sub = next[static_cast<size_t>(idx[1 - scan_side])];
            sub.scan = false;
            sub.sibling = idx[scan_side];
          }
        }
      }
      TimedBarrierWait(&barrier, counters);

      // S: reassign each record's frontier index with one bin comparison.
      // `bin <= winner_bin` is exactly `value < threshold` by the quantizer
      // invariant, so training partitions and Classify always agree.
      if (!sink.aborted()) {
        PhaseTimer phase(counters, BuildPhase::kSplit);
        TraceSpan span("S", "phase", level_no);
        for (int64_t ci = s_sched.Next(); ci >= 0 && !sink.aborted();
             ci = s_sched.Next()) {
          const int64_t lo = ci * kChunkRecords;
          const int64_t hi = std::min(n, lo + kChunkRecords);
          uint64_t moved = 0;
          for (int64_t t = lo; t < hi; ++t) {
            const int32_t li = leaf_of[static_cast<size_t>(t)];
            if (li < 0) continue;
            const BinnedLeaf& leaf = frontier[static_cast<size_t>(li)];
            if (!leaf.winner.valid()) {
              leaf_of[static_cast<size_t>(t)] = -1;
              continue;
            }
            const uint8_t bin =
                bin_matrix.column(leaf.winner.test.attr)[t];
            const bool left = leaf.winner.test.categorical
                                  ? leaf.winner.test.SubsetContains(bin)
                                  : bin <= leaf.winner_bin;
            leaf_of[static_cast<size_t>(t)] =
                leaf.child_frontier[left ? 0 : 1];
            ++moved;
          }
          counters->records_split.fetch_add(moved, std::memory_order_relaxed);
        }
      }
      TimedBarrierWait(&barrier, counters);

      // Level transition (master): record the processed level, recycle
      // histogram storage, promote the next frontier, re-arm schedulers.
      if (tid == 0) {
        if (!sink.aborted()) {
          int64_t records = 0;
          for (const BinnedLeaf& leaf : frontier) records += leaf.count;
          LevelTraceEntry entry;
          entry.level = tree->node(frontier.front().node).depth;
          entry.leaves = static_cast<int64_t>(frontier.size());
          entry.records = records;
          level_trace->push_back(entry);
          for (BinnedLeaf& p : prev) {
            if (!p.bins.empty()) free_bins.push_back(std::move(p.bins));
          }
          prev = std::move(frontier);
          frontier = std::move(next);
          next.clear();
          if (!frontier.empty()) PlanLevel();
        }
        if (sink.aborted() || frontier.empty()) {
          done.store(true, std::memory_order_release);
        }
      }
      TimedBarrierWait(&barrier, counters);
      ++level_no;
    }
  };

  return RunThreadTeam(threads, &sink, worker);
}

}  // namespace smptree
