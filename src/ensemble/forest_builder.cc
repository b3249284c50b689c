#include "ensemble/forest_builder.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "binned/quantizer.h"
#include "core/build_stats.h"
#include "data/sampling.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {

namespace {

/// Folds the members' BuildStats into one record the existing tooling
/// (--stats-out, /statz, bench_to_json) consumes unchanged: counters and
/// compute-time sums, frontier shapes merged by depth, wall time from the
/// forest clock (members overlap, so summing member walls would lie).
BuildStats FoldBuildStats(const std::vector<TrainStats>& members,
                          const ForestOptions& options, uint64_t wall_nanos) {
  BuildStats out;
  out.algorithm = StringPrintf(
      "FOREST(%s)",
      members.empty() ? "?" : members[0].build_stats.algorithm.c_str());
  if (!members.empty()) out.engine = members[0].build_stats.engine;
  out.num_threads = options.num_threads;
  out.wall_nanos = wall_nanos;
  for (const TrainStats& m : members) {
    const BuildStats& b = m.build_stats;
    out.e_nanos += b.e_nanos;
    out.w_nanos += b.w_nanos;
    out.s_nanos += b.s_nanos;
    out.h_nanos += b.h_nanos;
    out.wait_nanos += b.wait_nanos;
    out.barrier_waits += b.barrier_waits;
    out.condvar_waits += b.condvar_waits;
    out.attr_tasks += b.attr_tasks;
    out.free_queue_rounds += b.free_queue_rounds;
    out.records_scanned += b.records_scanned;
    out.records_split += b.records_split;
    out.bins_scanned += b.bins_scanned;
    for (size_t lvl = 0; lvl < b.levels.size(); ++lvl) {
      if (lvl >= out.levels.size()) out.levels.resize(lvl + 1);
      out.levels[lvl].level = static_cast<int>(lvl);
      out.levels[lvl].leaves += b.levels[lvl].leaves;
      out.levels[lvl].records += b.levels[lvl].records;
    }
  }
  return out;
}

}  // namespace

uint64_t ForestMemberSeed(uint64_t seed, int member) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(member) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const char* ForestScheduleName(ForestSchedule schedule) {
  switch (schedule) {
    case ForestSchedule::kTreesFirst:
      return "trees-first";
    case ForestSchedule::kInnerFirst:
      return "inner-first";
  }
  return "unknown";
}

ThreadSplit PlanThreadSplit(int num_trees, int num_threads,
                            ForestSchedule schedule,
                            int concurrent_trees_override) {
  num_trees = std::max(1, num_trees);
  num_threads = std::max(1, num_threads);
  ThreadSplit split;
  if (concurrent_trees_override > 0) {
    split.concurrent_trees =
        std::min(concurrent_trees_override, std::min(num_trees, num_threads));
  } else if (schedule == ForestSchedule::kTreesFirst) {
    split.concurrent_trees = std::min(num_trees, num_threads);
  } else {
    split.concurrent_trees = 1;
  }
  split.inner_threads = std::max(1, num_threads / split.concurrent_trees);
  return split;
}

Status ForestOptions::Validate() const {
  if (num_trees < 1) {
    return Status::InvalidArgument(
        StringPrintf("num_trees must be >= 1, got %d", num_trees));
  }
  if (num_threads < 1) {
    return Status::InvalidArgument(
        StringPrintf("num_threads must be >= 1, got %d", num_threads));
  }
  if (concurrent_trees < 0) {
    return Status::InvalidArgument(
        StringPrintf("concurrent_trees must be >= 0, got %d",
                     concurrent_trees));
  }
  if (features_per_node < 0) {
    return Status::InvalidArgument(
        StringPrintf("features_per_node must be >= 0, got %d",
                     features_per_node));
  }
  if (tree.build.algorithm == Algorithm::kRecordParallel) {
    return Status::InvalidArgument(
        "record-parallel is not a forest inner builder (it bypasses the "
        "level engine; use serial/basic/fwk/mwk/subtree)");
  }
  // Member-level options are validated again by TrainClassifier with the
  // per-tree overrides applied; check here too so errors surface before any
  // thread is spawned.
  return tree.build.Validate();
}

Result<ForestTrainResult> TrainForest(const Dataset& data,
                                      const ForestOptions& options) {
  SMPTREE_RETURN_IF_ERROR(options.Validate());
  SMPTREE_RETURN_IF_ERROR(data.schema().Validate());
  if (data.num_tuples() < 1) {
    return Status::InvalidArgument("cannot train a forest on an empty dataset");
  }

  const int T = options.num_trees;
  const ThreadSplit split = PlanThreadSplit(
      T, options.num_threads, options.schedule, options.concurrent_trees);

  Timer total_timer;
  const int64_t n = data.num_tuples();

  // Binned engine: one quantizer and one bin matrix for the whole forest,
  // built by every forest thread (whole attributes each) before any member
  // starts. Members then differ only in their row weights -- the bootstrap
  // draw counts -- and read the matrix concurrently; nothing mutates it.
  const bool shared_bins = options.tree.build.engine == Engine::kBinned;
  Quantizer quantizer;
  BinMatrix bins;
  double bin_seconds = 0.0;
  if (shared_bins) {
    Timer bin_timer;
    SMPTREE_RETURN_IF_ERROR(quantizer.Build(
        data, options.tree.build.max_bins, options.num_threads));
    SMPTREE_RETURN_IF_ERROR(
        bins.Materialize(data, quantizer, options.num_threads));
    bin_seconds = bin_timer.Seconds();
  }

  // Per-member result slots: each worker writes only its own indices, and
  // the joins below order every write before the fold reads them.
  std::vector<std::unique_ptr<DecisionTree>> trees(static_cast<size_t>(T));
  std::vector<TrainStats> member_stats(static_cast<size_t>(T));
  std::vector<std::vector<bool>> oob_masks(static_cast<size_t>(T));
  std::vector<Status> errors(static_cast<size_t>(T));

  auto train_member = [&](int i) {
    const uint64_t member_seed = ForestMemberSeed(options.seed, i);

    ClassifierOptions member_options = options.tree;
    member_options.build.num_threads = split.inner_threads;
    member_options.build.feature_sampling.features_per_node =
        options.features_per_node;
    member_options.build.feature_sampling.seed = member_seed;
    if (split.concurrent_trees > 1) {
      // A shared recorder cannot be folded per member while siblings still
      // emit spans (MakeBuildStats requires a quiescent trace).
      member_options.build.trace = nullptr;
    }

    Result<TrainResult> result = Status::Internal("unreached");
    if (shared_bins) {
      std::vector<int32_t> weights;
      if (options.bootstrap) {
        weights = BootstrapCounts(n, member_seed);
        std::vector<bool>& oob = oob_masks[static_cast<size_t>(i)];
        oob.resize(static_cast<size_t>(n));
        for (int64_t t = 0; t < n; ++t) {
          oob[static_cast<size_t>(t)] = weights[static_cast<size_t>(t)] == 0;
        }
      }
      result = TrainBinnedClassifier(data, quantizer, bins, weights,
                                     member_options);
    } else if (options.bootstrap) {
      Result<BootstrapResult> sample = BootstrapSample(data, member_seed);
      if (!sample.ok()) {
        errors[static_cast<size_t>(i)] = sample.status();
        return;
      }
      oob_masks[static_cast<size_t>(i)] = std::move(sample->oob);
      result = TrainClassifier(sample->sample, member_options);
    } else {
      result = TrainClassifier(data, member_options);
    }
    if (!result.ok()) {
      errors[static_cast<size_t>(i)] = result.status();
      return;
    }
    trees[static_cast<size_t>(i)] = std::move(result->tree);
    member_stats[static_cast<size_t>(i)] = std::move(result->stats);
  };

  if (split.concurrent_trees <= 1) {
    for (int i = 0; i < T; ++i) train_member(i);
  } else {
    // Outer level: workers pull member indices from a shared counter, so a
    // fast tree frees its worker for the next member (no static striping).
    std::atomic<int> next{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(split.concurrent_trees));
    for (int w = 0; w < split.concurrent_trees; ++w) {
      workers.emplace_back([&] {
        for (int i = next.fetch_add(1, std::memory_order_relaxed); i < T;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          train_member(i);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  for (int i = 0; i < T; ++i) {
    if (!errors[static_cast<size_t>(i)].ok()) {
      return Status(errors[static_cast<size_t>(i)]);
    }
  }

  auto forest = std::make_unique<Forest>(data.schema());
  for (int i = 0; i < T; ++i) {
    SMPTREE_RETURN_IF_ERROR(
        forest->AddTree(std::move(*trees[static_cast<size_t>(i)])));
  }

  ForestTrainStats stats;
  stats.bin_seconds = bin_seconds;
  stats.split = split;
  stats.trees = std::move(member_stats);

  // OOB fold: each member votes only on the tuples its resample left out;
  // the per-tuple majority over those votes estimates held-out accuracy.
  if (options.oob && options.bootstrap) {
    const int k = data.num_classes();
    std::vector<int32_t> votes(static_cast<size_t>(n * k), 0);
    for (int i = 0; i < T; ++i) {
      const std::vector<bool>& oob = oob_masks[static_cast<size_t>(i)];
      for (int64_t t = 0; t < n; ++t) {
        if (!oob[static_cast<size_t>(t)]) continue;
        const ClassLabel y = forest->tree(i).Classify(data, t);
        ++votes[static_cast<size_t>(t * k + y)];
      }
    }
    int64_t counted = 0;
    int64_t correct = 0;
    for (int64_t t = 0; t < n; ++t) {
      const int32_t* row = &votes[static_cast<size_t>(t * k)];
      int32_t best_votes = 0;
      int best = -1;
      for (int c = 0; c < k; ++c) {
        if (row[c] > best_votes) {
          best_votes = row[c];
          best = c;  // strict > keeps the lowest label on ties
        }
      }
      if (best < 0) continue;  // in-bag for every member
      ++counted;
      if (static_cast<ClassLabel>(best) == data.label(t)) ++correct;
    }
    stats.oob_tuples = counted;
    if (counted > 0) {
      stats.oob_accuracy =
          static_cast<double>(correct) / static_cast<double>(counted);
    }
  }

  stats.total_seconds = total_timer.Seconds();
  stats.build_stats =
      FoldBuildStats(stats.trees, options,
                     static_cast<uint64_t>(stats.total_seconds * 1e9));

  ForestTrainResult out;
  out.forest = std::move(forest);
  out.stats = std::move(stats);
  return out;
}

}  // namespace smptree
