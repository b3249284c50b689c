#include "core/classifier.h"

#include "binned/binned_builder.h"
#include "binned/quantizer.h"
#include "core/serial_builder.h"
#include "parallel/basic_builder.h"
#include "parallel/fwk_builder.h"
#include "parallel/mwk_builder.h"
#include "parallel/record_parallel.h"
#include "parallel/subtree_builder.h"
#include "util/timer.h"

namespace smptree {

namespace {

Status RunBuild(BuildContext* ctx, std::vector<LeafTask> level) {
  switch (ctx->options().algorithm) {
    case Algorithm::kSerial:
      return BuildTreeSerial(ctx, std::move(level));
    case Algorithm::kBasic:
      return BuildTreeBasic(ctx, std::move(level));
    case Algorithm::kFwk:
      return BuildTreeFwk(ctx, std::move(level));
    case Algorithm::kMwk:
      return BuildTreeMwk(ctx, std::move(level));
    case Algorithm::kSubtree:
      return BuildTreeSubtree(ctx, std::move(level));
    case Algorithm::kRecordParallel:
      return BuildTreeRecordParallel(ctx, std::move(level));
  }
  return Status::InvalidArgument("unknown algorithm");
}

// Folds the quiescent counters into the stats. Relaxed loads: the builder's
// thread team has joined by this point, so the join orders every counter
// update before these reads.
void FoldCounters(const BuildCounters& counters, TrainStats* stats) {
  stats->barrier_waits =
      counters.barrier_waits.load(std::memory_order_relaxed);
  stats->condvar_waits =
      counters.condvar_waits.load(std::memory_order_relaxed);
  stats->attr_tasks = counters.attr_tasks.load(std::memory_order_relaxed);
  stats->free_queue_rounds =
      counters.free_queue_rounds.load(std::memory_order_relaxed);
  stats->wait_seconds =
      static_cast<double>(counters.wait_nanos.load(
          std::memory_order_relaxed)) / 1e9;
  stats->e_phase_seconds =
      static_cast<double>(counters.e_nanos.load(
          std::memory_order_relaxed)) / 1e9;
  stats->w_phase_seconds =
      static_cast<double>(counters.w_nanos.load(
          std::memory_order_relaxed)) / 1e9;
  stats->s_phase_seconds =
      static_cast<double>(counters.s_nanos.load(
          std::memory_order_relaxed)) / 1e9;
  stats->h_phase_seconds =
      static_cast<double>(counters.h_nanos.load(
          std::memory_order_relaxed)) / 1e9;
}

// TrainBinnedClassifier after its checks: `data` has passed Validate.
Result<TrainResult> TrainBinned(const Dataset& data,
                                const Quantizer& quantizer,
                                const BinMatrix& bins,
                                std::span<const int32_t> weights,
                                const ClassifierOptions& options) {
  TrainResult result;
  result.tree = std::make_unique<DecisionTree>(data.schema());
  BuildCounters counters;

  Timer total;
  Timer build_timer;
  SMPTREE_RETURN_IF_ERROR(
      BuildTreeBinned(data, quantizer, bins, weights, options.build,
                      result.tree.get(), &counters,
                      &result.stats.level_trace));
  result.stats.build_seconds = build_timer.Seconds();
  result.stats.tree = result.tree->Stats();

  Timer prune_timer;
  result.stats.nodes_pruned = PruneTree(result.tree.get(), options.prune);
  result.stats.prune_seconds = prune_timer.Seconds();

  result.stats.total_seconds = total.Seconds();
  FoldCounters(counters, &result.stats);
  result.stats.build_stats = MakeBuildStats(
      "BINNED", options.build.num_threads,
      static_cast<uint64_t>(result.stats.build_seconds * 1e9), counters,
      result.stats.level_trace, options.build.trace);
  result.stats.build_stats.engine = EngineName(Engine::kBinned);
  return result;
}

}  // namespace

Result<TrainResult> TrainBinnedClassifier(const Dataset& data,
                                          const Quantizer& quantizer,
                                          const BinMatrix& bins,
                                          std::span<const int32_t> weights,
                                          const ClassifierOptions& options) {
  SMPTREE_RETURN_IF_ERROR(options.build.Validate());
  SMPTREE_RETURN_IF_ERROR(data.schema().Validate());
  SMPTREE_RETURN_IF_ERROR(data.Validate());
  return TrainBinned(data, quantizer, bins, weights, options);
}

Result<TrainResult> TrainClassifier(const Dataset& data,
                                    const ClassifierOptions& options) {
  SMPTREE_RETURN_IF_ERROR(options.build.Validate());
  SMPTREE_RETURN_IF_ERROR(data.schema().Validate());
  SMPTREE_RETURN_IF_ERROR(data.Validate());
  if (data.num_tuples() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options.build.engine == Engine::kBinned) {
    // Quantization stands in for the sort phase (it sorts each continuous
    // column once to place cuts); materialization stands in for
    // attribute-list setup, so the Table 1 style columns stay comparable
    // across engines. No attribute lists, no scratch files --
    // records_read/written stay 0.
    Timer sort_timer;
    Quantizer quantizer;
    SMPTREE_RETURN_IF_ERROR(quantizer.Build(data, options.build.max_bins));
    const double sort_seconds = sort_timer.Seconds();
    Timer setup_timer;
    BinMatrix bins;
    SMPTREE_RETURN_IF_ERROR(bins.Materialize(data, quantizer));
    const double setup_seconds = setup_timer.Seconds();
    SMPTREE_ASSIGN_OR_RETURN(
        TrainResult result,
        TrainBinned(data, quantizer, bins, {}, options));
    result.stats.sort_seconds = sort_seconds;
    result.stats.setup_seconds = setup_seconds;
    result.stats.total_seconds += sort_seconds + setup_seconds;
    return result;
  }

  TrainResult result;
  result.tree = std::make_unique<DecisionTree>(data.schema());
  BuildCounters counters;

  Timer total;

  // Setup + sort phases (timed inside BuildAttributeLists).
  SMPTREE_ASSIGN_OR_RETURN(
      AttributeLists lists,
      BuildAttributeLists(data, options.build.EffectiveSortThreads()));
  result.stats.setup_seconds = lists.setup_seconds;
  result.stats.sort_seconds = lists.sort_seconds;

  // Build phase.
  Timer build_timer;
  BuildContext ctx(data, options.build, result.tree.get(), &counters);
  {
    std::vector<LeafTask> level;
    SMPTREE_RETURN_IF_ERROR(ctx.InitRoot(std::move(lists), &level));
    Status build_status = RunBuild(&ctx, std::move(level));
    if (!build_status.ok()) {
      // Best-effort scratch cleanup before reporting the failure.
      ctx.env()->RemoveDirRecursive(ctx.scratch_dir());
      return build_status;
    }
  }
  result.stats.build_seconds = build_timer.Seconds();
  result.stats.tree = result.tree->Stats();

  // Prune phase.
  Timer prune_timer;
  result.stats.nodes_pruned = PruneTree(result.tree.get(), options.prune);
  result.stats.prune_seconds = prune_timer.Seconds();

  result.stats.total_seconds = total.Seconds();
  result.stats.records_read = ctx.storage()->records_read();
  result.stats.records_written = ctx.storage()->records_written();
  FoldCounters(counters, &result.stats);
  result.stats.level_trace = ctx.LevelTrace();
  result.stats.build_stats = MakeBuildStats(
      AlgorithmName(options.build.algorithm), options.build.num_threads,
      static_cast<uint64_t>(result.stats.build_seconds * 1e9), counters,
      result.stats.level_trace, options.build.trace);

  SMPTREE_RETURN_IF_ERROR(ctx.env()->RemoveDirRecursive(ctx.scratch_dir()));
  return result;
}

}  // namespace smptree
