// Split-evaluation kernel micro benchmarks: the E-phase scan (AoS reference
// vs SoA kernel, 2-class and 8-class), categorical tabulation, the
// categorical subset search, and S-phase split throughput (direct vs bounded
// buffered streaming). These are the numbers BENCH_core.json is built from
// (tools/bench_to_json.py converts the google-benchmark JSON output).
//
// Usage:
//   micro_kernels                          # full sizes
//   micro_kernels --quick                  # CI smoke: small sizes, short runs
//   micro_kernels --benchmark_out=gb.json --benchmark_out_format=json
//
// Benchmark names are part of the BENCH_core.json contract: the converter
// pairs "<family>/aos_*" with "<family>/soa_*" (and SplitPhase/direct with
// SplitPhase/buffered) to derive speedups; CatSearch/<cardinality> is
// reported per search and pairs with nothing. Rename in both places or not
// at all.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/gini.h"
#include "core/probe.h"
#include "storage/level_storage.h"
#include "util/random.h"

namespace smptree {
namespace {

std::vector<AttrRecord> SortedContinuousList(int64_t n, int num_classes,
                                             uint64_t seed) {
  Random rng(seed);
  std::vector<AttrRecord> recs(n);
  for (int64_t i = 0; i < n; ++i) {
    recs[i].value.f = static_cast<float>(rng.UniformDouble(0, 1e6));
    recs[i].tid = static_cast<Tid>(i);
    recs[i].label = static_cast<ClassLabel>(rng.Uniform(num_classes));
    recs[i].unused = 0;
  }
  std::sort(recs.begin(), recs.end(), ContinuousRecordLess());
  return recs;
}

std::vector<AttrRecord> CategoricalList(int64_t n, int cardinality,
                                        uint64_t seed) {
  Random rng(seed);
  std::vector<AttrRecord> recs(n);
  for (int64_t i = 0; i < n; ++i) {
    recs[i].value.cat = static_cast<int32_t>(rng.Uniform(cardinality));
    recs[i].tid = static_cast<Tid>(i);
    recs[i].label = static_cast<ClassLabel>(rng.Uniform(2));
    recs[i].unused = 0;
  }
  return recs;
}

ClassHistogram HistOf(const std::vector<AttrRecord>& recs, int num_classes) {
  ClassHistogram h(num_classes);
  for (const auto& r : recs) h.Add(r.label);
  return h;
}

/// E-phase continuous scan, reference (AoS) or kernel (SoA) path.
void EScanBench(benchmark::State& state, bool use_kernels, int num_classes) {
  const int64_t n = state.range(0);
  const auto recs = SortedContinuousList(n, num_classes, 1);
  const ClassHistogram total = HistOf(recs, num_classes);
  GiniScratch scratch;
  GiniOptions options;
  options.use_kernels = use_kernels;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateContinuousAttr(0, recs, total, options, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

/// Categorical evaluation (tabulation + exhaustive subset search).
void CatTabulateBench(benchmark::State& state, bool use_kernels) {
  const int64_t n = state.range(0);
  const int cardinality = 8;  // exhaustive search; tabulation dominates
  const auto recs = CategoricalList(n, cardinality, 2);
  const ClassHistogram total = HistOf(recs, 2);
  GiniScratch scratch;
  GiniOptions options;
  options.use_kernels = use_kernels;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCategoricalAttr(0, recs, total,
                                                     cardinality, options,
                                                     &scratch));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

/// Categorical subset search over a pre-tabulated 2-class matrix (no
/// tabulation): the half Gray-code walk up to the exhaustive limit (12),
/// greedy growth above it. One item is one whole search.
void CatSearchBench(benchmark::State& state) {
  const int cardinality = static_cast<int>(state.range(0));
  const auto recs = CategoricalList(1 << 14, cardinality, 3);
  CountMatrix matrix(cardinality, 2);
  for (const auto& r : recs) matrix.Add(r.value.cat, r.label);
  const ClassHistogram total = HistOf(recs, 2);
  GiniScratch scratch;
  const GiniOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateCategoricalFromMatrix(0, matrix, total, options, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
}

/// S-phase split throughput: partition a list through the probe and append
/// the children into the alternate slot files. `buffer_records` = 0 buffers
/// each child in full (direct); > 0 streams bounded runs mid-scan
/// (buffered, with probe-bit prefetch) exactly like
/// BuildContext::SplitAttribute.
void SplitPhaseBench(benchmark::State& state, int64_t buffer_records) {
  const int64_t n = state.range(0);
  const auto recs = SortedContinuousList(n, 2, 5);
  SplitProbe probe;
  probe.Reset(static_cast<size_t>(n));
  Random rng(6);
  for (int64_t t = 0; t < n; ++t) {
    probe.Route(static_cast<Tid>(t), rng.Uniform(2) == 0);
  }
  auto env = Env::NewMem();
  env->CreateDir("/bench");
  std::unique_ptr<LevelStorage> storage;
  if (!LevelStorage::Create(env.get(), "/bench", "sp", 1, 2, &storage).ok()) {
    state.SkipWithError("storage create failed");
    return;
  }
  constexpr size_t kPrefetchDistance = 16;
  const size_t cap = buffer_records > 0
                         ? static_cast<size_t>(buffer_records)
                         : std::numeric_limits<size_t>::max();
  std::vector<AttrRecord> batch[2];
  for (auto _ : state) {
    batch[0].clear();
    batch[1].clear();
    for (size_t i = 0; i < recs.size(); ++i) {
      if (i + kPrefetchDistance < recs.size()) {
        probe.Prefetch(recs[i + kPrefetchDistance].tid);
      }
      const int side = probe.GoesLeft(recs[i].tid) ? 0 : 1;
      batch[side].push_back(recs[i]);
      if (batch[side].size() >= cap) {
        storage->AppendChild(0, side, batch[side]);
        batch[side].clear();
      }
    }
    for (int side = 0; side < 2; ++side) {
      if (!batch[side].empty()) storage->AppendChild(0, side, batch[side]);
      batch[side].clear();
    }
    storage->FlushAlternate(0);
    storage->AdvanceLevel();  // children become current
    storage->AdvanceLevel();  // truncate and swap back (same cost per variant)
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterAll(bool quick) {
  const int64_t scan_n = quick ? (1 << 13) : (1 << 17);
  const int64_t cat_n = quick ? (1 << 12) : (1 << 15);
  const int64_t split_n = quick ? (1 << 13) : (1 << 16);
  const auto tune = [quick](benchmark::internal::Benchmark* b) {
    if (quick) b->MinTime(0.02);
  };
  tune(benchmark::RegisterBenchmark(
           "EScan/aos_2class",
           [](benchmark::State& s) { EScanBench(s, false, 2); })
           ->Arg(scan_n));
  tune(benchmark::RegisterBenchmark(
           "EScan/soa_2class",
           [](benchmark::State& s) { EScanBench(s, true, 2); })
           ->Arg(scan_n));
  tune(benchmark::RegisterBenchmark(
           "EScan/aos_8class",
           [](benchmark::State& s) { EScanBench(s, false, 8); })
           ->Arg(scan_n));
  tune(benchmark::RegisterBenchmark(
           "EScan/soa_8class",
           [](benchmark::State& s) { EScanBench(s, true, 8); })
           ->Arg(scan_n));
  tune(benchmark::RegisterBenchmark(
           "CatTabulate/aos",
           [](benchmark::State& s) { CatTabulateBench(s, false); })
           ->Arg(cat_n));
  tune(benchmark::RegisterBenchmark(
           "CatTabulate/soa",
           [](benchmark::State& s) { CatTabulateBench(s, true); })
           ->Arg(cat_n));
  tune(benchmark::RegisterBenchmark("CatSearch", CatSearchBench)
           ->Arg(5)
           ->Arg(10)
           ->Arg(12)
           ->Arg(20));
  tune(benchmark::RegisterBenchmark(
           "SplitPhase/direct",
           [](benchmark::State& s) { SplitPhaseBench(s, 0); })
           ->Arg(split_n));
  tune(benchmark::RegisterBenchmark(
           "SplitPhase/buffered",
           [](benchmark::State& s) { SplitPhaseBench(s, 4096); })
           ->Arg(split_n));
}

}  // namespace
}  // namespace smptree

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  smptree::RegisterAll(quick);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
