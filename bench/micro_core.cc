// google-benchmark micro benchmarks for the kernels the builders spend
// their time in: gini evaluation (continuous sweep, categorical subsets),
// attribute-list pre-sorting, probe routing/lookup, histogram updates, and
// the storage layer's segment I/O in both environments.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/gini.h"
#include "core/presort.h"
#include "core/probe.h"
#include "data/synthetic.h"
#include "storage/level_storage.h"
#include "util/random.h"

namespace smptree {
namespace {

std::vector<AttrRecord> SortedContinuousList(int64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<AttrRecord> recs(n);
  for (int64_t i = 0; i < n; ++i) {
    recs[i].value.f = static_cast<float>(rng.UniformDouble(0, 1e6));
    recs[i].tid = static_cast<Tid>(i);
    recs[i].label = static_cast<ClassLabel>(rng.Uniform(2));
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

ClassHistogram HistOf(const std::vector<AttrRecord>& recs) {
  ClassHistogram h(2);
  for (const auto& r : recs) h.Add(r.label);
  return h;
}

void BM_GiniContinuousSweep(benchmark::State& state) {
  const auto recs = SortedContinuousList(state.range(0), 1);
  const ClassHistogram total = HistOf(recs);
  GiniScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateContinuousAttr(0, recs, total, GiniOptions{}, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GiniContinuousSweep)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_GiniCategoricalExhaustive(benchmark::State& state) {
  const int cardinality = static_cast<int>(state.range(0));
  const auto recs = CategoricalList(1 << 14, cardinality, 2);
  const ClassHistogram total = HistOf(recs);
  GiniScratch scratch;
  GiniOptions options;
  options.max_exhaustive_cardinality = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCategoricalAttr(
        0, recs, total, cardinality, options, &scratch));
  }
}
BENCHMARK(BM_GiniCategoricalExhaustive)->Arg(4)->Arg(8)->Arg(12);

void BM_GiniCategoricalGreedy(benchmark::State& state) {
  const int cardinality = static_cast<int>(state.range(0));
  const auto recs = CategoricalList(1 << 14, cardinality, 3);
  const ClassHistogram total = HistOf(recs);
  GiniScratch scratch;
  GiniOptions options;
  options.max_exhaustive_cardinality = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCategoricalAttr(
        0, recs, total, cardinality, options, &scratch));
  }
}
BENCHMARK(BM_GiniCategoricalGreedy)->Arg(16)->Arg(32)->Arg(64);

void BM_Presort(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.function = 7;
  cfg.num_tuples = state.range(0);
  auto data = GenerateSynthetic(cfg);
  for (auto _ : state) {
    auto lists = BuildAttributeLists(*data);
    benchmark::DoNotOptimize(lists);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 9);
}
BENCHMARK(BM_Presort)->Arg(1 << 12)->Arg(1 << 15);

void BM_ProbeRoute(benchmark::State& state) {
  SplitProbe probe;
  const size_t n = 1 << 20;
  probe.Reset(n);
  Random rng(4);
  std::vector<Tid> tids(1 << 14);
  for (auto& t : tids) t = static_cast<Tid>(rng.Uniform(n));
  for (auto _ : state) {
    for (Tid t : tids) probe.Route(t, (t & 1) != 0);
  }
  state.SetItemsProcessed(state.iterations() * tids.size());
}
BENCHMARK(BM_ProbeRoute);

void BM_ProbeLookup(benchmark::State& state) {
  SplitProbe probe;
  const size_t n = 1 << 20;
  probe.Reset(n);
  for (size_t i = 0; i < n; i += 3) probe.Route(static_cast<Tid>(i), true);
  Random rng(5);
  std::vector<Tid> tids(1 << 14);
  for (auto& t : tids) t = static_cast<Tid>(rng.Uniform(n));
  for (auto _ : state) {
    size_t lefts = 0;
    for (Tid t : tids) lefts += probe.GoesLeft(t);
    benchmark::DoNotOptimize(lefts);
  }
  state.SetItemsProcessed(state.iterations() * tids.size());
}
BENCHMARK(BM_ProbeLookup);

void BM_HistogramSweep(benchmark::State& state) {
  const auto recs = SortedContinuousList(1 << 14, 6);
  for (auto _ : state) {
    ClassHistogram below(2);
    ClassHistogram above = HistOf(recs);
    for (const auto& r : recs) {
      below.Add(r.label);
      above.Remove(r.label);
    }
    benchmark::DoNotOptimize(below);
  }
  state.SetItemsProcessed(state.iterations() * recs.size());
}
BENCHMARK(BM_HistogramSweep);

void BM_SegmentRoundTrip(benchmark::State& state) {
  const bool posix = state.range(0) != 0;
  std::unique_ptr<Env> mem_env;
  Env* env;
  std::string dir;
  if (posix) {
    env = Env::Posix();
    dir = "/tmp/smptree_micro_bench";
  } else {
    mem_env = Env::NewMem();
    env = mem_env.get();
    dir = "/bench";
  }
  const auto recs = SortedContinuousList(1 << 14, 7);
  std::unique_ptr<LevelStorage> storage;
  if (!env->CreateDir(dir).ok() ||
      !LevelStorage::Create(env, dir, "micro", 1, 2, &storage).ok()) {
    state.SkipWithError("storage create failed");
    return;
  }
  for (auto _ : state) {
    SegmentBuffer buf;
    const bool ok =
        storage->AppendChild(0, 0, recs).ok() &&
        storage->AdvanceLevel().ok() &&
        storage
            ->ReadSegment(0,
                          Segment{0, 0, static_cast<uint64_t>(recs.size())},
                          &buf)
            .ok() &&
        storage->AdvanceLevel().ok();  // cycle back to an empty current set
    if (!ok) {
      state.SkipWithError("segment round trip failed");
      break;
    }
    benchmark::DoNotOptimize(buf.records().data());
  }
  state.SetBytesProcessed(state.iterations() * recs.size() *
                          sizeof(AttrRecord));
  storage.reset();
  // Best-effort cleanup of the bench scratch dir.
  (void)env->RemoveDirRecursive(dir);
}
BENCHMARK(BM_SegmentRoundTrip)->Arg(0)->Arg(1);

}  // namespace
}  // namespace smptree

BENCHMARK_MAIN();
