// Train/test splitting, shuffling and resampling utilities for the
// examples, the accuracy experiments, and the ensemble builder.

#ifndef SMPTREE_DATA_SAMPLING_H_
#define SMPTREE_DATA_SAMPLING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/dataset.h"

namespace smptree {

/// A train/test partition of a dataset.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Randomly partitions `data` so that about `test_fraction` of the tuples
/// land in the test set. Deterministic in `seed`.
Result<TrainTestSplit> SplitTrainTest(const Dataset& data,
                                      double test_fraction, uint64_t seed);

/// Like SplitTrainTest but stratified: the split is performed per class, so
/// train and test preserve the class proportions of `data` (up to rounding;
/// each class contributes round(test_fraction * class_count) test tuples).
/// Tuples keep their original relative order within each side.
/// Deterministic in `seed`.
Result<TrainTestSplit> StratifiedSplitTrainTest(const Dataset& data,
                                                double test_fraction,
                                                uint64_t seed);

/// How often each of `n` tuples is drawn by `n` uniform draws with
/// replacement: the bootstrap bag as per-tuple multiplicities (they sum to
/// n; 0 marks an out-of-bag tuple). Deterministic in `seed`, and the draws
/// BootstrapSample materializes for the same (n, seed).
std::vector<int32_t> BootstrapCounts(int64_t n, uint64_t seed);

/// A with-replacement bootstrap resample of a dataset plus the complement
/// mask the resample did not touch (the ensemble builder's out-of-bag set).
struct BootstrapResult {
  Dataset sample;         ///< num_tuples() draws, with replacement
  std::vector<bool> oob;  ///< size = source tuples; true iff never drawn
};

/// Draws `data.num_tuples()` tuples from `data` with replacement and
/// records which source tuples were never drawn (the out-of-bag mask).
/// Draw order is source-tuple order (the sample is sorted by source index),
/// which keeps resamples of the same dataset byte-comparable across
/// platforms. Deterministic in `seed`.
Result<BootstrapResult> BootstrapSample(const Dataset& data, uint64_t seed);

/// Returns a copy of `data` with tuples in a random order (Fisher-Yates,
/// deterministic in `seed`).
Result<Dataset> ShuffleDataset(const Dataset& data, uint64_t seed);

/// Returns the first `n` tuples (n clamped to the dataset size).
Dataset TakePrefix(const Dataset& data, int64_t n);

}  // namespace smptree

#endif  // SMPTREE_DATA_SAMPLING_H_
