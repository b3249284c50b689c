#include "data/sampling.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/random.h"

namespace smptree {

Result<TrainTestSplit> SplitTrainTest(const Dataset& data,
                                      double test_fraction, uint64_t seed) {
  if (test_fraction < 0.0 || test_fraction > 1.0) {
    return Status::InvalidArgument("test_fraction outside [0,1]");
  }
  Random rng(seed);
  TrainTestSplit split{Dataset(data.schema()), Dataset(data.schema())};
  TupleValues values;
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    values = data.Tuple(t);
    Dataset& target =
        rng.Bernoulli(test_fraction) ? split.test : split.train;
    SMPTREE_RETURN_IF_ERROR(target.Append(values, data.label(t)));
  }
  return split;
}

Result<TrainTestSplit> StratifiedSplitTrainTest(const Dataset& data,
                                                double test_fraction,
                                                uint64_t seed) {
  if (test_fraction < 0.0 || test_fraction > 1.0) {
    return Status::InvalidArgument("test_fraction outside [0,1]");
  }
  const int num_classes = data.num_classes();
  // Collect tuple indices per class, then mark each class's test picks by
  // shuffling its index list (deterministic in seed, varied per class) and
  // taking a rounded share from the front.
  std::vector<std::vector<int64_t>> by_class(
      static_cast<size_t>(num_classes));
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    by_class[static_cast<size_t>(data.label(t))].push_back(t);
  }
  std::vector<bool> to_test(static_cast<size_t>(data.num_tuples()), false);
  Random rng(seed);
  for (int c = 0; c < num_classes; ++c) {
    std::vector<int64_t>& members = by_class[static_cast<size_t>(c)];
    for (int64_t i = static_cast<int64_t>(members.size()) - 1; i > 0; --i) {
      const int64_t j = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(i) + 1));
      std::swap(members[static_cast<size_t>(i)],
                members[static_cast<size_t>(j)]);
    }
    const int64_t take = static_cast<int64_t>(
        test_fraction * static_cast<double>(members.size()) + 0.5);
    for (int64_t i = 0; i < take; ++i) {
      to_test[static_cast<size_t>(members[static_cast<size_t>(i)])] = true;
    }
  }
  TrainTestSplit split{Dataset(data.schema()), Dataset(data.schema())};
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    Dataset& target =
        to_test[static_cast<size_t>(t)] ? split.test : split.train;
    SMPTREE_RETURN_IF_ERROR(target.Append(data.Tuple(t), data.label(t)));
  }
  return split;
}

std::vector<int32_t> BootstrapCounts(int64_t n, uint64_t seed) {
  std::vector<int32_t> draws(static_cast<size_t>(n), 0);
  Random rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    ++draws[static_cast<size_t>(rng.Uniform(static_cast<uint64_t>(n)))];
  }
  return draws;
}

Result<BootstrapResult> BootstrapSample(const Dataset& data, uint64_t seed) {
  const int64_t n = data.num_tuples();
  if (n == 0) return Status::InvalidArgument("empty dataset");
  // Draw counts per source tuple, then emit draws in source order: the
  // resample content depends only on the multiset of draws, and the sorted
  // order makes equal-seed resamples byte-identical however they are built.
  const std::vector<int32_t> draws = BootstrapCounts(n, seed);
  BootstrapResult result{Dataset(data.schema()),
                         std::vector<bool>(static_cast<size_t>(n), false)};
  result.sample.Reserve(n);
  for (int64_t t = 0; t < n; ++t) {
    const int32_t copies = draws[static_cast<size_t>(t)];
    if (copies == 0) {
      result.oob[static_cast<size_t>(t)] = true;
      continue;
    }
    const TupleValues values = data.Tuple(t);
    for (int32_t c = 0; c < copies; ++c) {
      SMPTREE_RETURN_IF_ERROR(result.sample.Append(values, data.label(t)));
    }
  }
  return result;
}

Result<Dataset> ShuffleDataset(const Dataset& data, uint64_t seed) {
  std::vector<int64_t> order(data.num_tuples());
  std::iota(order.begin(), order.end(), 0);
  Random rng(seed);
  for (int64_t i = data.num_tuples() - 1; i > 0; --i) {
    const int64_t j = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(i) + 1));
    std::swap(order[i], order[j]);
  }
  Dataset out(data.schema());
  out.Reserve(data.num_tuples());
  for (int64_t t : order) {
    SMPTREE_RETURN_IF_ERROR(out.Append(data.Tuple(t), data.label(t)));
  }
  return out;
}

Dataset TakePrefix(const Dataset& data, int64_t n) {
  n = std::min(n, data.num_tuples());
  Dataset out(data.schema());
  out.Reserve(n);
  for (int64_t t = 0; t < n; ++t) {
    Status s = out.Append(data.Tuple(t), data.label(t));
    (void)s;  // append into a fresh same-schema dataset cannot fail
  }
  return out;
}

}  // namespace smptree
