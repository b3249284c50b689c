#include "stream/sketch_quantizer.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace smptree {

Status SketchQuantizer::Init(const Schema& schema, const Options& options) {
  SMPTREE_RETURN_IF_ERROR(schema.Validate());
  if (options.max_bins < 2 || options.max_bins > 256) {
    return Status::InvalidArgument(StringPrintf(
        "max_bins %d outside [2, 256]", options.max_bins));
  }
  if (options.reservoir_size < options.max_bins) {
    return Status::InvalidArgument(StringPrintf(
        "reservoir_size %d below max_bins %d", options.reservoir_size,
        options.max_bins));
  }
  reservoirs_.assign(static_cast<size_t>(schema.num_attrs()), {});
  for (int a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).is_categorical()) {
      if (schema.attr(a).cardinality > 256) {
        return Status::InvalidArgument(StringPrintf(
            "categorical attribute %d has cardinality %d > 256", a,
            schema.attr(a).cardinality));
      }
    } else {
      reservoirs_[static_cast<size_t>(a)].reserve(
          static_cast<size_t>(options.reservoir_size));
    }
  }
  schema_ = schema;
  quantizer_ = Quantizer();
  options_ = options;
  rng_ = Random(options.seed);
  observed_ = 0;
  initialized_ = true;
  frozen_ = false;
  return Status::OK();
}

void SketchQuantizer::Observe(const ColumnBlock& block, int64_t tuple) {
  if (!initialized_ || frozen_) return;
  const size_t cap = static_cast<size_t>(options_.reservoir_size);
  for (size_t a = 0; a < reservoirs_.size(); ++a) {
    if (schema_.attr(static_cast<int>(a)).is_categorical()) continue;
    std::vector<float>& reservoir = reservoirs_[a];
    const float v = block.value(tuple, static_cast<int>(a)).f;
    if (reservoir.size() < cap) {
      reservoir.push_back(v);
    } else {
      // Algorithm R: keep each of the n values seen with probability cap/n.
      const uint64_t j = rng_.Uniform(static_cast<uint64_t>(observed_) + 1);
      if (j < cap) reservoir[static_cast<size_t>(j)] = v;
    }
  }
  ++observed_;
}

Status SketchQuantizer::Freeze() {
  if (!initialized_) {
    return Status::InvalidArgument("SketchQuantizer::Freeze before Init");
  }
  if (frozen_) return Status::OK();
  std::vector<std::vector<float>> cuts(reservoirs_.size());
  for (size_t a = 0; a < reservoirs_.size(); ++a) {
    std::vector<float>& reservoir = reservoirs_[a];
    std::vector<float>& attr_cuts = cuts[a];
    std::sort(reservoir.begin(), reservoir.end());
    const int64_t n = static_cast<int64_t>(reservoir.size());
    if (n > 1) {
      // Quantile-spaced cuts at observed values; bin(v) counts cuts <= v,
      // so dedup keeps the invariant exact when quantiles collide.
      for (int i = 1; i < options_.max_bins; ++i) {
        const int64_t pos = i * n / options_.max_bins;
        if (pos <= 0 || pos >= n) continue;
        const float c = reservoir[static_cast<size_t>(pos)];
        if (attr_cuts.empty() || c > attr_cuts.back()) {
          attr_cuts.push_back(c);
        }
      }
    }
    reservoir.clear();
    reservoir.shrink_to_fit();
  }
  quantizer_ = Quantizer::FromCuts(schema_, std::move(cuts));
  frozen_ = true;
  return Status::OK();
}

uint64_t SketchQuantizer::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const std::vector<float>& reservoir : reservoirs_) {
    bytes += reservoir.capacity() * sizeof(float);
  }
  for (int a = 0; a < quantizer_.num_attrs(); ++a) {
    bytes += static_cast<uint64_t>(quantizer_.num_cuts(a)) * sizeof(float);
  }
  return bytes;
}

}  // namespace smptree
