#include "binned/quantizer.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "core/gini.h"
#include "parallel/scheduler.h"
#include "util/string_util.h"

namespace smptree {

namespace {

// Cut points for one continuous column. `values` is consumed (sorted in
// place). Cuts use SplitMidpoint, the same midpoint arithmetic as the exact
// evaluators, so a cut and the corresponding exact threshold agree
// bit-for-bit whenever they straddle the same value pair.
std::vector<float> ContinuousCuts(std::vector<float>* values, int max_bins) {
  std::vector<float>& v = *values;
  std::vector<float> cuts;
  if (v.empty()) return cuts;
  std::sort(v.begin(), v.end());

  size_t distinct = 1;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] < v[i]) ++distinct;
  }
  if (distinct <= static_cast<size_t>(max_bins)) {
    // Exact mode: one bin per distinct value. The candidate boundaries are
    // then precisely the exact engine's candidate split points, which is
    // what the winner-parity tests pin down.
    cuts.reserve(distinct - 1);
    for (size_t i = 1; i < v.size(); ++i) {
      if (v[i - 1] < v[i]) cuts.push_back(SplitMidpoint(v[i - 1], v[i]));
    }
    return cuts;
  }

  // Quantile mode: aim each cut at position k*n/max_bins, then advance to
  // the next real value boundary so every cut separates two distinct values
  // (a skewed column like {0 x 999, 1 x 1} still gets its one useful cut
  // instead of max_bins-1 copies of a boundary inside the 0-run). `j` only
  // moves forward, so duplicate cuts cannot arise.
  cuts.reserve(static_cast<size_t>(max_bins) - 1);
  const size_t n = v.size();
  size_t j = 0;  // last boundary used (v[j-1] < v[j])
  for (int k = 1; k < max_bins; ++k) {
    size_t pos = n * static_cast<size_t>(k) / static_cast<size_t>(max_bins);
    if (pos <= j) pos = j + 1;
    while (pos < n && !(v[pos - 1] < v[pos])) ++pos;
    if (pos >= n) break;
    cuts.push_back(SplitMidpoint(v[pos - 1], v[pos]));
    j = pos;
  }
  return cuts;
}

}  // namespace

Quantizer Quantizer::FromCuts(const Schema& schema,
                              std::vector<std::vector<float>> cuts) {
  assert(static_cast<int>(cuts.size()) == schema.num_attrs());
  Quantizer q;
  q.attrs_.resize(cuts.size());
  for (size_t a = 0; a < cuts.size(); ++a) {
    AttrBins& bins = q.attrs_[a];
    const AttrInfo& info = schema.attr(static_cast<int>(a));
    bins.categorical = info.is_categorical();
    bins.cuts = std::move(cuts[a]);
    bins.num_bins = bins.categorical
                        ? info.cardinality
                        : static_cast<int>(bins.cuts.size()) + 1;
    bins.offset = q.total_bins_;
    q.total_bins_ += bins.num_bins;
  }
  return q;
}

Status Quantizer::Build(const Dataset& data, int max_bins, int num_threads) {
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument("max_bins outside [2,256]");
  }
  const int num_attrs = data.num_attrs();
  for (int a = 0; a < num_attrs; ++a) {
    const AttrInfo& info = data.schema().attr(a);
    if (info.is_categorical() && info.cardinality > max_bins) {
      return Status::NotSupported(StringPrintf(
          "binned engine: categorical attribute '%s' has cardinality %d > "
          "max_bins %d",
          info.name.c_str(), info.cardinality, max_bins));
    }
  }
  std::vector<std::vector<float>> cuts(static_cast<size_t>(num_attrs));
  ParallelFor(num_threads, num_attrs, [&](int64_t a, int) {
    if (data.schema().attr(static_cast<int>(a)).is_categorical()) return;
    const std::span<const AttrValue> column = data.column(static_cast<int>(a));
    std::vector<float> values(column.size());
    for (size_t i = 0; i < column.size(); ++i) values[i] = column[i].f;
    cuts[static_cast<size_t>(a)] = ContinuousCuts(&values, max_bins);
  });
  *this = FromCuts(data.schema(), std::move(cuts));
  return Status::OK();
}

Status BinMatrix::Materialize(const Dataset& data, const Quantizer& quantizer,
                              int num_threads) {
  if (quantizer.num_attrs() != data.num_attrs()) {
    return Status::InvalidArgument("quantizer/dataset attribute mismatch");
  }
  num_tuples_ = data.num_tuples();
  num_attrs_ = data.num_attrs();
  codes_.resize(static_cast<size_t>(num_attrs_) *
                static_cast<size_t>(num_tuples_));
  // One status per column: each task writes only its own slot and column.
  std::vector<Status> errors(static_cast<size_t>(num_attrs_));
  ParallelFor(num_threads, num_attrs_, [&](int64_t task, int) {
    const int a = static_cast<int>(task);
    const std::span<const AttrValue> column = data.column(a);
    uint8_t* out = codes_.data() + static_cast<size_t>(a) * num_tuples_;
    if (!quantizer.categorical(a)) {
      for (int64_t t = 0; t < num_tuples_; ++t) {
        out[t] = quantizer.BinOf(a, column[static_cast<size_t>(t)]);
      }
      return;
    }
    for (int64_t t = 0; t < num_tuples_; ++t) {
      const int32_t code = column[static_cast<size_t>(t)].cat;
      if (code < 0 || code >= quantizer.num_bins(a)) {
        errors[static_cast<size_t>(a)] = Status::Corruption(StringPrintf(
            "categorical code %d of attribute %d outside [0,%d)", code, a,
            quantizer.num_bins(a)));
        return;
      }
      out[t] = static_cast<uint8_t>(code);
    }
  });
  for (Status& error : errors) {
    if (!error.ok()) return std::move(error);
  }
  return Status::OK();
}

}  // namespace smptree
