#include "core/gini.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace smptree {

float SplitMidpoint(float lo, float hi) {
  assert(lo < hi);
  const float mid = lo + (hi - lo) * 0.5f;
  return mid > lo ? mid : hi;
}

SplitCandidate ReferenceEvaluateContinuousAttr(
    int attr, std::span<const AttrRecord> records, const ClassHistogram& total,
    const GiniOptions& options, GiniScratch* scratch) {
  SplitCandidate best;
  const size_t n = records.size();
  if (n < 2) return best;

  scratch->below.Reset(total.num_classes());
  scratch->above = total;
  // Hoisted out of the loop: the side totals follow the scan position
  // (below holds i+1 records), so no candidate needs a Total() pass over
  // the histograms.
  const int64_t n_total = total.Total();

  for (size_t i = 0; i + 1 < n; ++i) {
    const AttrRecord& rec = records[i];
    scratch->below.Add(rec.label);
    scratch->above.Remove(rec.label);
    const float v = rec.value.f;
    const float next = records[i + 1].value.f;
    assert(v <= next && "continuous attribute list must be sorted");
    if (v == next) continue;  // not a class boundary between equal values
    const int64_t nl = static_cast<int64_t>(i) + 1;
    const double gini = SplitImpurityWithTotals(
        scratch->below, scratch->above, nl, n_total - nl, options.criterion);
    SplitCandidate candidate;
    candidate.test.attr = attr;
    candidate.test.categorical = false;
    candidate.test.threshold = SplitMidpoint(v, next);
    candidate.gini = gini;
    candidate.left_count = nl;
    candidate.right_count = static_cast<int64_t>(n - i) - 1;
    if (candidate.BetterThan(best)) best = candidate;
  }
  return best;
}

SplitCandidate EvaluateContinuousAttr(int attr,
                                      std::span<const AttrRecord> records,
                                      const ClassHistogram& total,
                                      const GiniOptions& options,
                                      GiniScratch* scratch) {
  if (options.use_kernels) {
    return KernelEvaluateContinuousAttr(attr, records, total, options,
                                        scratch);
  }
  return ReferenceEvaluateContinuousAttr(attr, records, total, options,
                                         scratch);
}

namespace {

/// Large-domain greedy over a tabulated matrix (see
/// EvaluateCategoricalLargeAttr).
SplitCandidate LargeFromMatrix(int attr, const CountMatrix& matrix,
                               const ClassHistogram& total,
                               SplitCriterion criterion) {
  SplitCandidate best;
  const int cardinality = matrix.cardinality();
  assert(cardinality > 64 && cardinality <= kMaxCategoricalCardinality);
  const int num_classes = total.num_classes();
  const int64_t n = total.Total();

  // Greedy hill-climbing with incremental histograms: moving value v from
  // the right side to the left adds the matrix row v to `left` and removes
  // it from `right`; trial ginis are computed from the row deltas without
  // copying histograms.
  std::vector<uint64_t> mask((static_cast<size_t>(cardinality) + 63) / 64, 0);
  ClassHistogram left(num_classes);
  ClassHistogram right = total;
  double best_gini = 1e30;  // +inf sentinel (entropy can exceed gini's 2.0)

  auto trial_gini = [&](int v) {
    int64_t nl = 0;
    int64_t nr = 0;
    double sum_l = 0.0;
    double sum_r = 0.0;
    for (int c = 0; c < num_classes; ++c) {
      const int64_t delta = matrix.count(v, c);
      nl += left.count(c) + delta;
      nr += right.count(c) - delta;
    }
    if (nl == 0 || nr == 0) return 1e30;  // degenerate partition
    if (criterion == SplitCriterion::kGini) {
      for (int c = 0; c < num_classes; ++c) {
        const int64_t delta = matrix.count(v, c);
        const double pl = static_cast<double>(left.count(c) + delta) /
                          static_cast<double>(nl);
        const double pr = static_cast<double>(right.count(c) - delta) /
                          static_cast<double>(nr);
        sum_l += pl * pl;
        sum_r += pr * pr;
      }
      const double wl = static_cast<double>(nl) / static_cast<double>(n);
      return wl * (1.0 - sum_l) + (1.0 - wl) * (1.0 - sum_r);
    }
    // Entropy: sums accumulate -p log2 p directly.
    for (int c = 0; c < num_classes; ++c) {
      const int64_t delta = matrix.count(v, c);
      const double pl = static_cast<double>(left.count(c) + delta) /
                        static_cast<double>(nl);
      const double pr = static_cast<double>(right.count(c) - delta) /
                        static_cast<double>(nr);
      if (pl > 0.0) sum_l -= pl * std::log2(pl);
      if (pr > 0.0) sum_r -= pr * std::log2(pr);
    }
    const double wl = static_cast<double>(nl) / static_cast<double>(n);
    return wl * sum_l + (1.0 - wl) * sum_r;
  };

  for (;;) {
    int best_v = -1;
    double round_best = best_gini;
    for (int v = 0; v < cardinality; ++v) {
      if ((mask[v >> 6] >> (v & 63)) & 1) continue;
      if (matrix.ValueTotal(v) == 0) continue;  // no-op move
      const double g = trial_gini(v);
      if (g < round_best) {  // strict: stop when no improvement (ties keep
        round_best = g;      // the smaller subset, like the <=64 path)
        best_v = v;
      }
    }
    if (best_v < 0) break;
    mask[best_v >> 6] |= uint64_t{1} << (best_v & 63);
    for (int c = 0; c < num_classes; ++c) {
      const int64_t delta = matrix.count(best_v, c);
      left.Add(static_cast<ClassLabel>(c), delta);
      right.Remove(static_cast<ClassLabel>(c), delta);
    }
    best_gini = round_best;
  }

  if (left.Total() == 0 || left.Total() == n) return best;  // no valid split
  best.test.attr = attr;
  best.test.categorical = true;
  best.test.big_subset =
      std::make_shared<const std::vector<uint64_t>>(std::move(mask));
  best.gini = best_gini;
  best.left_count = left.Total();
  best.right_count = right.Total();
  return best;
}

/// Moves matrix row `v` across the partition held in `scratch`: onto the
/// left side (`below`) when `to_left`, back onto the right (`above`)
/// otherwise. Returns the signed change of the left side's tuple count.
/// The counts are integers, so they equal a rebuild from the rows.
int64_t MoveRow(const CountMatrix& matrix, int v, bool to_left,
                GiniScratch* scratch) {
  int64_t moved = 0;
  for (int c = 0; c < matrix.num_classes(); ++c) {
    const int64_t count = to_left ? matrix.count(v, c) : -matrix.count(v, c);
    scratch->below.Add(static_cast<ClassLabel>(c), count);
    scratch->above.Remove(static_cast<ClassLabel>(c), count);
    moved += count;
  }
  return moved;
}

/// Scores the partition held in `scratch` (left side = `mask`, `nl` of `n`
/// tuples) and keeps it in `best` when it wins under BetterThan. A
/// candidate is built only when its gini can win or tie.
void OfferSubset(int attr, uint64_t mask, int64_t nl, int64_t n,
                 SplitCriterion criterion, const GiniScratch& scratch,
                 SplitCandidate* best) {
  if (nl == 0 || nl == n) return;  // degenerate partition
  const double gini = SplitImpurityWithTotals(scratch.below, scratch.above,
                                              nl, n - nl, criterion);
  if (best->valid() && gini > best->gini) return;
  SplitCandidate candidate;
  candidate.test.attr = attr;
  candidate.test.categorical = true;
  candidate.test.subset = mask;
  candidate.gini = gini;
  candidate.left_count = nl;
  candidate.right_count = n - nl;
  if (candidate.BetterThan(*best)) *best = candidate;
}

/// Exhaustive / small-greedy search over a tabulated matrix. Each
/// candidate is one MoveRow from the last, so it costs O(classes).
SplitCandidate SmallFromMatrix(int attr, const CountMatrix& matrix,
                               const ClassHistogram& total,
                               const GiniOptions& options,
                               GiniScratch* scratch) {
  SplitCandidate best;
  const int cardinality = matrix.cardinality();
  if (cardinality < 2) return best;  // no proper subset
  const int64_t n = total.Total();
  scratch->below.Reset(total.num_classes());
  scratch->above = total;
  int64_t nl = 0;
  if (cardinality <= options.max_exhaustive_cardinality) {
    // Half Gray-code walk over the masks with bit c-1 clear: step i flips
    // value countr_zero(i), and the 2^(c-1)-1 steps visit each nonzero mask
    // below 2^(c-1) once. The other half needs no visit: a mask and its
    // complement score bit-identically (wl*G(L) + wr*G(R) is one
    // commutative addition), and BetterThan's tie-break keeps the smaller
    // mask of the pair, which is the one with bit c-1 clear. So the winner
    // is the (gini, mask) minimum over all 2^c-2 proper subsets,
    // independent of visit order.
    const uint64_t steps = (uint64_t{1} << (cardinality - 1)) - 1;
    uint64_t mask = 0;
    for (uint64_t i = 1; i <= steps; ++i) {
      const int v = std::countr_zero(i);
      mask ^= uint64_t{1} << v;
      nl += MoveRow(matrix, v, ((mask >> v) & 1) != 0, scratch);
      OfferSubset(attr, mask, nl, n, options.criterion, *scratch, &best);
    }
    return best;
  }

  // Greedy subsetting (paper section 2.2: "if the cardinality is too large a
  // greedy subsetting algorithm is used"): grow the subset one value at a
  // time, keeping the addition that lowers gini the most, until no addition
  // improves it. Each trial moves one row onto the grown subset's
  // histogram and back.
  uint64_t current = 0;
  for (;;) {
    SplitCandidate round_best = best;
    for (int v = 0; v < cardinality; ++v) {
      const uint64_t bit = uint64_t{1} << v;
      if (current & bit) continue;
      const int64_t moved = MoveRow(matrix, v, true, scratch);
      OfferSubset(attr, current | bit, nl + moved, n, options.criterion,
                  *scratch, &round_best);
      MoveRow(matrix, v, false, scratch);
    }
    // round_best starts as the grown subset's own candidate, whose mask
    // (`current`) every trial mask exceeds, so a tie keeps it.
    if (!round_best.valid() || round_best.test.subset == current) break;
    const int added = std::countr_zero(round_best.test.subset ^ current);
    nl += MoveRow(matrix, added, true, scratch);
    current = round_best.test.subset;
    best = round_best;
  }
  return best;
}

}  // namespace

SplitCandidate EvaluateCategoricalFromMatrix(int attr,
                                             const CountMatrix& matrix,
                                             const ClassHistogram& total,
                                             const GiniOptions& options,
                                             GiniScratch* scratch) {
  if (matrix.cardinality() > 64) {
    return LargeFromMatrix(attr, matrix, total, options.criterion);
  }
  return SmallFromMatrix(attr, matrix, total, options, scratch);
}

SplitCandidate EvaluateCategoricalLargeAttr(
    int attr, std::span<const AttrRecord> records, const ClassHistogram& total,
    int cardinality, GiniScratch* scratch) {
  if (records.size() < 2) return SplitCandidate();
  CountMatrix& matrix = scratch->matrix;
  matrix.Reset(cardinality, total.num_classes());
  for (const AttrRecord& rec : records) {
    matrix.Add(rec.value.cat, rec.label);
  }
  return LargeFromMatrix(attr, matrix, total, SplitCriterion::kGini);
}

SplitCandidate ReferenceEvaluateCategoricalAttr(
    int attr, std::span<const AttrRecord> records, const ClassHistogram& total,
    int cardinality, const GiniOptions& options, GiniScratch* scratch) {
  assert(cardinality >= 1 && cardinality <= kMaxCategoricalCardinality);
  if (records.size() < 2) return SplitCandidate();
  CountMatrix& matrix = scratch->matrix;
  matrix.Reset(cardinality, total.num_classes());
  for (const AttrRecord& rec : records) {
    matrix.Add(rec.value.cat, rec.label);
  }
  return EvaluateCategoricalFromMatrix(attr, matrix, total, options, scratch);
}

SplitCandidate EvaluateCategoricalAttr(int attr,
                                       std::span<const AttrRecord> records,
                                       const ClassHistogram& total,
                                       int cardinality,
                                       const GiniOptions& options,
                                       GiniScratch* scratch) {
  if (options.use_kernels) {
    return KernelEvaluateCategoricalAttr(attr, records, total, cardinality,
                                         options, scratch);
  }
  return ReferenceEvaluateCategoricalAttr(attr, records, total, cardinality,
                                          options, scratch);
}

SplitCandidate EvaluateAttr(const Schema& schema, int attr,
                            std::span<const AttrRecord> records,
                            const ClassHistogram& total,
                            const GiniOptions& options, GiniScratch* scratch) {
  const AttrInfo& info = schema.attr(attr);
  if (info.is_categorical()) {
    return EvaluateCategoricalAttr(attr, records, total, info.cardinality,
                                   options, scratch);
  }
  return EvaluateContinuousAttr(attr, records, total, options, scratch);
}

}  // namespace smptree
