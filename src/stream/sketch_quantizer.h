// Online cut-point learning for the streaming builder. Each continuous
// attribute keeps a fixed-size uniform reservoir of observed values
// (algorithm R); once enough of the stream has been seen, Freeze() turns
// the reservoirs into quantile-spaced cut points and hands them to
// Quantizer::FromCuts -- the batch engine's bin layout -- so the stream
// trainer bins, sizes histograms and sweeps splits through the same
// Quantizer as the binned engine, under the same invariant:
//
//   bin(v) = #{ cuts c : c <= v }    so    bin(v) <= i  <=>  v < cuts[i]
//
// Cuts are real observed values, so the finished tree carries ordinary
// `value < threshold` SplitTests and the serving path never sees a bin.
// Categorical attributes map code -> bin exactly, as in the batch engine.
//
// Freezing the cuts once (rather than re-deriving them as the stream
// drifts) keeps every LeafHistogram comparable across the whole run; the
// cost is that cut placement reflects the warmup prefix, which the
// reservoir's uniform sampling makes representative for stationary streams.

#ifndef SMPTREE_STREAM_SKETCH_QUANTIZER_H_
#define SMPTREE_STREAM_SKETCH_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "binned/quantizer.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "util/random.h"
#include "util/status.h"

namespace smptree {

/// Reservoir-sketch quantizer. Not thread-safe; one owner thread observes
/// and freezes, after which quantizer() is safe to share read-only.
class SketchQuantizer {
 public:
  struct Options {
    int max_bins = 64;        ///< bins per continuous attribute, in [2, 256]
    int reservoir_size = 2048;  ///< samples kept per continuous attribute
    uint64_t seed = 1;        ///< reservoir replacement randomness
  };

  /// Sizes the reservoirs for `schema`. Categorical cardinalities must fit
  /// the uint8 bin space (<= 256), as in the batch quantizer.
  Status Init(const Schema& schema, const Options& options);

  /// Feeds tuple `tuple` of `block` into the reservoirs. No-op once frozen.
  void Observe(const ColumnBlock& block, int64_t tuple);

  /// Derives cuts from the reservoirs and fixes the bin layout. Idempotent;
  /// fails if Init has not run. Attributes with an empty reservoir get a
  /// single bin (no cuts), which simply yields no split candidates.
  Status Freeze();

  bool frozen() const { return frozen_; }
  int64_t observed() const { return observed_; }

  /// The frozen bin layout (empty before Freeze).
  const Quantizer& quantizer() const { return quantizer_; }

  /// Reservoir + cut storage actually held, for the /statz memory line.
  uint64_t MemoryBytes() const;

 private:
  Schema schema_;
  /// Per attribute; empty for categorical, released by Freeze.
  std::vector<std::vector<float>> reservoirs_;
  Quantizer quantizer_;
  Options options_;
  Random rng_{1};
  int64_t observed_ = 0;
  bool initialized_ = false;
  bool frozen_ = false;
};

}  // namespace smptree

#endif  // SMPTREE_STREAM_SKETCH_QUANTIZER_H_
