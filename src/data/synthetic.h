// Synthetic training-set generator reimplementing the classification
// benchmark of Agrawal, Imielinski & Swami (IEEE TKDE 5(6), 1993) -- the
// generator the paper's evaluation uses. Ten classification functions of
// increasing complexity label each tuple "Group A" or "Group B" from nine
// base attributes:
//
//   salary      continuous  uniform [20000, 150000]
//   commission  continuous  0 if salary >= 75000, else uniform [10000, 75000]
//   age         continuous  uniform [20, 80]
//   elevel      categorical uniform {0..4}           (education level)
//   car         categorical uniform {1..20}          (make of car)
//   zipcode     categorical uniform {0..8}
//   hvalue      continuous  uniform [0.5k, 1.5k] * 100000, k = 9 - zipcode
//   hyears      continuous  uniform [1, 30]
//   hloan       continuous  uniform [0, 500000]
//
// The paper's datasets are named Fx-Ay-DzK: function x, y attributes,
// z thousand tuples. Attribute counts beyond nine are reached by padding
// with irrelevant attributes (alternating continuous and categorical), which
// is what makes the "number of attributes" axis of Figures 8-11 meaningful:
// the extra lists must still be evaluated and split every level.
//
// Function 1 yields small trees; function 7 (a linear surface in
// salary+commission and loan) yields large trees -- the complexity contrast
// the evaluation section leans on.

#ifndef SMPTREE_DATA_SYNTHETIC_H_
#define SMPTREE_DATA_SYNTHETIC_H_

#include <cstdint>
#include <span>
#include <string>

#include "data/dataset.h"
#include "util/random.h"
#include "util/status.h"

namespace smptree {

/// Generation parameters.
struct SyntheticConfig {
  int function = 1;         ///< classification function, 1..10
  int num_attrs = 9;        ///< total attributes (>= 9; extras are noise)
  int64_t num_tuples = 1000;
  uint64_t seed = 42;
  /// Probability of flipping a tuple's label (classification noise). The
  /// original benchmark perturbs values; label noise exercises the same
  /// pruning behaviour and keeps the functions exact. 0 = noise-free.
  double label_noise = 0.0;

  /// Dataset name in the paper's notation, e.g. "F7-A32-D250K".
  std::string Name() const;
};

/// Generates a dataset per `config`. Deterministic in (seed, config).
Result<Dataset> GenerateSynthetic(const SyntheticConfig& config);

/// Appends `n` Agrawal tuples to `data` (a SyntheticSchema dataset),
/// advancing `rng` exactly as GenerateSynthetic does per tuple -- the
/// streaming source calls this too, so a generator stream and a
/// materialized dataset built from the same seed agree tuple for tuple.
void AppendSynthetic(int function, double label_noise, int64_t n, Random* rng,
                     Dataset* data);

/// The nine-attribute base schema padded to `num_attrs`, with classes
/// {"Group A", "Group B"}.
Schema SyntheticSchema(int num_attrs);

/// Evaluates classification function `function` (1..10) on base attribute
/// values; exposed for tests that verify the generator's labels.
/// `values` must follow SyntheticSchema attribute order.
bool SyntheticGroupA(int function, std::span<const AttrValue> values);

/// Number of defined classification functions (10).
int NumSyntheticFunctions();

/// Multiclass extension: the published benchmark is two-class; this
/// generator quantizes the function-9-style disposable-income surface into
/// `num_classes` bands, producing k-way problems over the same attribute
/// space (used to exercise the k-class histogram and gini paths end to
/// end).
struct MulticlassConfig {
  int num_classes = 4;  ///< 2..16
  int num_attrs = 9;    ///< >= 9, padded as in SyntheticSchema
  int64_t num_tuples = 1000;
  uint64_t seed = 42;
  double label_noise = 0.0;  ///< probability of re-rolling a label uniformly
};

/// The padded schema with classes {"band 0", ..., "band k-1"}.
Schema MulticlassSchema(int num_attrs, int num_classes);

/// Band index for base attribute values (exposed for tests).
int MulticlassBand(const TupleValues& values, int num_classes);

Result<Dataset> GenerateMulticlassSynthetic(const MulticlassConfig& config);

}  // namespace smptree

#endif  // SMPTREE_DATA_SYNTHETIC_H_
