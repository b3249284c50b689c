// Deterministic, fast pseudo-random generator (xoshiro256**) used by the
// synthetic data generator and by tests. Not cryptographic.
//
// Determinism across platforms matters here: the benchmark datasets are
// reproduced from a seed, so the generator must not depend on libstdc++
// distribution internals. All sampling helpers are hand-rolled.

#ifndef SMPTREE_UTIL_RANDOM_H_
#define SMPTREE_UTIL_RANDOM_H_

#include <bit>
#include <cstdint>

namespace smptree {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Random {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Random(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n) without modulo bias (n > 0).
  uint64_t Uniform(uint64_t n) {
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in the closed range [lo, hi].
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (used for value perturbation).
  double NextGaussian();

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace smptree

#endif  // SMPTREE_UTIL_RANDOM_H_
