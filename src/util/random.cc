#include "util/random.h"

#include <cmath>

namespace smptree {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
}

int64_t Random::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

bool Random::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Random::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  have_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

}  // namespace smptree
