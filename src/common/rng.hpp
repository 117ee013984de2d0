// Deterministic pseudo-random number generation.
//
// All randomness in the library (matrix fill, tuner tie-breaking, test data)
// flows through this splitmix64-based generator so that every run, test and
// benchmark is reproducible from an explicit seed.
#pragma once

#include <cstdint>

namespace gemmtune {

/// splitmix64: tiny, fast, well-distributed 64-bit PRNG. Not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  /// Skips the next `n` values: the state is a counter, so the generator
  /// then continues exactly as if next_u64() had been called `n` times.
  void discard(std::uint64_t n) { state_ += n * 0x9e3779b97f4a7c15ull; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound) for bound > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    return next_u64() % bound;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  std::uint64_t state_;
};

}  // namespace gemmtune
