// Small integer helpers used throughout the blocking and layout math.
#pragma once

#include <cstdint>
#include <numeric>

#include "common/error.hpp"

namespace gemmtune {

/// Ceiling division for non-negative integers.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Rounds `a` up to the next multiple of `b` (b > 0).
constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

/// Rounds `a` down to the previous multiple of `b` (b > 0).
constexpr std::int64_t round_down(std::int64_t a, std::int64_t b) {
  return (a / b) * b;
}

/// True when `a` is a (positive) multiple of `b`.
constexpr bool divides(std::int64_t b, std::int64_t a) {
  return b != 0 && a % b == 0;
}

/// Least common multiple of three positive integers; the paper uses
/// LCM(Mwg, Nwg, Kwg) to pick benchmark problem sizes (Section III-F).
inline std::int64_t lcm3(std::int64_t a, std::int64_t b, std::int64_t c) {
  check(a > 0 && b > 0 && c > 0, "lcm3 requires positive arguments");
  return std::lcm(std::lcm(a, b), c);
}

/// Stores a + b in `*out` and returns true, or returns false when the sum
/// is outside the int64 range. The check is one flag test, so build any
/// error message on the false path only.
inline bool add_fits(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return !__builtin_add_overflow(a, b, out);
}

/// Stores a * b in `*out` and returns true, or returns false when the
/// product is outside the int64 range.
inline bool mul_fits(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return !__builtin_mul_overflow(a, b, out);
}

/// True when `x` is a power of two (x > 0).
constexpr bool is_pow2(std::int64_t x) { return x > 0 && (x & (x - 1)) == 0; }

/// Largest problem size `n <= cap` that is a positive multiple of `step`;
/// returns `step` itself when cap < step (the paper clamps the same way by
/// construction since blocking factors never exceed the stage-1 size).
inline std::int64_t largest_multiple_le(std::int64_t cap, std::int64_t step) {
  check(step > 0, "step must be positive");
  const std::int64_t n = round_down(cap, step);
  return n >= step ? n : step;
}

}  // namespace gemmtune
