// Test-only reference enumeration of the tuner's candidate space: the
// nested-loop walk.
//
// oracle_enumerate() visits the cross product of the discretized parameter
// values in walk order, applies the structural rules as loop-level
// `continue`s, validates every combination it reaches, and feeds each
// valid one straight into one reservoir per requested (budget, seed). It
// materializes nothing beyond the reservoirs, so one serial walk serves
// every sample. It shares no code with tuner::Grid, only codegen::validate
// and the reservoir's contract (Rng(seed ^ 0xC0FFEE), one next_below(k)
// draw for every valid ordinal k past the budget, the result sorted by
// KernelParams::key()), so the tests check the Grid's validity pass,
// reservoir and sort against an independent reading of the space.
#pragma once

#include <cstdint>
#include <vector>

#include "codegen/params.hpp"
#include "simcl/device_registry.hpp"
#include "tuner/candidates.hpp"

namespace gemmtune::tuner {

/// One reservoir the walk fills.
struct OracleSample {
  int max_candidates = 0;  ///< >= 1
  std::uint64_t seed = 1;
};

struct OracleResult {
  EnumStats stats;  ///< the same for every sample
  /// One candidate list per sample, in sample order.
  std::vector<std::vector<codegen::KernelParams>> lists;
};

OracleResult oracle_enumerate(simcl::DeviceId id, codegen::Precision prec,
                              bool include_row_major,
                              const std::vector<OracleSample>& samples);

}  // namespace gemmtune::tuner
