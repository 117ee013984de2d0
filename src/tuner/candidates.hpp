// Heuristic candidate enumeration for the auto-tuner (paper Section III-F:
// "We searched tens of thousands of kernel variants per single GEMM type
// ... Those many variants were heuristically chosen").
//
// The candidate space is one 14-axis Grid of discretized parameter values.
// The Grid holds the only copy of the structural rules; with
// codegen::validate they decide which points are in the space. Neither
// reads the last three axes (stride bits and the two operand layouts), so
// validity is a property of the 11-axis prefix. enumerate_candidates
// records prefix validity in a bitset, reservoir-subsamples the valid
// points in walk order, and decodes only the points it keeps: nothing else
// is materialized. All three steps and the final key sort run on one
// thread pool, and the result is the serial walk's for any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "codegen/params.hpp"
#include "simcl/device_registry.hpp"

namespace gemmtune {
class ThreadPool;
}

namespace gemmtune::tuner {

/// Enumeration controls.
struct EnumOptions {
  int max_candidates = 20000;   ///< budget after validation (>= 1)
  std::uint64_t seed = 1;       ///< subsampling determinism
  bool include_row_major = false;  ///< also enumerate RM operand layouts

  /// Worker threads for the enumeration (validity pass, reservoir draws,
  /// decoding and the key sort). 0 uses the process-wide pool. The
  /// candidate list and EnumStats are bit-identical for every thread
  /// count: the draws are split into contiguous chunks whose generators
  /// start at their offsets, and their replacements apply in walk order.
  int threads = 0;
};

/// Statistics from one enumeration run (the paper reports that failed
/// kernels "are not counted" toward the tested variants).
struct EnumStats {
  std::int64_t raw_combinations = 0;  ///< points passing the structural rules
  std::int64_t invalid = 0;           ///< of those, rejected by validate()
  /// Valid points (raw_combinations - invalid): the space the reservoir
  /// subsamples into the budget, not the number of returned candidates.
  std::int64_t valid = 0;
};

/// The discretized parameter grid. Axes, slowest first: Mwg, Nwg, Kwg,
/// MdimC, NdimC, Kwi, vw, share bits (share_a | share_b << 1), algorithm
/// (BA, PL, DB), MdimA reshape, NdimB reshape, stride bits (stride_m |
/// stride_n << 1), layout_a, layout_b. Walk order is the row-major order of
/// these coordinates. The layouts are CBL and RBL, plus RowMajor when
/// row-major operands are included. Guided strategies step along the same
/// axes, so every point they can propose is a point the enumeration could
/// visit.
class Grid {
 public:
  static constexpr int kAxes = 14;
  /// Validity depends only on the first kPrefixAxes coordinates.
  static constexpr int kPrefixAxes = 11;
  using Coords = std::array<int, kAxes>;

  Grid(const simcl::DeviceSpec& dev, bool include_row_major);

  int axis_size(int axis) const {
    return sizes_[static_cast<std::size_t>(axis)];
  }

  /// Grid point -> kernel params; nullopt when the point fails a
  /// structural rule or validate().
  std::optional<codegen::KernelParams> decode(const Coords& c,
                                              codegen::Precision prec) const;

  /// Kernel params -> grid point; nullopt when a value is off-axis.
  std::optional<Coords> encode(const codegen::KernelParams& p) const;

  /// Coordinates of the point at `index` in walk order.
  Coords coords(std::int64_t index) const;

  /// Points under one prefix: every (stride bits, layout_a, layout_b).
  int points_per_prefix() const;

  /// Prefix validity for one precision, in walk order.
  struct Validity {
    /// Bit i set: prefix i passes the structural rules and validate(), so
    /// all points_per_prefix() points under it are valid.
    std::vector<std::uint64_t> bits;
    std::int64_t structural = 0;  ///< prefixes passing the structural rules
    std::int64_t invalid = 0;     ///< of those, rejected by validate()
  };

  /// Classifies every prefix. (Mwg, Nwg) blocks fan out over `pool`; each
  /// block owns whole bitset words, and the result is the same for every
  /// pool size.
  Validity validity(codegen::Precision prec, ThreadPool& pool) const;

 private:
  /// The grid's structural rules, applied before validate(). Returns -1
  /// when `c` passes them, otherwise the highest axis the first failing
  /// rule reads: every point that agrees with `c` up to that axis fails
  /// too. Rules are checked in axis order, so the pass skips the largest
  /// sub-block the failure allows.
  int structural_miss(const Coords& c) const;

  /// The kernel params at `c`, unchecked.
  codegen::KernelParams params_at(const Coords& c,
                                  codegen::Precision prec) const;

  std::array<int, kAxes> sizes_{};
  simcl::DeviceSpec dev_;
};

/// Enumerates valid kernel parameter sets for the device/precision: a
/// uniform reservoir subsample of at most max_candidates points of the
/// Grid, sorted by KernelParams::key(). Throws gemmtune::Error when
/// max_candidates < 1.
std::vector<codegen::KernelParams> enumerate_candidates(
    simcl::DeviceId id, codegen::Precision prec, const EnumOptions& opt,
    EnumStats* stats = nullptr);

}  // namespace gemmtune::tuner
