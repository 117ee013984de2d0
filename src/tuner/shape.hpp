// Input-aware shapes for the tuner (IAAT-style, ROADMAP item 1).
//
// A ShapeClass is the tile-quantized (precision, type, M, N, K) key that the
// serving layer batches on; moving it into the tuner lets a TunedDatabase
// key results per shape class and lets a search optimize the full delivered
// cost of one class — pack/copy overhead plus kernel time, or the guarded
// copy-free direct kernel when that wins — instead of the size-agnostic
// square-sweep peak.
//
// shape_cost() is the single source of truth for "what does running kernel
// params p on problem (M, N, K) cost": GemmEngine::estimate and the
// shape-aware search strategies both price candidates through it, so the
// kernel a shape-class tune selects is the kernel the engine's dispatch
// will actually prefer.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "codegen/params.hpp"
#include "layout/gemm_type.hpp"
#include "layout/matrix.hpp"
#include "perfmodel/model.hpp"

namespace gemmtune::tuner {

/// The largest extent a shape class holds: rounded up to a multiple of 16
/// it stays inside int64.
inline constexpr index_t kMaxShapeExtent =
    std::numeric_limits<index_t>::max() - 15;

/// Refuses an extent over kMaxShapeExtent, naming it and the limit.
[[noreturn]] void fail_shape_extent(index_t n);

/// Batching/tuning key: problems of one shape class share a kernel.
struct ShapeClass {
  codegen::Precision prec = codegen::Precision::DP;
  GemmType type = GemmType::NN;
  index_t Mc = 0, Nc = 0, Kc = 0;  ///< extents rounded up to multiples of 16

  /// Throws, via fail_shape_extent(), for n over kMaxShapeExtent.
  static index_t quantize(index_t n) {
    if (n > kMaxShapeExtent) fail_shape_extent(n);
    return n <= 16 ? 16 : (n + 15) / 16 * 16;
  }
  /// Classifies any request-like object carrying prec/type/M/N/K.
  template <typename Request>
  static ShapeClass of(const Request& r) {
    return {r.prec, r.type, quantize(r.M), quantize(r.N), quantize(r.K)};
  }

  friend bool operator<(const ShapeClass& a, const ShapeClass& b) {
    return std::tuple(static_cast<int>(a.prec), static_cast<int>(a.type),
                      a.Mc, a.Nc, a.Kc) <
           std::tuple(static_cast<int>(b.prec), static_cast<int>(b.type),
                      b.Mc, b.Nc, b.Kc);
  }
  friend bool operator==(const ShapeClass& a, const ShapeClass& b) {
    return !(a < b) && !(b < a);
  }
};

/// Stable display/report key for a shape class, e.g. "SGEMM.NN.64x64x64".
inline std::string to_string(const ShapeClass& c) {
  return std::string(to_string(c.prec)) + "." + to_string(c.type) + "." +
         std::to_string(c.Mc) + "x" + std::to_string(c.Nc) + "x" +
         std::to_string(c.Kc);
}

/// Extra model cost of the guarded (non-divisible fringe) direct kernel on
/// top of DeviceCalib::direct_penalty.
inline constexpr double kDirectGuardPenalty = 1.08;

/// The tuned parameters adapted for in-place operands (vw = 1, row-major-
/// equivalent strided access for the model). Non-divisible problems need
/// the guarded variant, which exists for the BA algorithm only — and a
/// bounds-checked small kernel has no use for software pipelining anyway.
codegen::KernelParams direct_variant(const codegen::KernelParams& p);

/// Delivered cost of running kernel `p` on one (M, N, K) problem.
struct ShapeCost {
  bool ok = false;       ///< some path (packed or direct) is usable
  bool pack_ok = false;  ///< the packed path specifically is usable
  std::string reason;    ///< model rejection reason when !pack_ok
  double seconds = 0;        ///< total of the chosen path
  double copy_seconds = 0;   ///< pack A/B/C + unpack C (0 on the direct path)
  double kernel_seconds = 0;
  double gflops = 0;
  bool used_direct = false;  ///< the copy-free direct kernel won
};

/// Prices problem (M, N, K) under kernel `p`: the packed path (four padded
/// O(N^2) copies plus the tuned kernel on padded extents) against the
/// guarded direct path, returning whichever is cheaper. Pure model
/// arithmetic — deterministic and safe to call from any thread.
ShapeCost shape_cost(const perfmodel::PerfModel& model,
                     const codegen::KernelParams& p, index_t M, index_t N,
                     index_t K, bool direct_enabled = true);

}  // namespace gemmtune::tuner
