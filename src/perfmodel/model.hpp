// Analytic performance model for generated GEMM kernels on the simulated
// devices.
//
// The model combines the mechanisms the paper identifies:
//  * instruction issue: mads vs. staging loads vs. loop overhead (the Kwi
//    unrolling parameter, Section III-A),
//  * vector-width match to the device ALUs (Section III-B),
//  * work-group/wavefront quantization,
//  * occupancy limited by registers and local memory, and the resulting
//    latency hiding,
//  * global-memory traffic with cache-captured reuse when local memory is
//    not used, layout-dependent coalescing, and bank-conflict collapse for
//    row-major pitches at the conflict stride (Section IV-A),
//  * local-memory bandwidth and barrier cost (Cayman's weakness),
//  * per-algorithm overlap: BA relies on multi-work-group occupancy, PL
//    overlaps global loads with compute in-thread, DB overlaps via the
//    double-buffered halves (Section III-E).
//
// The single per-device/precision arithmetic-efficiency anchor is solved so
// the paper's Table II kernel reproduces the paper's GFlop/s; everything
// else creates the *relative* cost surface the tuner searches.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "codegen/params.hpp"
#include "perfmodel/calibration.hpp"
#include "perfmodel/statics.hpp"
#include "simcl/device_registry.hpp"

namespace gemmtune::perfmodel {

/// Result of timing one kernel launch.
struct Estimate {
  bool ok = false;
  std::string reason;  ///< failure reason when !ok

  double seconds = 0;
  double gflops = 0;  ///< 2*M*N*K / seconds (the paper's metric)

  // Breakdown (exposed for tests, ablation benches and debugging).
  double t_compute = 0;
  double t_global = 0;
  double t_local = 0;
  double t_barrier = 0;
  double occupancy = 0;  ///< concurrent work-groups per compute unit
  double hide = 0;       ///< latency-hiding factor in [0, 1]
  double issue_eff = 0;
  double vec_eff = 0;
  double wg_eff = 0;
  double quant = 0;      ///< wave quantization factor in (0, 1]
};

/// Performance model bound to one simulated device.
///
/// Thread safety: the model is immutable after construction (the Table II
/// anchors are solved eagerly in the constructor), so all const member
/// functions may be called concurrently from any number of threads.
class PerfModel {
 public:
  explicit PerfModel(simcl::DeviceId id);

  simcl::DeviceId device_id() const { return id_; }
  const simcl::DeviceSpec& spec() const { return dev_; }
  const DeviceCalib& calib() const { return cal_; }

  /// Times the A^T*B kernel on a padded (Mp, Np, Kp) problem; a pure
  /// function of its inputs.
  Estimate kernel_estimate(const codegen::KernelParams& p, std::int64_t Mp,
                           std::int64_t Np, std::int64_t Kp) const;

  /// Does nothing: kernel_estimate keeps no cache, so every evaluation is
  /// cold. Kept for the benchmark in perfbench/, which calls it before
  /// timing cold evaluations and cannot change with the code it measures.
  static void clear_thread_cache();

  /// GFlop/s on a square padded problem (0 when the kernel is infeasible).
  double kernel_gflops(const codegen::KernelParams& p, std::int64_t n) const;

  /// Duration of a pack/copy kernel moving `bytes_moved` bytes through
  /// global memory (read + write), the O(N^2) overhead of Section IV-B.
  double copy_seconds(std::uint64_t bytes_moved) const;

  /// The solved arithmetic-efficiency anchor (exposed for tests).
  double alu_anchor(codegen::Precision prec) const;

  /// Problem size the paper's stage-1 search measures at on this device:
  /// the largest multiple of LCM(Mwg,Nwg,Kwg) not exceeding 4096 (GPU) or
  /// 1536 (CPU).
  std::int64_t stage1_size(const codegen::KernelParams& p) const;

 private:
  /// The parameter-dependent compute-efficiency factors. `goodness` is the
  /// part a better-tuned kernel could raise (issue scheduling, work-group
  /// shape); vec and reg are penalties that always apply.
  struct EffFactors {
    bool ok = true;  ///< false: register allocation failed
    double issue = 0, vec = 0, reg = 0, wg = 0;
    double goodness() const { return issue * wg; }
    double product() const { return issue * vec * reg * wg; }
  };
  EffFactors factors(const codegen::KernelParams& p) const;

  Estimate estimate_with_anchor(const codegen::KernelParams& p,
                                std::int64_t Mp, std::int64_t Np,
                                std::int64_t Kp, double anchor) const;
  double solve_anchor(codegen::Precision prec) const;

  simcl::DeviceId id_;
  const simcl::DeviceSpec& dev_;
  const DeviceCalib& cal_;
  /// Ceiling on reported GFlop/s, per precision: 5% above the Table II
  /// maximum (and never above the boosted peak). No real kernel on this
  /// hardware/compiler stack reached more, so the model must not either.
  std::array<double, 2> gflops_ceiling_{1e30, 1e30};
  /// issue*wg goodness of the Table II anchor kernel — treated as this
  /// hardware/compiler stack's demonstrated compute frontier. Penalty
  /// factors (vector mismatch, register spills) apply on top.
  std::array<double, 2> seed_goodness_{1.0, 1.0};
  /// Solved eagerly at construction so const methods stay lock-free.
  std::array<double, 2> anchors_{-1.0, -1.0};
};

}  // namespace gemmtune::perfmodel
