// Public GEMM API (paper Section IV-B).
//
// GemmEngine implements the paper's GEMM routines on a simulated device:
// every multiplication type (NN/NT/TN/TT, column-major host matrices) is
// performed by packing the operands into block-major, zero-padded device
// buffers — transposing as needed — and running the device's tuned
// C <- alpha*A^T*B + beta*C kernel, then unpacking the result.
//
// Two entry points:
//  * gemm<T>(): functionally executes the real generated kernel through the
//    lockstep interpreter on real data (use moderate sizes; interpretation
//    costs real host time) and reports the simulated device timing.
//  * estimate(): timing only, any size — this is what the benchmark
//    harnesses sweep to regenerate the paper's figures.
//
// Like the paper's host code, an engine builds each kernel once and
// enqueues it many times: gemm() generates and prepares a kernel on its
// first use and launches the kept ir handle afterwards. On the native tier
// that first use does not wait for the host compiler: the kernel's object
// loads from the on-disk JIT cache if it is there, and otherwise the kernel
// runs on bytecode until a background build fills its handle
// (ir::prepare_tiered()). Destroying an engine drops its queued builds and
// waits for its running one; wait_native_builds() waits for all of them.
// Concurrent gemm() and estimate() calls on one engine are safe.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "codegen/params.hpp"
#include "kernelir/interp.hpp"
#include "layout/gemm_type.hpp"
#include "layout/matrix.hpp"
#include "perfmodel/model.hpp"
#include "simcl/runtime.hpp"
#include "tuner/results_db.hpp"

namespace gemmtune::blas {

/// Simulated-time breakdown of one GEMM call.
struct GemmProfile {
  double total_seconds = 0;
  double copy_seconds = 0;    ///< pack A/B/C + unpack C (the O(N^2) part)
  double kernel_seconds = 0;  ///< the tuned A^T*B kernel
  double gflops = 0;  ///< 2*M*N*K / total_seconds (0 when the simulated
                      ///< duration is zero/denormal — tiny problems on
                      ///< fast devices must not report inf)
  /// Maximum absolute error vs. the host reference; only filled by the
  /// functional path when `verify` is requested.
  double max_error = -1;
  /// True when the copy-free direct kernel was used (the paper's future-
  /// work extension for small sizes, Section V).
  bool used_direct = false;
};

/// GEMM engine bound to one simulated device and a tuning database.
class GemmEngine {
 public:
  /// Uses the given database; kernels for a precision are taken from it
  /// (falling back to a paper-seeded profile on a miss).
  explicit GemmEngine(simcl::DeviceId id);
  GemmEngine(simcl::DeviceId id, tuner::TunedDatabase db);
  /// Drops the engine's queued native builds and waits for its running
  /// one, which fills its handle and is never killed.
  ~GemmEngine();
  GemmEngine(const GemmEngine&) = delete;
  GemmEngine& operator=(const GemmEngine&) = delete;

  /// Drops the queued native builds of all `engines` and waits for their
  /// running one (ir::settle_native_builds()). An owner of several engines
  /// calls this before destroying them, so that it waits for at most one
  /// build rather than one per engine.
  static void settle_native_builds(
      std::span<const std::unique_ptr<GemmEngine>> engines);

  /// Waits until every native build of this engine's kernels has run, so
  /// that its later calls run on the tier they name. Returns true when a
  /// kernel of it was built in the background: calls before this one may
  /// have run on bytecode. Not concurrent with gemm().
  bool wait_native_builds();

  simcl::DeviceId device_id() const { return id_; }
  const perfmodel::PerfModel& model() const { return model_; }

  /// The tuned kernel used for a precision.
  const tuner::TunedKernel& kernel_for(codegen::Precision prec);

  /// Functional GEMM: C <- alpha*op(A)*op(B) + beta*C on column-major host
  /// matrices. Runs the generated kernel in the interpreter against SimCL
  /// buffers; returns the simulated-time profile. With `verify` true, also
  /// compares against the host reference and fills max_error.
  template <typename T>
  GemmProfile gemm(Transpose ta, Transpose tb, index_t M, index_t N,
                   index_t K, T alpha, const Matrix<T>& A, const Matrix<T>& B,
                   T beta, Matrix<T>& C, bool verify = false);

  /// Timing-only GEMM estimate for an arbitrary problem size.
  GemmProfile estimate(GemmType type, codegen::Precision prec, index_t M,
                       index_t N, index_t K);

  /// Convenience: estimated GFlop/s on a square problem.
  double estimate_gflops(GemmType type, codegen::Precision prec, index_t n);

  /// Enables/disables the copy-free small-size kernel (default on).
  void set_direct_path(bool enabled) { direct_enabled_ = enabled; }

 private:
  /// Prices the problem through tuner::shape_cost (packed vs. guarded
  /// direct path) and converts the winner to a GemmProfile. Throws when
  /// the model rejects the packed kernel.
  GemmProfile profile_for(const codegen::KernelParams& p, index_t M,
                          index_t N, index_t K);

  /// The prepared kernel of the packed path (`direct` false, with ta, tb
  /// No and guarded false) or of one direct-path variant, for `prec`'s
  /// tuned params on the current tier. Prepared exactly once, on first
  /// use (tiered on Native); concurrent first calls wait for that one
  /// preparation. The tuned params of a precision never change once
  /// kernel_for() has returned them, so they are not part of the key; the
  /// tier is, because the backend override can change between calls.
  const ir::PreparedKernel& kernel_handle(codegen::Precision prec,
                                          bool direct, Transpose ta,
                                          Transpose tb, bool guarded);

  simcl::DeviceId id_;
  perfmodel::PerfModel model_;
  tuner::TunedDatabase db_;
  bool direct_enabled_ = true;
  /// Indexed by the key bits of kernel_handle(): precision, tier, path,
  /// ta, tb, guarded. A slot is written once, under its flag.
  std::array<ir::KernelHandle, 64> handles_;
  std::array<std::once_flag, 64> prepared_;
};

}  // namespace gemmtune::blas
