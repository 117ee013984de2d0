// Tests for the copy-free direct GEMM kernel (the paper's future-work
// extension, Section V): correctness for all four multiplication types,
// and the GemmEngine's automatic small-size crossover.
#include <gtest/gtest.h>

#include <cstring>

#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/rng.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/emit.hpp"
#include "kernelir/interp.hpp"
#include "layout/packing.hpp"
#include "simcl/device_registry.hpp"
#include "tuner/shape.hpp"

namespace gemmtune {
namespace {

using codegen::Algorithm;
using codegen::DirectGemmKernelArgs;
using codegen::KernelParams;
using codegen::Precision;

KernelParams small_params(Precision prec, Algorithm algo, bool share) {
  KernelParams p;
  p.prec = prec;
  p.Mwg = 8;
  p.Nwg = 8;
  p.Kwg = 4;
  p.MdimC = p.NdimC = 4;
  p.MdimA = p.NdimB = 8;
  p.Kwi = 2;
  p.vw = 1;
  p.algo = algo;
  p.share_a = p.share_b = share;
  return p;
}

template <typename T>
double run_direct(const KernelParams& p, Transpose ta, Transpose tb,
                  index_t M, index_t N, index_t K, T alpha, T beta,
                  std::uint64_t seed, bool guarded = false) {
  Rng rng(seed);
  Matrix<T> A(ta == Transpose::No ? M : K, ta == Transpose::No ? K : M);
  Matrix<T> B(tb == Transpose::No ? K : N, tb == Transpose::No ? N : K);
  Matrix<T> C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  Matrix<T> Cref = C;
  hostblas::gemm_naive(ta, tb, M, N, K, alpha, A, B, beta, Cref);

  simcl::Context ctx(simcl::device_spec(simcl::DeviceId::Tahiti));
  auto dA = ctx.create_buffer(A.size() * sizeof(T));
  auto dB = ctx.create_buffer(B.size() * sizeof(T));
  auto dC = ctx.create_buffer(C.size() * sizeof(T));
  std::memcpy(dA->data(), A.data(), A.size() * sizeof(T));
  std::memcpy(dB->data(), B.data(), B.size() * sizeof(T));
  std::memcpy(dC->data(), C.data(), C.size() * sizeof(T));

  ir::Kernel k = codegen::generate_direct_gemm_kernel(p, ta, tb, guarded);
  const auto ext = packed_extents(M, N, K, p.Mwg, p.Nwg, p.Kwg);
  const auto geo = guarded ? codegen::launch_geometry(p, ext.Mp, ext.Np)
                           : codegen::launch_geometry(p, M, N);
  std::vector<ir::ArgValue> args(11);
  args[DirectGemmKernelArgs::C] = ir::ArgValue::of(dC);
  args[DirectGemmKernelArgs::A] = ir::ArgValue::of(dA);
  args[DirectGemmKernelArgs::B] = ir::ArgValue::of(dB);
  args[DirectGemmKernelArgs::M] = ir::ArgValue::of_int(M);
  args[DirectGemmKernelArgs::N] = ir::ArgValue::of_int(N);
  args[DirectGemmKernelArgs::K] = ir::ArgValue::of_int(K);
  args[DirectGemmKernelArgs::lda] = ir::ArgValue::of_int(A.ld());
  args[DirectGemmKernelArgs::ldb] = ir::ArgValue::of_int(B.ld());
  args[DirectGemmKernelArgs::ldc] = ir::ArgValue::of_int(C.ld());
  args[DirectGemmKernelArgs::alpha] = ir::ArgValue::of_float(alpha);
  args[DirectGemmKernelArgs::beta] = ir::ArgValue::of_float(beta);
  ir::launch(k, geo.global, geo.local, args);

  std::memcpy(C.data(), dC->data(), C.size() * sizeof(T));
  return max_abs_diff(C, Cref);
}

TEST(DirectKernel, AllFourTypesAllAlgorithms) {
  for (Algorithm algo : {Algorithm::BA, Algorithm::PL, Algorithm::DB}) {
    for (GemmType type : all_gemm_types()) {
      const KernelParams p =
          small_params(Precision::DP, algo, algo != Algorithm::BA);
      const double err = run_direct<double>(p, trans_a(type), trans_b(type),
                                            16, 16, 12, 1.5, -0.5, 31);
      EXPECT_LE(err, hostblas::gemm_tolerance<double>(12))
          << codegen::to_string(algo) << " " << to_string(type);
    }
  }
}

TEST(DirectKernel, SinglePrecisionAndSharedVariants) {
  for (bool share : {false, true}) {
    const KernelParams p = small_params(Precision::SP, Algorithm::BA, share);
    const double err = run_direct<float>(p, Transpose::No, Transpose::Yes,
                                         24, 16, 8, 2.0f, 1.0f, 32);
    EXPECT_LE(err, hostblas::gemm_tolerance<float>(8)) << share;
  }
}

TEST(DirectKernel, RejectsVectorAccesses) {
  KernelParams p = small_params(Precision::DP, Algorithm::BA, false);
  p.vw = 2;
  EXPECT_THROW(
      codegen::generate_direct_gemm_kernel(p, Transpose::No, Transpose::No),
      Error);
}

TEST(DirectKernel, EmitsLeadingDimensionArguments) {
  const KernelParams p = small_params(Precision::DP, Algorithm::BA, true);
  const ir::Kernel k =
      codegen::generate_direct_gemm_kernel(p, Transpose::Yes, Transpose::No);
  const std::string src = ir::emit_opencl(k);
  EXPECT_NE(src.find("const int lda"), std::string::npos);
  EXPECT_NE(src.find("const int ldb"), std::string::npos);
  EXPECT_NE(src.find("const int ldc"), std::string::npos);
  EXPECT_NE(src.find("dgemm_direct_tn"), std::string::npos);
}

// ---- engine crossover -----------------------------------------------------------

TEST(DirectPath, EngineUsesDirectKernelForSmallDivisibleSizes) {
  blas::GemmEngine engine(simcl::DeviceId::Tahiti);
  const auto p = engine.kernel_for(Precision::DP).params;
  // Small problem, exact multiple of the blocking: direct must win.
  const auto small = engine.estimate(GemmType::NN, Precision::DP,
                                     2 * p.Mwg, 2 * p.Nwg, 2 * p.Kwg);
  EXPECT_TRUE(small.used_direct);
  EXPECT_DOUBLE_EQ(small.copy_seconds, 0.0);
  // Large problem: the copy is amortized and the packed kernel wins.
  const auto large = engine.estimate(GemmType::NN, Precision::DP, 5760, 5760,
                                     5760);
  EXPECT_FALSE(large.used_direct);
  // Tiny non-divisible sizes use the *guarded* direct kernel (bounds
  // checks; no copies, no copy-launch overheads).
  const auto odd = engine.estimate(GemmType::NN, Precision::DP, 50, 50, 50);
  EXPECT_TRUE(odd.used_direct);
  EXPECT_DOUBLE_EQ(odd.copy_seconds, 0.0);
}

TEST(DirectKernel, GuardedHandlesArbitrarySizes) {
  // Bounds-guarded direct kernels: padded NDRange, fringe reads return
  // zero, fringe writes are suppressed — correct for any M, N, K.
  for (GemmType type : all_gemm_types()) {
    KernelParams p = small_params(Precision::DP, Algorithm::BA, true);
    const double err = run_direct<double>(p, trans_a(type), trans_b(type),
                                          13, 11, 7, 1.5, -0.5, 41,
                                          /*guarded=*/true);
    EXPECT_LE(err, hostblas::gemm_tolerance<double>(7)) << to_string(type);
  }
  // Single precision, no sharing.
  KernelParams p = small_params(Precision::SP, Algorithm::BA, false);
  const double err = run_direct<float>(p, Transpose::No, Transpose::No, 17,
                                       9, 5, 2.0f, 1.0f, 42,
                                       /*guarded=*/true);
  EXPECT_LE(err, hostblas::gemm_tolerance<float>(5));
}

TEST(DirectKernel, GuardedRequiresBa) {
  KernelParams p = small_params(Precision::DP, Algorithm::PL, true);
  EXPECT_THROW(codegen::generate_direct_gemm_kernel(
                   p, Transpose::No, Transpose::No, /*guarded=*/true),
               Error);
}

TEST(DirectKernel, GuardedSourceHasTernariesAndIfs) {
  const KernelParams p = small_params(Precision::DP, Algorithm::BA, true);
  const ir::Kernel k = codegen::generate_direct_gemm_kernel(
      p, Transpose::No, Transpose::No, /*guarded=*/true);
  const std::string src = ir::emit_opencl(k);
  EXPECT_NE(src.find(" ? "), std::string::npos);
  EXPECT_NE(src.find("if ("), std::string::npos);
  EXPECT_NE(src.find("&&"), std::string::npos);
}

TEST(DirectKernel, GuardedKeplerDgemmKeepsOneDoublePerScalarVariable) {
  // The bytecode sizes a floating variable's slab by its widest use. The
  // serve path's hottest kernel, Kepler's guarded NN direct DGEMM, has
  // twelve variables, all scalar: twelve doubles per work-item to zero
  // per group, where sixteen-lane slabs took 192.
  const KernelParams p = tuner::direct_variant(
      codegen::table2_entry(simcl::DeviceId::Kepler, Precision::DP).params);
  const ir::Kernel k = codegen::generate_direct_gemm_kernel(
      p, Transpose::No, Transpose::No, /*guarded=*/true);
  EXPECT_EQ(ir::compile(k)->n_vf_vars, 12);
}

TEST(DirectPath, ImprovesSmallSizePerformance) {
  // The whole point of the future-work kernel: small sizes get faster.
  blas::GemmEngine with(simcl::DeviceId::Tahiti);
  blas::GemmEngine without(simcl::DeviceId::Tahiti);
  without.set_direct_path(false);
  const auto p = with.kernel_for(Precision::DP).params;
  const index_t n = 4 * lcm3(p.Mwg, p.Nwg, p.Kwg);
  const double fast = with.estimate_gflops(GemmType::NN, Precision::DP, n);
  const double slow =
      without.estimate_gflops(GemmType::NN, Precision::DP, n);
  EXPECT_GE(fast, slow);
}

TEST(DirectPath, FunctionalExecutionMatchesReference) {
  blas::GemmEngine engine(simcl::DeviceId::Tahiti);
  const auto p = engine.kernel_for(Precision::DP).params;
  const index_t M = 2 * p.Mwg, N = 2 * p.Nwg, K = 2 * p.Kwg;
  Rng rng(33);
  Matrix<double> A(M, K), B(K, N), C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  const auto prof = engine.gemm(Transpose::No, Transpose::No, M, N, K, 1.0,
                                A, B, 2.0, C, /*verify=*/true);
  EXPECT_TRUE(prof.used_direct);
  EXPECT_LE(prof.max_error, hostblas::gemm_tolerance<double>(K));
}

}  // namespace
}  // namespace gemmtune
