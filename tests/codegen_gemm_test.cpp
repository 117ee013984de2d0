// End-to-end correctness of generated GEMM kernels: for a sweep of
// parameter sets covering all algorithms, sharing modes, layouts, vector
// widths and stride modes, pack random operands, interpret the generated
// kernel, and compare against the host reference.
#include <gtest/gtest.h>

#include <cstring>

#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/params.hpp"
#include "common/rng.hpp"
#include "kernelir/interp.hpp"
#include "layout/packing.hpp"
#include "simcl/device_registry.hpp"

namespace gemmtune {
namespace {

using codegen::Algorithm;
using codegen::GemmKernelArgs;
using codegen::KernelParams;
using codegen::Precision;

/// Runs one generated kernel on random data and returns the max abs error
/// against the naive host reference. Also cross-checks basic counters.
template <typename T>
double run_kernel_case(const KernelParams& p, index_t M, index_t N,
                       index_t K, T alpha, T beta, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> A(M, K), B(K, N), C(M, N), Cref;
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  Cref = C;
  hostblas::gemm_naive(Transpose::No, Transpose::No, M, N, K, alpha, A, B,
                       beta, Cref);

  const PackedExtents ext = packed_extents(M, N, K, p.Mwg, p.Nwg, p.Kwg);
  auto abuf = pack_a(A, Transpose::No, M, K, ext.Mp, ext.Kp, p.layout_a,
                     p.Mwg, p.Kwg);
  auto bbuf = pack_b(B, Transpose::No, K, N, ext.Kp, ext.Np, p.layout_b,
                     p.Kwg, p.Nwg);
  auto cbuf = pack_c(C, M, N, ext.Mp, ext.Np);

  simcl::Context ctx(simcl::device_spec(simcl::DeviceId::Tahiti));
  auto dA = ctx.create_buffer(abuf.size() * sizeof(T));
  auto dB = ctx.create_buffer(bbuf.size() * sizeof(T));
  auto dC = ctx.create_buffer(cbuf.size() * sizeof(T));
  std::memcpy(dA->data(), abuf.data(), abuf.size() * sizeof(T));
  std::memcpy(dB->data(), bbuf.data(), bbuf.size() * sizeof(T));
  std::memcpy(dC->data(), cbuf.data(), cbuf.size() * sizeof(T));

  ir::Kernel k = codegen::generate_gemm_kernel(p);
  const auto geo = codegen::launch_geometry(p, ext.Mp, ext.Np);
  std::vector<ir::ArgValue> args(8);
  args[GemmKernelArgs::C] = ir::ArgValue::of(dC);
  args[GemmKernelArgs::A] = ir::ArgValue::of(dA);
  args[GemmKernelArgs::B] = ir::ArgValue::of(dB);
  args[GemmKernelArgs::M] = ir::ArgValue::of_int(ext.Mp);
  args[GemmKernelArgs::N] = ir::ArgValue::of_int(ext.Np);
  args[GemmKernelArgs::K] = ir::ArgValue::of_int(ext.Kp);
  args[GemmKernelArgs::alpha] = ir::ArgValue::of_float(alpha);
  args[GemmKernelArgs::beta] = ir::ArgValue::of_float(beta);
  const ir::Counters counters = ir::launch(k, geo.global, geo.local, args);

  // The micro-kernel performs exactly 2*Mp*Np*Kp flops plus the merge.
  const auto mnk = static_cast<std::uint64_t>(ext.Mp) *
                   static_cast<std::uint64_t>(ext.Np) *
                   static_cast<std::uint64_t>(ext.Kp);
  EXPECT_GE(counters.flops, 2 * mnk);
  EXPECT_EQ(counters.work_groups,
            static_cast<std::uint64_t>((ext.Mp / p.Mwg) * (ext.Np / p.Nwg)));

  std::vector<T> cout(cbuf.size());
  std::memcpy(cout.data(), dC->data(), cout.size() * sizeof(T));
  Matrix<T> Cgot(M, N);
  unpack_c(cout, ext.Mp, ext.Np, Cgot, M, N);
  return max_abs_diff(Cgot, Cref);
}

KernelParams small_base(Precision prec) {
  KernelParams p;
  p.prec = prec;
  p.Mwg = 8;
  p.Nwg = 8;
  p.Kwg = 4;
  p.MdimC = 4;
  p.NdimC = 4;
  p.MdimA = 4;
  p.NdimB = 4;
  p.Kwi = 1;
  p.vw = 1;
  return p;
}

TEST(CodegenGemm, SmokeBasicAlgorithmNoLocal) {
  KernelParams p = small_base(Precision::DP);
  p.layout_a = BlockLayout::RowMajor;
  p.layout_b = BlockLayout::RowMajor;
  const double err = run_kernel_case<double>(p, 16, 16, 12, 1.5, -0.5, 1);
  EXPECT_LE(err, hostblas::gemm_tolerance<double>(12));
}

TEST(CodegenGemm, SmokeSharedBothCBL) {
  KernelParams p = small_base(Precision::DP);
  p.share_a = p.share_b = true;
  const double err = run_kernel_case<double>(p, 16, 16, 12, 1.0, 0.0, 2);
  EXPECT_LE(err, hostblas::gemm_tolerance<double>(12));
}

TEST(CodegenGemm, PaddingNonMultipleSizes) {
  KernelParams p = small_base(Precision::DP);
  p.share_a = p.share_b = true;
  // 13 x 11 x 7 forces padding in every dimension.
  const double err = run_kernel_case<double>(p, 13, 11, 7, 2.0, 3.0, 3);
  EXPECT_LE(err, hostblas::gemm_tolerance<double>(7));
}

TEST(CodegenGemm, SingleTileKEqualsKwg) {
  for (Algorithm algo : {Algorithm::BA, Algorithm::PL, Algorithm::DB}) {
    KernelParams p = small_base(Precision::DP);
    p.algo = algo;
    p.share_a = p.share_b = true;
    if (algo == Algorithm::DB) {
      // DB fills half-tiles of Kwg/2 = 2 rows, so KdimA/KdimB must be <= 2.
      p.MdimA = 8;
      p.NdimB = 8;
    }
    ASSERT_EQ(validate(p, simcl::device_spec(simcl::DeviceId::Tahiti)),
              nullptr)
        << codegen::to_string(algo);
    const double err = run_kernel_case<double>(p, 8, 8, 4, 1.0, 1.0, 4);
    EXPECT_LE(err, hostblas::gemm_tolerance<double>(4))
        << "algo=" << codegen::to_string(algo);
  }
}

TEST(CodegenGemm, TableIIRepresentativeTahitiDgemm) {
  // The paper's fastest Tahiti DGEMM kernel (Table II), on one block.
  KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 96;
  p.Nwg = 32;
  p.Kwg = 48;
  p.MdimC = 16;
  p.NdimC = 16;
  p.MdimA = 16;
  p.NdimB = 16;
  p.Kwi = 2;
  p.vw = 2;
  p.share_b = true;
  p.layout_a = BlockLayout::CBL;
  p.layout_b = BlockLayout::CBL;
  p.algo = Algorithm::BA;
  ASSERT_EQ(validate(p, simcl::device_spec(simcl::DeviceId::Tahiti)),
            nullptr);
  const double err = run_kernel_case<double>(p, 96, 32, 48, 1.0, -1.0, 5);
  EXPECT_LE(err, hostblas::gemm_tolerance<double>(48));
}

TEST(CodegenGemm, TableIIRepresentativeFermiDgemmPL) {
  // Fermi's fastest DGEMM kernel: PL algorithm, B shared, CBL/RBL layouts.
  KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 64;
  p.Nwg = 64;
  p.Kwg = 8;
  p.MdimC = 16;
  p.NdimC = 16;
  p.MdimA = 64;
  p.NdimB = 64;
  p.Kwi = 2;
  p.vw = 1;
  p.stride_n = true;
  p.share_b = true;
  p.layout_a = BlockLayout::CBL;
  p.layout_b = BlockLayout::RBL;
  p.algo = Algorithm::PL;
  ASSERT_EQ(validate(p, simcl::device_spec(simcl::DeviceId::Fermi)),
            nullptr);
  const double err = run_kernel_case<double>(p, 64, 64, 24, 0.5, 2.0, 6);
  EXPECT_LE(err, hostblas::gemm_tolerance<double>(24));
}

// ---- exhaustive small sweep -------------------------------------------------

struct SweepCase {
  KernelParams p;
  std::string label;
};

std::vector<SweepCase> make_sweep() {
  std::vector<SweepCase> cases;
  const auto& dev = simcl::device_spec(simcl::DeviceId::Tahiti);
  for (Precision prec : {Precision::DP, Precision::SP}) {
    for (Algorithm algo : {Algorithm::BA, Algorithm::PL, Algorithm::DB}) {
      for (int share = 0; share < 4; ++share) {
        for (BlockLayout la : {BlockLayout::RowMajor, BlockLayout::CBL,
                               BlockLayout::RBL}) {
          for (BlockLayout lb : {BlockLayout::CBL, BlockLayout::RBL}) {
            for (int vw : {1, 2}) {
              for (int stride = 0; stride < 4; ++stride) {
                for (int Kwi : {1, 2}) {
                  KernelParams p = small_base(prec);
                  p.algo = algo;
                  p.share_a = (share & 1) != 0;
                  p.share_b = (share & 2) != 0;
                  p.layout_a = la;
                  p.layout_b = lb;
                  p.vw = vw;
                  p.stride_m = (stride & 1) != 0;
                  p.stride_n = (stride & 2) != 0;
                  p.Kwi = Kwi;
                  // Vary the fill reshape when sharing.
                  p.MdimA = p.share_a ? 8 : 4;
                  p.NdimB = p.share_b ? 8 : 4;
                  if (validate(p, dev)) continue;
                  cases.push_back({p, p.key()});
                }
              }
            }
          }
        }
      }
    }
  }
  return cases;
}

class GemmSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const KernelParams& p = GetParam().p;
  const index_t M = 16, N = 16, K = 12;
  double err, tol;
  if (p.prec == Precision::DP) {
    err = run_kernel_case<double>(p, M, N, K, 1.25, -0.75, 7);
    tol = hostblas::gemm_tolerance<double>(K);
  } else {
    err = run_kernel_case<float>(p, M, N, K, 1.25f, -0.75f, 7);
    tol = hostblas::gemm_tolerance<float>(K);
  }
  EXPECT_LE(err, tol) << p.summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GemmSweep, ::testing::ValuesIn(make_sweep()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string n = info.param.label;
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(CodegenGemmSweep, SweepIsLarge) {
  // Guard against the sweep silently collapsing to a handful of cases.
  EXPECT_GE(make_sweep().size(), 200u);
}

}  // namespace
}  // namespace gemmtune
