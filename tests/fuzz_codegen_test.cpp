// Randomized property tests over the code generator: sample random valid
// parameter sets from the full space (plus two fixed inputs: the Table II
// micro shape and Tahiti's Table II SGEMM kernel) and check, for each,
//  (1) the generated kernel matches the host reference on random data,
//  (2) parse(emit(kernel)) executes bit-identically (text <-> semantics),
//  (3) the bytecode VM, the native JIT and the tree oracle agree bit for
//      bit on buffers and counters, launched directly or through a
//      prepared kernel handle,
//  (4) KernelParams survives the JSON round trip.
// Deterministic: everything derives from fixed seeds.
#include <gtest/gtest.h>

#include <cstring>

#include "blas/hostblas.hpp"
#include "clfront/parser.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/rng.hpp"
#include "kernelir/emit.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "layout/packing.hpp"
#include "simcl/device_registry.hpp"
#include "tree_oracle.hpp"

namespace gemmtune {
namespace {

using codegen::Algorithm;
using codegen::GemmKernelArgs;
using codegen::KernelParams;
using codegen::Precision;

template <typename C>
auto pick(Rng& rng, const C& values) {
  return values[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(values.size())))];
}

/// Samples one random parameter set; may be invalid (caller validates).
KernelParams random_params(Rng& rng) {
  static const std::vector<int> wg_sizes = {8, 16, 24, 32};
  static const std::vector<int> k_sizes = {4, 8, 12, 16};
  static const std::vector<int> dims = {2, 4, 8};
  static const std::vector<int> kwis = {1, 2, 4};
  static const std::vector<int> vws = {1, 2, 4};
  static const std::vector<BlockLayout> layouts = {
      BlockLayout::RowMajor, BlockLayout::CBL, BlockLayout::RBL};
  static const std::vector<Algorithm> algos = {Algorithm::BA, Algorithm::PL,
                                               Algorithm::DB};
  KernelParams p;
  p.prec = rng.next_below(2) ? Precision::SP : Precision::DP;
  p.Mwg = pick(rng, wg_sizes);
  p.Nwg = pick(rng, wg_sizes);
  p.Kwg = pick(rng, k_sizes);
  p.MdimC = pick(rng, dims);
  p.NdimC = pick(rng, dims);
  p.MdimA = pick(rng, dims);
  p.NdimB = pick(rng, dims);
  p.Kwi = pick(rng, kwis);
  p.vw = pick(rng, vws);
  p.stride_m = rng.next_below(2) != 0;
  p.stride_n = rng.next_below(2) != 0;
  p.share_a = rng.next_below(2) != 0;
  p.share_b = rng.next_below(2) != 0;
  p.layout_a = pick(rng, layouts);
  p.layout_b = pick(rng, layouts);
  p.algo = pick(rng, algos);
  return p;
}

/// The double-precision Table II micro shape the interpreter benchmarks
/// time (bench/bench_micro_interp.cpp): 8x8 work-groups, 16x16x8 tiles,
/// Kwi = 2, vw = 2, both operands staged through local memory.
KernelParams micro_params() {
  KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 16;
  p.Nwg = 16;
  p.Kwg = 8;
  p.MdimC = p.NdimC = 8;
  p.MdimA = p.NdimB = 8;
  p.Kwi = 2;
  p.vw = 2;
  p.share_a = p.share_b = true;
  return p;
}

/// Runs both the generated kernel and its emit->parse round trip on the
/// same random data; checks correctness and equivalence.
template <typename T>
void check_kernel_properties(const KernelParams& p, std::uint64_t seed) {
  Rng rng(seed);
  const index_t M = 2 * p.Mwg, N = 2 * p.Nwg, K = 2 * p.Kwg;
  Matrix<T> A(M, K), B(K, N), C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  Matrix<T> Cref = C;
  hostblas::gemm_naive(Transpose::No, Transpose::No, M, N, K, T(1.5), A, B,
                       T(-0.5), Cref);

  const ir::Kernel k1 = codegen::generate_gemm_kernel(p);
  const ir::Kernel k2 = clfront::parse_kernel(ir::emit_opencl(k1));

  // Runs `k` on fresh buffers through `exec(kernel, global, local, args)`.
  auto run = [&](const ir::Kernel& k, const auto& exec,
                 ir::Counters* counters) {
    auto abuf = pack_a(A, Transpose::No, M, K, M, K, p.layout_a, p.Mwg,
                       p.Kwg);
    auto bbuf = pack_b(B, Transpose::No, K, N, K, N, p.layout_b, p.Kwg,
                       p.Nwg);
    auto cbuf = pack_c(C, M, N, M, N);
    auto dA = std::make_shared<simcl::Buffer>(abuf.size() * sizeof(T));
    auto dB = std::make_shared<simcl::Buffer>(bbuf.size() * sizeof(T));
    auto dC = std::make_shared<simcl::Buffer>(cbuf.size() * sizeof(T));
    std::memcpy(dA->data(), abuf.data(), abuf.size() * sizeof(T));
    std::memcpy(dB->data(), bbuf.data(), bbuf.size() * sizeof(T));
    std::memcpy(dC->data(), cbuf.data(), cbuf.size() * sizeof(T));
    const auto geo = codegen::launch_geometry(p, M, N);
    std::vector<ir::ArgValue> args(8);
    args[GemmKernelArgs::C] = ir::ArgValue::of(dC);
    args[GemmKernelArgs::A] = ir::ArgValue::of(dA);
    args[GemmKernelArgs::B] = ir::ArgValue::of(dB);
    args[GemmKernelArgs::M] = ir::ArgValue::of_int(M);
    args[GemmKernelArgs::N] = ir::ArgValue::of_int(N);
    args[GemmKernelArgs::K] = ir::ArgValue::of_int(K);
    args[GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.5);
    args[GemmKernelArgs::beta] = ir::ArgValue::of_float(-0.5);
    const ir::Counters c = exec(k, geo.global, geo.local, args);
    if (counters) *counters = c;
    std::vector<T> out(dC->template count<T>());
    std::memcpy(out.data(), dC->data(), dC->size());
    return out;
  };

  const auto on = [](ir::Backend backend) {
    return [backend](const ir::Kernel& k, std::array<std::int64_t, 2> global,
                     std::array<std::int64_t, 2> local,
                     const std::vector<ir::ArgValue>& args) {
      return ir::launch_with_backend(k, global, local, args, 0, backend);
    };
  };

  // The same launch through a handle prepared once for the tier.
  const auto through = [](ir::Backend backend, const ir::Kernel& k) {
    return [h = ir::prepare(k, backend)](
               const ir::Kernel&, std::array<std::int64_t, 2> global,
               std::array<std::int64_t, 2> local,
               const std::vector<ir::ArgValue>& args) {
      return ir::launch(*h, global, local, args, 0);
    };
  };

  ir::Counters c_byte, c_tree, c_handle;
  const auto out1 = run(k1, on(ir::Backend::Bytecode), &c_byte);
  const auto out2 = run(k2, on(ir::Backend::Bytecode), nullptr);
  EXPECT_EQ(out1, out2) << "round-trip divergence: " << p.summary();
  EXPECT_EQ(out1, run(k1, through(ir::Backend::Bytecode, k1), &c_handle))
      << "bytecode handle divergence: " << p.summary();
  EXPECT_EQ(c_byte, c_handle)
      << "bytecode handle counter divergence: " << p.summary();

  // Differential check: the tree-walking reference interpreter must
  // produce bit-identical buffers and counters for the same launch.
  const auto out_tree = run(k1, ir::tree_launch, &c_tree);
  EXPECT_EQ(out1, out_tree) << "backend divergence: " << p.summary();
  EXPECT_EQ(c_byte, c_tree) << "counter divergence: " << p.summary();

  // Native leg: each distinct kernel costs one host-compiler invocation
  // (seconds), so only the first few shapes of each precision run it —
  // enough to catch an emitter divergence across the random parameter
  // space without blowing up the suite's runtime. The budget is a static
  // of this function template, so DP and SP each get their own 4: 8
  // native compiles in all. The leg launches one prepared handle;
  // launch_with_backend() runs the same prepare-then-launch path, so
  // launching it too would only pay a second compile.
  static int native_budget = 4;
  if (native_budget > 0 && ir::native_toolchain_available()) {
    --native_budget;
    ir::Counters c_native;
    const auto out_native =
        run(k1, through(ir::Backend::Native, k1), &c_native);
    EXPECT_EQ(out1, out_native) << "native divergence: " << p.summary();
    EXPECT_EQ(c_byte, c_native)
        << "native counter divergence: " << p.summary();
  }

  Matrix<T> Cgot(M, N);
  unpack_c(out1, M, N, Cgot, M, N);
  EXPECT_LE(max_abs_diff(Cgot, Cref), hostblas::gemm_tolerance<T>(K))
      << p.summary();
}

TEST(FuzzCodegen, RandomValidParameterSets) {
  const auto& dev = simcl::device_spec(simcl::DeviceId::Tahiti);
  // Two fixed inputs first, so each always takes a native-budget slot of
  // its precision: the Table II micro shape (DP) and Tahiti's Table II
  // SGEMM kernel, the one that dominates the gemm_native benchmark (SP).
  ASSERT_FALSE(validate(micro_params(), dev));
  check_kernel_properties<double>(micro_params(), 0x3000u);
  const KernelParams sgemm =
      codegen::table2_entry(simcl::DeviceId::Tahiti, Precision::SP).params;
  ASSERT_FALSE(validate(sgemm, dev));
  check_kernel_properties<float>(sgemm, 0x4000u);
  Rng rng(0xFACADE);
  int tested = 0, rejected = 0;
  while (tested < 60) {
    const KernelParams p = random_params(rng);
    if (validate(p, dev)) {
      ++rejected;
      ASSERT_LT(rejected, 5000) << "sampler cannot find valid sets";
      continue;
    }
    if (p.prec == Precision::DP) {
      check_kernel_properties<double>(p, 0x1000u + static_cast<unsigned>(tested));
    } else {
      check_kernel_properties<float>(p, 0x2000u + static_cast<unsigned>(tested));
    }
    ++tested;
  }
  // The space must contain both valid and invalid points.
  EXPECT_GT(rejected, 0);
}

TEST(FuzzCodegen, JsonRoundTripForRandomParams) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 500; ++i) {
    const KernelParams p = random_params(rng);
    const KernelParams back = KernelParams::from_json(
        Json::parse(p.to_json().dump(i % 3)));
    EXPECT_EQ(p, back) << p.summary();
    // key() must be injective over distinct parameter sets (round-trip
    // through the summary string is not required, but keys must match).
    EXPECT_EQ(p.key(), back.key());
  }
}

TEST(FuzzCodegen, ValidationIsConsistentWithGeneration) {
  // Anything validate() accepts must generate and launch without throwing.
  const auto& dev = simcl::device_spec(simcl::DeviceId::Fermi);
  Rng rng(0xC0DE);
  int tested = 0;
  while (tested < 200) {
    const KernelParams p = random_params(rng);
    if (validate(p, dev)) continue;
    EXPECT_NO_THROW({
      const ir::Kernel k = codegen::generate_gemm_kernel(p);
      (void)ir::emit_opencl(k);
    }) << p.summary();
    ++tested;
  }
}

}  // namespace
}  // namespace gemmtune
