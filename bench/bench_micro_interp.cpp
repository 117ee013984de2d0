// Micro bench of the two execution tiers on a generated GEMM kernel, run
// as deterministic checks gated against bench/baselines/micro_interp.json:
// the bytecode VM must produce bit-identical buffers and counters at 1 and
// 4 threads, and the pass/fail bits and its dynamic counters are the gated
// scalars. Host wall-clock throughput of each layer is perfbench's
// (BENCHMARK.json). The tree-walking reference interpreter is test-only;
// fuzz_codegen_test holds both tiers to it on this bench's kernel shape.
//
// With --native the bench becomes "micro_interp_native": it gates a
// native-vs-bytecode differential plus the native >= 3x-over-bytecode
// speedup bit (minimum single-thread steady_clock times) against
// bench/baselines/micro_interp_native.json. Without a usable host
// toolchain the native run exits 3 so harnesses can skip it. Any argument
// besides --native and bench::init's flags is refused (exit 1).
#include <chrono>
#include <cstring>

#include "bench_util.hpp"

#include "codegen/gemm_generator.hpp"
#include "common/rng.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "simcl/runtime.hpp"

using namespace gemmtune;
using codegen::Precision;

namespace {

codegen::KernelParams micro_params() {
  codegen::KernelParams p;
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

/// The micro kernel, prepared once per tier for every launch of the bench.
const ir::PreparedKernel& micro_kernel(ir::Backend backend) {
  static const ir::Kernel kernel =
      codegen::generate_gemm_kernel(micro_params());
  if (backend == ir::Backend::Native) {
    static const ir::KernelHandle native =
        ir::prepare(kernel, ir::Backend::Native);
    return *native;
  }
  static const ir::KernelHandle bytecode =
      ir::prepare(kernel, ir::Backend::Bytecode);
  return *bytecode;
}

/// One launch of the micro kernel: geometry and freshly-filled buffers.
struct MicroLaunch {
  codegen::LaunchGeometry geo;
  simcl::BufferPtr dA, dB, dC;
  std::vector<ir::ArgValue> args;

  explicit MicroLaunch(std::int64_t n) {
    const codegen::KernelParams p = micro_params();
    const int es = element_bytes(p.prec);
    const auto bytes = static_cast<std::size_t>(n * n * es);
    dA = std::make_shared<simcl::Buffer>(bytes);
    dB = std::make_shared<simcl::Buffer>(bytes);
    dC = std::make_shared<simcl::Buffer>(bytes);
    Rng rng(7);
    for (std::int64_t i = 0; i < n * n; ++i) {
      dA->as<double>()[i] = rng.next_double(-1.0, 1.0);
      dB->as<double>()[i] = rng.next_double(-1.0, 1.0);
    }
    geo = codegen::launch_geometry(p, n, n);
    args.resize(8);
    args[codegen::GemmKernelArgs::C] = ir::ArgValue::of(dC);
    args[codegen::GemmKernelArgs::A] = ir::ArgValue::of(dA);
    args[codegen::GemmKernelArgs::B] = ir::ArgValue::of(dB);
    args[codegen::GemmKernelArgs::M] = ir::ArgValue::of_int(n);
    args[codegen::GemmKernelArgs::N] = ir::ArgValue::of_int(n);
    args[codegen::GemmKernelArgs::K] = ir::ArgValue::of_int(n);
    args[codegen::GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.5);
    args[codegen::GemmKernelArgs::beta] = ir::ArgValue::of_float(0.0);
  }

  ir::Counters run(ir::Backend backend, int threads) const {
    return ir::launch(micro_kernel(backend), geo.global, geo.local, args,
                      threads);
  }
};

// ---- deterministic differential + speedup gate -----------------------------

double min_seconds(int reps, const MicroLaunch& ml, ir::Backend backend) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    (void)ml.run(backend, 1);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best;
}

void differential_check() {
  bench::section(
      "Thread differential (bytecode 1 vs 4 threads, Table II shape)");
  const std::int64_t n = 64;
  const MicroLaunch byte_ml(n);
  const MicroLaunch byte4_ml(n);
  const ir::Counters cb = byte_ml.run(ir::Backend::Bytecode, 1);
  const ir::Counters cb4 = byte4_ml.run(ir::Backend::Bytecode, 4);
  const bool buffers_equal = std::memcmp(byte_ml.dC->data(),
                                         byte4_ml.dC->data(),
                                         byte_ml.dC->size()) == 0;
  const bool counters_equal = cb == cb4;
  bench::scalar("interp.buffers_equal", buffers_equal ? 1 : 0);
  bench::scalar("interp.counters_equal", counters_equal ? 1 : 0);
  bench::scalar("interp.flops", static_cast<double>(cb.flops));
  bench::scalar("interp.mads", static_cast<double>(cb.mads));
  bench::scalar("interp.global_load_bytes",
                static_cast<double>(cb.global_load_bytes));
  bench::scalar("interp.global_store_bytes",
                static_cast<double>(cb.global_store_bytes));
  bench::scalar("interp.local_load_bytes",
                static_cast<double>(cb.local_load_bytes));
  bench::scalar("interp.local_store_bytes",
                static_cast<double>(cb.local_store_bytes));
  bench::scalar("interp.barriers", static_cast<double>(cb.barriers));
  bench::note(strf("buffers_equal=%d counters_equal=%d",
                   buffers_equal ? 1 : 0, counters_equal ? 1 : 0));
}

/// --native mode: the native JIT joins the differential. Both tiers must
/// agree byte-for-byte (buffers and counters, serial and 4-thread native),
/// and the JIT'd kernel must beat the bytecode VM by >= 3x single-threaded
/// on the Table II micro shape.
void native_differential_check() {
  bench::section("Backend differential (native vs bytecode, Table II shape)");
  const std::int64_t n = 64;
  const MicroLaunch byte_ml(n);
  const MicroLaunch nat_ml(n);
  const MicroLaunch nat4_ml(n);
  const ir::Counters cb = byte_ml.run(ir::Backend::Bytecode, 1);
  const ir::Counters cn = nat_ml.run(ir::Backend::Native, 1);
  const ir::Counters cn4 = nat4_ml.run(ir::Backend::Native, 4);
  const auto same = [](const MicroLaunch& a, const MicroLaunch& b) {
    return std::memcmp(a.dC->data(), b.dC->data(), a.dC->size()) == 0;
  };
  const bool buffers_equal = same(nat_ml, byte_ml) && same(nat_ml, nat4_ml);
  const bool counters_equal = cn == cb && cn == cn4;
  bench::scalar("interp.native_buffers_equal", buffers_equal ? 1 : 0);
  bench::scalar("interp.native_counters_equal", counters_equal ? 1 : 0);
  bench::scalar("interp.native_mads", static_cast<double>(cn.mads));
  bench::scalar("interp.native_flops", static_cast<double>(cn.flops));

  // Both tiers' handles are prepared by now (the runs above).
  const double t_byte = min_seconds(5, byte_ml, ir::Backend::Bytecode);
  const double t_native = min_seconds(9, nat_ml, ir::Backend::Native);
  const double speedup = t_byte / t_native;
  trace::gauge_set("micro_interp.speedup_native_over_bytecode", speedup);
  bench::scalar("interp.native_speedup_ge3x", speedup >= 3.0 ? 1 : 0);
  bench::note(strf("buffers_equal=%d counters_equal=%d speedup=%.1fx "
                   "(bytecode %.2f ms, native %.2f ms, single thread)",
                   buffers_equal ? 1 : 0, counters_equal ? 1 : 0, speedup,
                   1e3 * t_byte, 1e3 * t_native));
}

}  // namespace

int main(int argc, char** argv) {
  bool native_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--native") {
      native_mode = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  gemmtune::bench::init(native_mode ? "micro_interp_native" : "micro_interp",
                        &argc, argv);
  if (gemmtune::bench::reject_unknown_arguments(argc, argv)) return 1;
  if (native_mode && !ir::native_toolchain_available()) {
    std::printf("no usable host toolchain; native differential skipped\n");
    return 3;  // harnesses (tools/bench_smoke.sh) treat 3 as "skip"
  }
  if (native_mode) {
    native_differential_check();
  } else {
    differential_check();
  }
  return 0;
}
