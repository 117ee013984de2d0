// Tests for the native JIT backend's machinery (native.hpp): emitter
// determinism and form (Table II kernels at every width run their k-loop
// as a vector loop), Table II kernels built at every width the CPU runs
// against bytecode, the on-disk .so cache round-trip (a warm start needs
// no compiler at all), concurrent cold builds of one kernel (none falls
// back, nothing is left in TMPDIR), graceful fallback to bytecode when no
// toolchain is usable, sticky per-kernel failures, read-only cache-dir
// handling, and tier-up: tiered handles run on bytecode until the
// background worker fills their native slot, behind a compiler the test
// gates. Semantic equivalence of the native backend (buffers, counters,
// error parity) against the tree oracle lives in vm_test.cpp and
// fuzz_codegen_test.cpp.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/kernel.hpp"
#include "kernelir/native.hpp"
#include "layout/packing.hpp"
#include "simcl/device_registry.hpp"
#include "simcl/runtime.hpp"
#include "trace/trace.hpp"
#include "tuner/shape.hpp"

namespace gemmtune::ir {
namespace {

// Restores every piece of process-wide state a test may touch: the JIT
// probe, its sticky failures and its dir, the backend override, and the
// environment knobs.
class NativeTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override {
    unsetenv("GEMMTUNE_JIT_CXX");
    unsetenv("GEMMTUNE_JIT_CACHE");
    reset_all();
    trace::set_enabled(false);
  }
  static void reset_all() {
    set_jit_cache_dir("");
    reset_native_probe();
    set_backend_override(Backend::Auto);
  }
};

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "native-test-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* d = ::mkdtemp(buf.data());
  EXPECT_NE(d, nullptr);
  return d != nullptr ? d : "";
}

int count_shared_objects(const std::string& dir) {
  int n = 0;
  std::string cmd = "ls " + dir + "/gemmtune-*.so >/dev/null 2>&1";
  if (std::system(cmd.c_str()) == 0) {
    // Count via a shell glob so the test has no directory-walk helper.
    FILE* p = ::popen(("ls " + dir + " | grep -c '\\.so$'").c_str(), "r");
    if (p != nullptr) {
      char line[32] = {0};
      if (std::fgets(line, sizeof line, p) != nullptr) n = std::atoi(line);
      ::pclose(p);
    }
  }
  return n;
}

/// A small kernel parameterized by `salt` so each value compiles to a
/// distinct object: out[gid] = a[gid] * salt + gid.
Kernel salted_kernel(int salt) {
  const Type t1 = fp(Scalar::F64, 1);
  KernelBuilder b("salted", Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
  const int gid = b.decl_var("gid", i32());
  b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
  b.append(store_global(
      0, b.ref(gid),
      bin(BinOp::FMul, load_global(1, b.ref(gid), t1),
          fconst(static_cast<double>(salt), t1))));
  return b.build();
}

struct LaunchSetup {
  std::vector<simcl::BufferPtr> bufs;
  std::vector<ArgValue> args;
};

LaunchSetup salted_args(int n) {
  LaunchSetup s;
  auto out = std::make_shared<simcl::Buffer>(
      static_cast<std::size_t>(n) * sizeof(double));
  auto a = std::make_shared<simcl::Buffer>(
      static_cast<std::size_t>(n) * sizeof(double));
  for (int j = 0; j < n; ++j) a->as<double>()[j] = 0.5 * j - 1.0;
  s.bufs = {out, a};
  s.args = {ArgValue::of(out), ArgValue::of(a)};
  return s;
}

std::vector<double> run_salted(int salt, Backend be) {
  const Kernel k = salted_kernel(salt);
  LaunchSetup s = salted_args(8);
  launch_with_backend(k, {8, 1}, {4, 1}, s.args, 1, be);
  const double* p = s.bufs[0]->as<double>();
  return std::vector<double>(p, p + 8);
}

std::uint64_t trace_counter(const char* name) {
  const Json m = trace::metrics_json();
  const Json& c = m.at("counters");
  if (!c.contains(name)) return 0;
  return static_cast<std::uint64_t>(c.at(name).as_int());
}

// ---- emitter ---------------------------------------------------------------

TEST_F(NativeTest, EmitterIsDeterministicAndSelfContained) {
  // The emission the backend compiles: the probed host vector width.
  const Kernel k = salted_kernel(3);
  const CompiledKernelPtr prog = compile(k);
  const int w = native_simd_width();
  const std::string src1 = emit_native_source(k, *prog, w);
  const std::string src2 = emit_native_source(k, *prog, w);
  EXPECT_EQ(src1, src2);
  EXPECT_NE(src1.find("simd w=" + std::to_string(w)), std::string::npos);
  // Straight-line code runs item-major: one loop over the work-items.
  EXPECT_NE(src1.find("for (long long t = 0; t < NI; ++t) {"),
            std::string::npos);
  // The TU must export the versioned entry symbol and include nothing
  // beyond the C standard headers it spells out.
  EXPECT_NE(src1.find(kNativeEntrySymbol), std::string::npos);
  EXPECT_NE(src1.find("extern \"C\""), std::string::npos);
  EXPECT_EQ(src1.find("#include \""), std::string::npos);
  // Tahiti's Table II kernels at every emit width: the k-loop runs as a
  // vector loop run of that width, and the straight-line runs keep their
  // item loop.
  for (const auto prec : {codegen::Precision::DP, codegen::Precision::SP}) {
    const Kernel g = codegen::generate_gemm_kernel(
        codegen::table2_entry(simcl::DeviceId::Tahiti, prec).params);
    const CompiledKernelPtr gp = compile(g);
    for (const int width : {2, 4, 8}) {
      const std::string src = emit_native_source(g, *gp, width);
      EXPECT_EQ(src, emit_native_source(g, *gp, width)) << g.name << width;
      EXPECT_NE(src.find("vector loop run: " + std::to_string(width) +
                         " work-items"),
                std::string::npos)
          << g.name << " width " << width;
      EXPECT_NE(src.find("for (long long t = 0; t < NI; ++t) {"),
                std::string::npos)
          << g.name << " width " << width;
    }
  }
}

// ---- JIT + disk cache ------------------------------------------------------

TEST_F(NativeTest, DiskCacheRoundTripSkipsCompilerOnWarmStart) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  const std::string dir = make_temp_dir();
  set_jit_cache_dir(dir);

  const std::vector<double> cold = run_salted(7, Backend::Native);
  EXPECT_EQ(count_shared_objects(dir), 1);

  // Warm start: a *broken* compiler. The cached .so must carry the launch
  // without any fallback.
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  trace::reset();
  trace::set_enabled(true);
  const std::vector<double> warm = run_salted(7, Backend::Native);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);
  EXPECT_GE(trace_counter("interp.native_disk_hits"), 1u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 0u);
}

TEST_F(NativeTest, NativeMatchesBytecodeBuffers) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  EXPECT_EQ(run_salted(5, Backend::Native), run_salted(5, Backend::Bytecode));
}

// ---- fallback --------------------------------------------------------------

TEST_F(NativeTest, FallsBackToBytecodeWithoutToolchain) {
  // Simulate a machine with no usable compiler: GEMMTUNE_JIT_CXX is
  // consulted exclusively when set, and this one cannot run.
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  EXPECT_FALSE(native_toolchain_available());

  trace::reset();
  trace::set_enabled(true);
  const std::vector<double> via_native = run_salted(9, Backend::Native);
  EXPECT_EQ(via_native, run_salted(9, Backend::Bytecode));
  EXPECT_GE(trace_counter("interp.native_fallback"), 1u);
}

TEST_F(NativeTest, HandleFallsBackLikeLaunch) {
  // A Native handle prepared with no toolchain runs on bytecode, and each
  // launch of it adds interp.native_fallback once, like a launch of the
  // kernel itself; preparing it launches nothing.
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  trace::reset();
  trace::set_enabled(true);
  const KernelHandle h = prepare(salted_kernel(15), Backend::Native);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);
  const std::vector<double> want = run_salted(15, Backend::Bytecode);
  for (std::uint64_t rep = 1; rep <= 3; ++rep) {
    LaunchSetup s = salted_args(8);
    launch(*h, {8, 1}, {4, 1}, s.args, 1);
    const double* p = s.bufs[0]->as<double>();
    EXPECT_EQ(std::vector<double>(p, p + 8), want);
    EXPECT_EQ(trace_counter("interp.native_fallback"), rep);
  }
  run_salted(15, Backend::Native);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 4u);
  EXPECT_EQ(trace_counter("interp.launches"), 5u);
}

TEST_F(NativeTest, ReadOnlyCacheDirStillRunsNatively) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  if (::geteuid() == 0) GTEST_SKIP() << "root ignores directory modes";
  const std::string dir = make_temp_dir();
  ASSERT_EQ(::chmod(dir.c_str(), 0555), 0);
  set_jit_cache_dir(dir);
  trace::reset();
  trace::set_enabled(true);
  // The unwritable persistent dir is skipped in favour of the process
  // temp dir; the launch still runs natively (no fallback) and nothing
  // lands in the read-only directory.
  const std::vector<double> got = run_salted(11, Backend::Native);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);
  EXPECT_EQ(count_shared_objects(dir), 0);
  ::chmod(dir.c_str(), 0755);
  EXPECT_EQ(got, run_salted(11, Backend::Bytecode));
}

TEST_F(NativeTest, FailureIsStickyPerKernel) {
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  const Kernel k = salted_kernel(13);
  std::string why1, why2;
  EXPECT_EQ(get_or_compile_native(k, &why1), nullptr);
  EXPECT_FALSE(why1.empty());
  // The second call answers from the cache without re-probing.
  EXPECT_EQ(get_or_compile_native(k, &why2), nullptr);
  EXPECT_EQ(why2, "native compilation previously failed");
}

// ---- emitter: differential over fuzzed shapes ------------------------------

/// One randomized launch shape for the emitter differential: precision,
/// vector width, work-group geometry and loop trip count all vary.
struct FuzzShape {
  Scalar s = Scalar::F64;
  int w = 2;       ///< vector lanes of the accumulator / global accesses
  int local = 4;   ///< work-group size
  int groups = 2;  ///< number of work-groups
  int trip = 3;    ///< mad-loop trip count
  std::string summary() const {
    return std::string(s == Scalar::F64 ? "f64" : "f32") + " w=" +
           std::to_string(w) + " local=" + std::to_string(local) +
           " groups=" + std::to_string(groups) +
           " trip=" + std::to_string(trip);
  }
};

/// A kernel touching every emitted path: local staging + barrier,
/// private staging, the fused splat(load_private) * load_global + acc mad
/// form, a divergent (masked) if, select, and a vector store — all at the
/// shape's width and precision.
Kernel fuzzed_kernel(const FuzzShape& f) {
  const Type t1 = fp(f.s, 1);
  const Type tw = fp(f.s, f.w);
  KernelBuilder b("fuzz", f.s);
  b.add_arg("out", ArgKind::GlobalPtr, f.s);
  b.add_arg("a", ArgKind::GlobalConstPtr, f.s);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  b.add_arg("alpha", ArgKind::Float, f.s);
  const int gid = b.decl_var("gid", i32());
  const int lx = b.decl_var("lx", i32());
  const int i = b.decl_var("i", i32());
  const int acc = b.decl_var("acc", tw);
  const int t = b.decl_var("t", t1);
  const int lm = b.decl_array("Lm", f.s, f.local, AddrSpace::Local);
  const int pa = b.decl_array("P", f.s, 2, AddrSpace::Private);
  b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  b.append(store_local(lm, b.ref(lx), load_global(1, b.ref(gid), t1)));
  b.append(barrier());
  b.append(assign(t, load_local(lm,
                                bin(BinOp::Mod, b.ref(lx) + 1,
                                    iconst(f.local)),
                                t1)));
  b.append(store_private(pa, iconst(0), b.ref(t)));
  b.append(assign(acc, splat(arg_ref(3, t1), f.w)));
  b.append(for_loop(
      i, iconst(0), arg_ref(2, i32()), iconst(1),
      {
          assign(acc, mad(splat(load_private(pa, iconst(0), t1), f.w),
                          load_global(1, bin(BinOp::Mul, b.ref(gid),
                                             iconst(f.w)),
                                      tw),
                          b.ref(acc))),
          if_then(bin(BinOp::Lt, bin(BinOp::Mod, b.ref(gid), iconst(3)),
                      iconst(1)),
                  {assign(t, bin(BinOp::FMul, b.ref(t),
                                 fconst(1.5, t1)))}),
      }));
  b.append(store_global(
      0, bin(BinOp::Mul, b.ref(gid), iconst(f.w)),
      select(bin(BinOp::Lt, b.ref(gid), iconst(f.groups * f.local / 2)),
             b.ref(acc),
             bin(BinOp::FAdd, b.ref(acc), splat(b.ref(t), f.w)))));
  return b.build();
}

struct FuzzResult {
  std::vector<std::uint8_t> bytes;
  Counters counters;
};

FuzzResult run_fuzzed(const FuzzShape& f, Backend be) {
  const Kernel k = fuzzed_kernel(f);
  const std::size_t es = f.s == Scalar::F64 ? 8 : 4;
  const int nitems = f.groups * f.local;
  const std::size_t elems = static_cast<std::size_t>(nitems) *
                            static_cast<std::size_t>(f.w);
  auto out = std::make_shared<simcl::Buffer>(elems * es);
  auto a = std::make_shared<simcl::Buffer>(elems * es);
  for (std::size_t j = 0; j < elems; ++j) {
    const double v = 0.23 * static_cast<double>(j) - 2.75;
    if (f.s == Scalar::F64) {
      a->as<double>()[j] = v;
    } else {
      a->as<float>()[j] = static_cast<float>(v);
    }
  }
  const std::vector<ArgValue> args = {ArgValue::of(out), ArgValue::of(a),
                                      ArgValue::of_int(f.trip),
                                      ArgValue::of_float(1.25)};
  FuzzResult r;
  r.counters = launch_with_backend(k, {nitems, 1}, {f.local, 1}, args, 1, be);
  for (const auto& buf : {out, a}) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(buf->data());
    r.bytes.insert(r.bytes.end(), p, p + buf->size());
  }
  return r;
}

TEST_F(NativeTest, SimdDifferentialAcrossFuzzedShapes) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  // Eight fuzzed shapes, alternating precision and cycling the vector
  // width so every (precision, width) pair appears; geometry and trip
  // count are drawn from the seeded stream. Buffers must come back
  // byte-identical (ULP-exact, including every f32 rounding) between
  // bytecode and native, with equal counters.
  static const int kWidths[] = {1, 2, 4, 8};
  static const int kLocals[] = {2, 4, 8};
  static const int kTrips[] = {0, 1, 3, 7};
  Rng rng(0x51D5);
  for (int n = 0; n < 8; ++n) {
    FuzzShape f;
    f.s = (n % 2) != 0 ? Scalar::F32 : Scalar::F64;
    f.w = kWidths[n % 4];
    f.local = kLocals[rng.next_below(3)];
    f.groups = 1 + static_cast<int>(rng.next_below(3));
    f.trip = kTrips[rng.next_below(4)];
    const FuzzResult byte = run_fuzzed(f, Backend::Bytecode);
    const FuzzResult simd = run_fuzzed(f, Backend::Native);
    EXPECT_EQ(byte.bytes, simd.bytes)
        << "SIMD-native divergence: " << f.summary();
    EXPECT_EQ(byte.counters, simd.counters)
        << "SIMD-native counter divergence: " << f.summary();
  }
}

// ---- Table II kernels: native builds against bytecode ----------------------

/// C's bytes and the counters of one launch.
struct GemmRun {
  std::vector<std::uint8_t> c;
  Counters counters;
};

/// A buffer of `elems` seeded values in [-1, 1).
simcl::BufferPtr seeded_buffer(Rng& rng, std::int64_t elems, bool f64) {
  auto buf = std::make_shared<simcl::Buffer>(static_cast<std::size_t>(elems) *
                                             (f64 ? 8 : 4));
  for (std::int64_t j = 0; j < elems; ++j) {
    const double v = rng.next_double(-1.0, 1.0);
    if (f64) {
      buf->as<double>()[j] = v;
    } else {
      buf->as<float>()[j] = static_cast<float>(v);
    }
  }
  return buf;
}

/// Launches `h` and collects C's bytes and the counters.
GemmRun launch_gemm(const PreparedKernel& h,
                    const codegen::LaunchGeometry& geo,
                    const std::vector<ArgValue>& args,
                    const simcl::BufferPtr& c, int threads) {
  GemmRun r;
  r.counters = launch(h, geo.global, geo.local, args, threads);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(c->data());
  r.c.assign(bytes, bytes + c->size());
  return r;
}

/// Launches `h` on a 2 x 2-group packed problem of `p` (Mp = 2 Mwg,
/// Np = 2 Nwg, Kp = 2 Kwg) with seeded operands and C, on `threads`
/// threads.
GemmRun run_packed(const PreparedKernel& h, const codegen::KernelParams& p,
                   int threads) {
  const std::int64_t M = 2 * p.Mwg, N = 2 * p.Nwg, K = 2 * p.Kwg;
  const bool f64 = p.prec == codegen::Precision::DP;
  Rng rng(0x7AB1E2);
  const simcl::BufferPtr a = seeded_buffer(rng, K * M, f64),
                         b = seeded_buffer(rng, K * N, f64),
                         c = seeded_buffer(rng, M * N, f64);
  using codegen::GemmKernelArgs;
  std::vector<ArgValue> args(8);
  args[GemmKernelArgs::C] = ArgValue::of(c);
  args[GemmKernelArgs::A] = ArgValue::of(a);
  args[GemmKernelArgs::B] = ArgValue::of(b);
  args[GemmKernelArgs::M] = ArgValue::of_int(M);
  args[GemmKernelArgs::N] = ArgValue::of_int(N);
  args[GemmKernelArgs::K] = ArgValue::of_int(K);
  args[GemmKernelArgs::alpha] = ArgValue::of_float(1.5);
  args[GemmKernelArgs::beta] = ArgValue::of_float(-0.5);
  return launch_gemm(h, codegen::launch_geometry(p, M, N), args, c, threads);
}

/// Builds `p`'s kernel natively at emit width `w`, with that width's JIT
/// flags, and expects C's bytes and the counters of bytecode at 1 and 4
/// threads.
void expect_native_matches_bytecode(const codegen::KernelParams& p, int w) {
  const Kernel k = codegen::generate_gemm_kernel(p);
  const std::string what = k.name + " at width " + std::to_string(w);
  std::string why;
  PreparedKernel native;
  native.signature = LaunchSignature::of(k);
  NativeKernelPtr nk = get_or_compile_native(k, &why, w);
  ASSERT_NE(nk, nullptr) << what << ": " << why;
  native.fill_native(std::move(nk));
  const GemmRun want = run_packed(*prepare(k, Backend::Bytecode), p, 1);
  for (const int threads : {1, 4}) {
    const GemmRun got = run_packed(native, p, threads);
    EXPECT_EQ(got.c, want.c) << what << ", " << threads << " threads";
    EXPECT_EQ(got.counters, want.counters)
        << what << ", " << threads << " threads";
  }
}

TEST_F(NativeTest, EveryEmitWidthMatchesBytecode) {
  // Only the host width runs anywhere else, so each width the CPU can run
  // is built here: Tahiti's two Table II kernels, whose k-loops exercise
  // the f32 round, float loads and stride-6 double loads of every width's
  // lane helpers.
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  for (const int w : {2, 4, 8}) {
    if (w > native_simd_width()) {
      std::printf("width %d skipped: the CPU runs at most %d\n", w,
                  native_simd_width());
      continue;
    }
    for (const auto prec : {codegen::Precision::DP, codegen::Precision::SP})
      expect_native_matches_bytecode(
          codegen::table2_entry(simcl::DeviceId::Tahiti, prec).params, w);
  }
}

// All twelve Table II kernels at the host width. Twelve cold compiles cost
// about 35 CPU-seconds, so the case is disabled in tier-1; the native CI
// job runs it with --gtest_also_run_disabled_tests under its JIT cache.
TEST_F(NativeTest, DISABLED_TableIIKernelsMatchBytecode) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  for (const simcl::DeviceId dev : simcl::evaluation_devices())
    for (const auto prec : {codegen::Precision::DP, codegen::Precision::SP})
      expect_native_matches_bytecode(codegen::table2_entry(dev, prec).params,
                                     native_simd_width());
}

// ---- toolchain probe caching -----------------------------------------------

TEST_F(NativeTest, ToolchainProbeIsCachedProcessWide) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  trace::reset();
  trace::set_enabled(true);
  reset_native_probe();
  run_salted(21, Backend::Native);
  const std::uint64_t probes = trace_counter("interp.toolchain_probe");
  EXPECT_GE(probes, 1u);
  // Three more cold compiles (fresh kernels, fresh disk cache, so the
  // compiler genuinely runs each time) must not probe again.
  for (int salt = 22; salt <= 24; ++salt) {
    set_jit_cache_dir(make_temp_dir());
    run_salted(salt, Backend::Native);
  }
  EXPECT_GE(trace_counter("interp.native_compiles"), 3u);
  EXPECT_EQ(trace_counter("interp.toolchain_probe"), probes);
}

// ---- concurrent cold builds ------------------------------------------------

/// Four threads prepare `salt`'s kernel natively at once, while no object
/// for it exists yet. No handle may fall back, and each one's C must equal
/// bytecode's.
void expect_concurrent_native_preparations(int salt) {
  constexpr int kThreads = 4;
  const Kernel k = salted_kernel(salt);
  std::vector<KernelHandle> handles(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (KernelHandle& h : handles)
    threads.emplace_back([&] {
      // Start together, so the builds overlap.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      h = prepare(k, Backend::Native);
    });
  for (std::thread& t : threads) t.join();
  const std::vector<double> want = run_salted(salt, Backend::Bytecode);
  for (const KernelHandle& h : handles) {
    EXPECT_FALSE(h->native_fallback()) << "salt " << salt;
    EXPECT_NE(h->native(), nullptr) << "salt " << salt;
    LaunchSetup s = salted_args(8);
    launch(*h, {8, 1}, {4, 1}, s.args, 1);
    const double* p = s.bufs[0]->as<double>();
    EXPECT_EQ(std::vector<double>(p, p + 8), want) << "salt " << salt;
  }
}

TEST_F(NativeTest, ConcurrentColdBuildsNeverCollide) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  namespace fs = std::filesystem;
  // With a cache directory, each build renames its own object into it and
  // leaves nothing else behind.
  const std::string dir = make_temp_dir();
  set_jit_cache_dir(dir);
  expect_concurrent_native_preparations(31);
  EXPECT_EQ(count_shared_objects(dir), 1);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
  // Without one, the builds work under TMPDIR and remove what they made.
  set_jit_cache_dir("");
  const std::string tmp = make_temp_dir();
  const char* old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir != nullptr ? old_tmpdir : "";
  setenv("TMPDIR", tmp.c_str(), 1);
  expect_concurrent_native_preparations(32);
  if (old_tmpdir != nullptr) {
    setenv("TMPDIR", saved.c_str(), 1);
  } else {
    unsetenv("TMPDIR");
  }
  EXPECT_TRUE(fs::is_empty(tmp)) << tmp;
  fs::remove_all(dir);
  fs::remove_all(tmp);
}

// ---- tier-up: background builds --------------------------------------------

/// A host compiler whose builds wait at a gate. GEMMTUNE_JIT_CXX points at
/// a wrapper that answers the toolchain probe at once and runs a build (a
/// command line with -shared) only once the gate file exists, refusing it
/// when `refuse` is set. The test decides when each build finishes, with
/// no timing assumption.
class GatedCompiler {
 public:
  explicit GatedCompiler(bool refuse = false) : dir_(make_temp_dir()) {
    const std::string script = dir_ + "/cxx";
    std::ofstream(script)
        << "#!/bin/sh\n"
        << "case \" $* \" in\n"
        << "  *\" -shared \"*)\n"
        << "    while [ ! -e '" << gate() << "' ]; do sleep 0.01; done\n"
        << (refuse ? "    echo 'gated compiler refused the build' >&2\n"
                     "    exit 1\n"
                   : "")
        << "    ;;\n"
        << "esac\n"
        << "exec '" << GEMMTUNE_TEST_CXX << "' \"$@\"\n";
    ::chmod(script.c_str(), 0755);
    setenv("GEMMTUNE_JIT_CXX", script.c_str(), 1);
    reset_native_probe();
  }
  ~GatedCompiler() {
    open();  // a build still waiting must not wait for ever
    unsetenv("GEMMTUNE_JIT_CXX");
    reset_native_probe();
  }
  void open() { std::ofstream{gate()}; }
  void shut() { std::remove(gate().c_str()); }

 private:
  std::string gate() const { return dir_ + "/gate"; }
  std::string dir_;
};

/// Launches `h`, the guarded direct kernel of `q`, on an NN problem one
/// short of two tiles each way, so the guards cut every edge.
GemmRun run_direct(const PreparedKernel& h, const codegen::KernelParams& q,
                   int threads) {
  const std::int64_t M = 2 * q.Mwg - 1, N = 2 * q.Nwg - 1,
                     K = 2 * q.Kwg - 1;
  const bool f64 = q.prec == codegen::Precision::DP;
  Rng rng(0xD1EC7);
  const simcl::BufferPtr a = seeded_buffer(rng, M * K, f64),
                         b = seeded_buffer(rng, K * N, f64),
                         c = seeded_buffer(rng, M * N, f64);
  using codegen::DirectGemmKernelArgs;
  std::vector<ArgValue> args(11);
  args[DirectGemmKernelArgs::C] = ArgValue::of(c);
  args[DirectGemmKernelArgs::A] = ArgValue::of(a);
  args[DirectGemmKernelArgs::B] = ArgValue::of(b);
  args[DirectGemmKernelArgs::M] = ArgValue::of_int(M);
  args[DirectGemmKernelArgs::N] = ArgValue::of_int(N);
  args[DirectGemmKernelArgs::K] = ArgValue::of_int(K);
  args[DirectGemmKernelArgs::lda] = ArgValue::of_int(M);
  args[DirectGemmKernelArgs::ldb] = ArgValue::of_int(K);
  args[DirectGemmKernelArgs::ldc] = ArgValue::of_int(M);
  args[DirectGemmKernelArgs::alpha] = ArgValue::of_float(1.5);
  args[DirectGemmKernelArgs::beta] = ArgValue::of_float(-0.5);
  const PackedExtents ext = packed_extents(M, N, K, q.Mwg, q.Nwg, q.Kwg);
  return launch_gemm(h, codegen::launch_geometry(q, ext.Mp, ext.Np), args, c,
                     threads);
}

/// A kernel a GemmEngine prepares, with a launch of it.
struct TierCase {
  std::string name;
  Kernel kernel;
  std::function<GemmRun(const PreparedKernel&, int)> run;
};

/// Tahiti's packed Table II kernels and their guarded direct variants, in
/// DP and SP.
std::vector<TierCase> tahiti_tier_cases() {
  std::vector<TierCase> out;
  for (const auto prec : {codegen::Precision::DP, codegen::Precision::SP}) {
    const codegen::KernelParams p =
        codegen::table2_entry(simcl::DeviceId::Tahiti, prec).params;
    const codegen::KernelParams q = tuner::direct_variant(p);
    const std::string name = prec == codegen::Precision::DP ? "DP" : "SP";
    out.push_back({name + " packed", codegen::generate_gemm_kernel(p),
                   [p](const PreparedKernel& h, int threads) {
                     return run_packed(h, p, threads);
                   }});
    out.push_back({name + " guarded direct",
                   codegen::generate_direct_gemm_kernel(q, Transpose::No,
                                                        Transpose::No, true),
                   [q](const PreparedKernel& h, int threads) {
                     return run_direct(h, q, threads);
                   }});
  }
  return out;
}

void expect_same_run(const GemmRun& got, const GemmRun& want,
                     const std::string& what) {
  EXPECT_EQ(got.c, want.c) << what;
  EXPECT_EQ(got.counters, want.counters) << what;
}

TEST_F(NativeTest, TieredHandleRunsOnBytecodeUntilItsObjectIsBuilt) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  GatedCompiler cxx;
  set_jit_cache_dir(make_temp_dir());
  trace::reset();
  trace::set_enabled(true);
  const std::vector<TierCase> cases = tahiti_tier_cases();
  for (const TierCase& c : cases) {
    const GemmRun want = c.run(*prepare(c.kernel, Backend::Bytecode), 1);
    cxx.shut();
    const KernelHandle h = prepare_tiered(c.kernel);
    // The build waits at the gate, so these launches run on bytecode.
    for (const int threads : {1, 4})
      expect_same_run(c.run(*h, threads), want, c.name + " before the build");
    EXPECT_EQ(h->native(), nullptr) << c.name;

    // Four threads launch the handle across the fill: the gate opens once
    // each has launched, and each launches once more after it sees the
    // slot filled.
    std::atomic<int> launched{0}, mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (bool last = false, first = true; !last; first = false) {
          last = h->native() != nullptr || h->native_fallback();
          const GemmRun got = c.run(*h, 1);
          mismatches += got.c != want.c || got.counters != want.counters;
          if (first) ++launched;
        }
      });
    while (launched.load() < 4) std::this_thread::yield();
    cxx.open();
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << c.name;
    EXPECT_NE(h->native(), nullptr) << c.name;
    EXPECT_FALSE(h->native_fallback()) << c.name;
    for (const int threads : {1, 4})
      expect_same_run(c.run(*h, threads), want, c.name + " after the build");
  }
  // Each tiered handle lowered its kernel once (the bytecode reference
  // lowered it too), and its build used that program.
  EXPECT_EQ(trace_counter("interp.compiles"), 2 * cases.size());
  EXPECT_EQ(trace_counter("interp.native_compiles"), cases.size());
  EXPECT_EQ(trace_counter("interp.native_tierup"), cases.size());
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);

  // Warm cache: each object loads at prepare time, so the handle is native
  // from its first launch and queues no build.
  cxx.shut();
  for (const TierCase& c : cases) {
    const KernelHandle h = prepare_tiered(c.kernel);
    EXPECT_NE(h->native(), nullptr) << c.name;
    EXPECT_EQ(h->build, nullptr) << c.name;
    expect_same_run(c.run(*h, 1),
                    c.run(*prepare(c.kernel, Backend::Bytecode), 1),
                    c.name + " warm");
  }
  EXPECT_EQ(trace_counter("interp.native_disk_hits"), cases.size());
  EXPECT_EQ(trace_counter("interp.native_compiles"), cases.size());
  EXPECT_EQ(trace_counter("interp.native_tierup"), cases.size());
}

TEST_F(NativeTest, FailedBackgroundBuildLeavesTheHandleOnBytecode) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  GatedCompiler cxx(/*refuse=*/true);
  set_jit_cache_dir(make_temp_dir());
  trace::reset();
  trace::set_enabled(true);
  const TierCase c = tahiti_tier_cases()[0];
  const GemmRun want = c.run(*prepare(c.kernel, Backend::Bytecode), 1);
  ::testing::internal::CaptureStderr();
  const KernelHandle h = prepare_tiered(c.kernel);
  // A launch while the build is pending is no fallback.
  expect_same_run(c.run(*h, 1), want, "pending");
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);
  cxx.open();
  settle_native_builds(std::span<const KernelHandle>(&h, 1));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(h->native(), nullptr);
  EXPECT_TRUE(h->native_fallback());
  for (std::uint64_t rep = 1; rep <= 3; ++rep) {
    expect_same_run(c.run(*h, 1), want, "fallen back");
    EXPECT_EQ(trace_counter("interp.native_fallback"), rep);
  }
  // One warning, from the worker, naming the compiler's diagnostic.
  std::size_t warnings = 0;
  for (std::size_t at = err.find("falling back to bytecode");
       at != std::string::npos;
       at = err.find("falling back to bytecode", at + 1))
    ++warnings;
  EXPECT_EQ(warnings, 1u) << err;
  EXPECT_NE(err.find("gated compiler refused the build"), std::string::npos)
      << err;
  // The failure is sticky: the next handle falls back without a build.
  const KernelHandle again = prepare_tiered(c.kernel);
  EXPECT_TRUE(again->native_fallback());
  EXPECT_EQ(again->build, nullptr);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 1u);
}

/// One verified 64^3 NN call on `engine`; returns its error in tolerances.
template <typename T>
double engine_gemm(blas::GemmEngine& engine) {
  constexpr index_t n = 64;
  Rng rng(0x71E2);
  Matrix<T> A(n, n), B(n, n), C(n, n);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  return engine
             .gemm<T>(Transpose::No, Transpose::No, n, n, n, T(1.5), A, B,
                      T(-0.5), C, true)
             .max_error /
         hostblas::gemm_tolerance<T>(n);
}

/// Spins until trace counter `name` is nonzero; false after a minute, so
/// a wrong build order fails the test instead of hanging it.
bool await_counter(const char* name) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (trace_counter(name) == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST_F(NativeTest, DestroyedEngineFinishesItsRunningBuildAndDropsTheRest) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  namespace fs = std::filesystem;
  GatedCompiler cxx;
  set_backend_override(Backend::Native);
  trace::reset();
  trace::set_enabled(true);
  // No cache directory: a build works under the TMPDIR of its prepare and
  // removes what it made.
  const std::string tmp = make_temp_dir();
  const char* old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir != nullptr ? old_tmpdir : "";
  setenv("TMPDIR", tmp.c_str(), 1);
  auto engine = std::make_unique<blas::GemmEngine>(simcl::DeviceId::Tahiti);
  EXPECT_LE(engine_gemm<double>(*engine), 1.0);  // its build runs
  EXPECT_LE(engine_gemm<float>(*engine), 1.0);   // its build is queued
  if (old_tmpdir != nullptr) {
    setenv("TMPDIR", saved.c_str(), 1);
  } else {
    unsetenv("TMPDIR");
  }
  std::thread destroy([&] { engine.reset(); });
  // The engine drops its queued build before it waits for the running
  // one. The gate opens only after the drop, when the worker would
  // otherwise start the queued build next.
  EXPECT_TRUE(await_counter("interp.native_dropped"));
  cxx.open();
  destroy.join();
  EXPECT_EQ(trace_counter("interp.native_dropped"), 1u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 1u);
  EXPECT_EQ(trace_counter("interp.native_tierup"), 1u);
  EXPECT_TRUE(fs::is_empty(tmp)) << tmp;
  fs::remove_all(tmp);
}

TEST_F(NativeTest, BuildLandsInTheCacheDirectoryOfItsPrepare) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  GatedCompiler cxx;
  set_backend_override(Backend::Native);
  const std::string first = make_temp_dir(), second = make_temp_dir();
  set_jit_cache_dir(first);
  auto engine = std::make_unique<blas::GemmEngine>(simcl::DeviceId::Tahiti);
  EXPECT_LE(engine_gemm<double>(*engine), 1.0);  // its build waits
  // The next set-up switches directories while that build still runs, as
  // the benchmark's set-ups do between engines.
  set_jit_cache_dir(second);
  cxx.open();
  engine.reset();
  EXPECT_EQ(count_shared_objects(first), 1);
  EXPECT_EQ(count_shared_objects(second), 0);
  trace::reset();
  trace::set_enabled(true);
  engine = std::make_unique<blas::GemmEngine>(simcl::DeviceId::Tahiti);
  EXPECT_LE(engine_gemm<double>(*engine), 1.0);
  EXPECT_EQ(trace_counter("interp.native_disk_hits"), 0u);
  engine.reset();
  EXPECT_EQ(count_shared_objects(second), 1);
}

TEST_F(NativeTest, EnginesSettledTogetherWaitForOneBuild) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  GatedCompiler cxx;
  set_backend_override(Backend::Native);
  set_jit_cache_dir(make_temp_dir());
  trace::reset();
  trace::set_enabled(true);
  // Two engines, as a server keeps one per device: the first engine's
  // build runs behind the gate and the second's is queued behind it.
  std::vector<std::unique_ptr<blas::GemmEngine>> engines;
  for (int e = 0; e < 2; ++e)
    engines.push_back(
        std::make_unique<blas::GemmEngine>(simcl::DeviceId::Tahiti));
  EXPECT_LE(engine_gemm<double>(*engines[0]), 1.0);
  EXPECT_LE(engine_gemm<float>(*engines[1]), 1.0);
  // Settled together, the second engine's build is dropped before anyone
  // waits, so it never follows the first. Destroyed one at a time, the
  // worker would start it while the first engine waited.
  std::thread settle(
      [&] { blas::GemmEngine::settle_native_builds(engines); });
  EXPECT_TRUE(await_counter("interp.native_dropped"));
  cxx.open();
  settle.join();
  engines.clear();
  EXPECT_EQ(trace_counter("interp.native_dropped"), 1u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 1u);
  EXPECT_EQ(trace_counter("interp.native_tierup"), 1u);
}

TEST_F(NativeTest, WaitingForAnEngineFinishesEveryBuildItQueued) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  GatedCompiler cxx;
  set_backend_override(Backend::Native);
  set_jit_cache_dir(make_temp_dir());
  trace::reset();
  trace::set_enabled(true);
  blas::GemmEngine engine(simcl::DeviceId::Tahiti);
  EXPECT_FALSE(engine.wait_native_builds());  // nothing prepared yet
  // Both calls run on bytecode: the DP build waits at the gate and the SP
  // build is queued behind it.
  EXPECT_LE(engine_gemm<double>(engine), 1.0);
  EXPECT_LE(engine_gemm<float>(engine), 1.0);
  EXPECT_EQ(trace_counter("interp.native_tierup"), 0u);
  cxx.open();
  EXPECT_TRUE(engine.wait_native_builds());
  // Both slots are filled, and nothing was dropped, so the engine's next
  // calls run natively.
  EXPECT_EQ(trace_counter("interp.native_compiles"), 2u);
  EXPECT_EQ(trace_counter("interp.native_tierup"), 2u);
  EXPECT_EQ(trace_counter("interp.native_dropped"), 0u);
  EXPECT_LE(engine_gemm<double>(engine), 1.0);
  EXPECT_LE(engine_gemm<float>(engine), 1.0);

  // A warm engine loads both objects when it prepares, so it has no build
  // to wait for.
  blas::GemmEngine warm(simcl::DeviceId::Tahiti);
  EXPECT_LE(engine_gemm<double>(warm), 1.0);
  EXPECT_LE(engine_gemm<float>(warm), 1.0);
  EXPECT_FALSE(warm.wait_native_builds());
  EXPECT_EQ(trace_counter("interp.native_disk_hits"), 2u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 2u);
}

}  // namespace
}  // namespace gemmtune::ir
