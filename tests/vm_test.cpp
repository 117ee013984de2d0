// Differential tests for the bytecode VM (compile.hpp / vm.hpp) and the
// native JIT (native.hpp) against the tree-walking reference interpreter
// (tree_oracle.hpp): identical buffers and counters for well-formed
// launches at any thread count, identical error messages for malformed
// ones, including kernels whose result depends on lockstep order, which
// the native JIT's item-major runs and vector loop runs must preserve;
// prepared kernel handles against ir::launch (every
// differential case, repeated launches of one handle, four threads on one
// handle); and backend resolution precedence. The native legs run
// whenever a host toolchain answers the probe (CI always has one);
// without a toolchain they are skipped, not failed — that machine's
// fallback behaviour has its own test in native_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/kernel.hpp"
#include "kernelir/native.hpp"
#include "simcl/runtime.hpp"
#include "tree_oracle.hpp"

namespace gemmtune::ir {
namespace {

// Each native leg compares launches that prepare the kernel afresh, and
// every such preparation loads or builds its object again. This binary's
// own JIT cache directory turns all but the first into warm loads of the
// object on disk, as a second process would see them; it is removed at
// exit.
class JitCacheDir : public ::testing::Environment {
 public:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "vm-test-jit-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) return;
    dir_ = tmpl;
    set_jit_cache_dir(dir_);
  }
  void TearDown() override {
    set_jit_cache_dir("");
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

 private:
  std::string dir_;
};

const ::testing::Environment* const kJitCacheDir =
    ::testing::AddGlobalTestEnvironment(new JitCacheDir);

simcl::BufferPtr make_buffer(std::size_t bytes) {
  return std::make_shared<simcl::Buffer>(bytes);
}

/// Builds fresh argument buffers for one launch (runs must not share
/// writable state) and returns the args; buffers land in `bufs`.
using ArgFactory =
    std::function<std::vector<ArgValue>(std::vector<simcl::BufferPtr>*)>;

struct RunResult {
  bool threw = false;
  std::string message;
  Counters counters;
  std::vector<std::uint8_t> bytes;  // all argument buffers, concatenated
};

/// Runs one launch, `exec(args)`, on freshly built arguments.
template <typename Exec>
RunResult run_with(const ArgFactory& make, const Exec& exec) {
  std::vector<simcl::BufferPtr> bufs;
  const std::vector<ArgValue> args = make(&bufs);
  RunResult r;
  try {
    r.counters = exec(args);
  } catch (const Error& e) {
    r.threw = true;
    r.message = e.what();
  }
  for (const auto& b : bufs) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(b->data());
    r.bytes.insert(r.bytes.end(), p, p + b->size());
  }
  return r;
}

RunResult run_one(const Kernel& k, std::array<std::int64_t, 2> global,
                  std::array<std::int64_t, 2> local, const ArgFactory& make,
                  Backend backend, int threads) {
  return run_with(make, [&](const std::vector<ArgValue>& args) {
    return launch_with_backend(k, global, local, args, threads, backend);
  });
}

/// run_one() through a handle: prepare() once, then launch the handle.
RunResult run_handle(const Kernel& k, std::array<std::int64_t, 2> global,
                     std::array<std::int64_t, 2> local, const ArgFactory& make,
                     Backend backend, int threads) {
  return run_with(make, [&](const std::vector<ArgValue>& args) {
    return launch(*prepare(k, backend), global, local, args, threads);
  });
}

/// A handle launch must match the ir::launch of the same kernel exactly:
/// same outcome, same message, and on success the same buffers and
/// counters.
void expect_same(const RunResult& want, const RunResult& got,
                 const std::string& what) {
  EXPECT_EQ(want.threw, got.threw) << what;
  EXPECT_EQ(want.message, got.message) << what;
  if (!want.threw && !got.threw) {
    EXPECT_EQ(want.bytes, got.bytes) << what;
    EXPECT_EQ(want.counters, got.counters) << what;
  }
}

RunResult run_tree(const Kernel& k, std::array<std::int64_t, 2> global,
                   std::array<std::int64_t, 2> local, const ArgFactory& make) {
  return run_with(make, [&](const std::vector<ArgValue>& args) {
    return tree_launch(k, global, local, args);
  });
}

/// Runs tree, bytecode(1 thread), bytecode(4 threads) — plus
/// native(1) and native(4) when a host toolchain is available — and checks
/// the differential contract. Each tier also runs through a prepared
/// handle, which must match its ir::launch exactly. Buffer contents after
/// a throw are unspecified, so they are only compared on success.
void expect_equivalent(const Kernel& k, std::array<std::int64_t, 2> global,
                       std::array<std::int64_t, 2> local,
                       const ArgFactory& make) {
  const RunResult tree = run_tree(k, global, local, make);
  const RunResult byte1 =
      run_one(k, global, local, make, Backend::Bytecode, 1);
  const RunResult byte4 =
      run_one(k, global, local, make, Backend::Bytecode, 4);
  EXPECT_EQ(tree.threw, byte1.threw) << k.name;
  EXPECT_EQ(tree.message, byte1.message) << k.name;
  EXPECT_EQ(byte1.threw, byte4.threw) << k.name;
  EXPECT_EQ(byte1.message, byte4.message) << k.name;
  if (!tree.threw && !byte1.threw) {
    EXPECT_EQ(tree.bytes, byte1.bytes) << k.name;
    EXPECT_EQ(tree.counters, byte1.counters) << k.name;
    EXPECT_EQ(byte1.bytes, byte4.bytes) << k.name;
    EXPECT_EQ(byte1.counters, byte4.counters) << k.name;
  }
  expect_same(byte1, run_handle(k, global, local, make, Backend::Bytecode, 1),
              k.name + " (bytecode handle)");
  expect_same(byte4, run_handle(k, global, local, make, Backend::Bytecode, 4),
              k.name + " (bytecode handle, 4 threads)");
  if (!native_toolchain_available()) return;
  const RunResult nat1 = run_one(k, global, local, make, Backend::Native, 1);
  const RunResult nat4 = run_one(k, global, local, make, Backend::Native, 4);
  EXPECT_EQ(tree.threw, nat1.threw) << k.name << " (native)";
  EXPECT_EQ(tree.message, nat1.message) << k.name << " (native)";
  EXPECT_EQ(nat1.threw, nat4.threw) << k.name << " (native)";
  EXPECT_EQ(nat1.message, nat4.message) << k.name << " (native)";
  if (!tree.threw && !nat1.threw) {
    EXPECT_EQ(tree.bytes, nat1.bytes) << k.name << " (native)";
    EXPECT_EQ(tree.counters, nat1.counters) << k.name << " (native)";
    EXPECT_EQ(nat1.bytes, nat4.bytes) << k.name << " (native)";
    EXPECT_EQ(nat1.counters, nat4.counters) << k.name << " (native)";
  }
  expect_same(nat1, run_handle(k, global, local, make, Backend::Native, 1),
              k.name + " (native handle)");
  expect_same(nat4, run_handle(k, global, local, make, Backend::Native, 4),
              k.name + " (native handle, 4 threads)");
}

// A kernel exercising most of the instruction surface: builtins, local
// staging + barrier, private staging, a uniform loop with an invariant
// subexpression (hoisting), varying div/mod with nonzero divisors, a
// divergent if, select with both uniform and varying conditions, splat /
// lane, and vector arithmetic.
Kernel stress_kernel(Scalar s) {
  const Type t1 = fp(s, 1);
  const Type t2 = fp(s, 2);
  KernelBuilder b(s == Scalar::F64 ? "stress64" : "stress32", s);
  b.add_arg("out", ArgKind::GlobalPtr, s);
  b.add_arg("a", ArgKind::GlobalConstPtr, s);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  b.add_arg("alpha", ArgKind::Float, s);
  const int gid = b.decl_var("gid", i32());
  const int lx = b.decl_var("lx", i32());
  const int i = b.decl_var("i", i32());
  const int q = b.decl_var("q", i32());
  const int acc = b.decl_var("acc", t2);
  const int t = b.decl_var("t", t1);
  const int lm = b.decl_array("Lm", s, 8, AddrSpace::Local);
  const int pa = b.decl_array("P", s, 4, AddrSpace::Private);
  b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  b.append(store_local(lm, b.ref(lx), load_global(1, b.ref(gid), t1)));
  b.append(barrier());
  b.append(assign(t, load_local(lm, bin(BinOp::Mod, b.ref(lx) + 1, iconst(4)),
                                t1)));
  b.append(store_private(pa, iconst(0), b.ref(t)));
  b.append(assign(acc, splat(arg_ref(3, t1), 2)));
  b.append(for_loop(
      i, iconst(0), arg_ref(2, i32()), iconst(1),
      {
          // splat(load_private(...)) matches the fused SplatLaneP form.
          assign(acc, mad(splat(load_private(pa, iconst(0), t1), 2),
                          load_global(1, bin(BinOp::Mul, b.ref(gid),
                                             iconst(2)),
                                      t2),
                          b.ref(acc))),
          if_then(bin(BinOp::Lt, b.ref(i), iconst(2)),
                  {assign(t, bin(BinOp::FMul, b.ref(t),
                                 fconst(1.5, t1)))}),
      }));
  // Varying division/modulo with a strictly positive divisor.
  b.append(assign(q, bin(BinOp::Add,
                         bin(BinOp::Div, b.ref(gid), b.ref(lx) + 1),
                         bin(BinOp::Mod, b.ref(gid), b.ref(lx) + 1))));
  b.append(if_then(bin(BinOp::Lt, bin(BinOp::Mod, b.ref(q), iconst(2)),
                       iconst(1)),
                   {assign(acc, bin(BinOp::FAdd, b.ref(acc),
                                    splat(b.ref(t), 2)))}));
  b.append(store_global(
      0, bin(BinOp::Mul, b.ref(gid), iconst(2)),
      select(bin(BinOp::Lt, b.ref(gid), iconst(6)), b.ref(acc),
             bin(BinOp::FAdd, b.ref(acc), b.ref(acc)))));
  return b.build();
}

ArgFactory stress_args(Scalar s, int n_items, int trip, double alpha = 1.25,
                       double salt = 0.0) {
  const std::size_t es = s == Scalar::F64 ? 8 : 4;
  return [=](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(static_cast<std::size_t>(2 * n_items) * es);
    auto a = make_buffer(static_cast<std::size_t>(2 * n_items) * es);
    for (int j = 0; j < 2 * n_items; ++j) {
      if (s == Scalar::F64) {
        a->as<double>()[j] = 0.25 * j - 3.0 + salt;
      } else {
        a->as<float>()[j] = static_cast<float>(0.25 * j - 3.0 + salt);
      }
    }
    bufs->push_back(out);
    bufs->push_back(a);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of(a),
                                 ArgValue::of_int(trip),
                                 ArgValue::of_float(alpha)};
  };
}

TEST(VmDifferential, StressKernelBothPrecisions) {
  for (const Scalar s : {Scalar::F64, Scalar::F32}) {
    const Kernel k = stress_kernel(s);
    expect_equivalent(k, {8, 1}, {4, 1}, stress_args(s, 8, 3));
    // Zero-trip loop and a single work-group.
    expect_equivalent(k, {4, 1}, {4, 1}, stress_args(s, 4, 0));
  }
}

TEST(VmDifferential, ManyGroupsThreadInvariance) {
  const Kernel k = stress_kernel(Scalar::F64);
  // 16 groups spread over 1 / 3 / 8 threads must be byte-identical.
  const auto make = stress_args(Scalar::F64, 64, 5);
  const RunResult r1 = run_one(k, {64, 1}, {4, 1}, make, Backend::Bytecode, 1);
  const RunResult r3 = run_one(k, {64, 1}, {4, 1}, make, Backend::Bytecode, 3);
  const RunResult r8 = run_one(k, {64, 1}, {4, 1}, make, Backend::Bytecode, 8);
  ASSERT_FALSE(r1.threw);
  EXPECT_EQ(r1.bytes, r3.bytes);
  EXPECT_EQ(r1.counters, r3.counters);
  EXPECT_EQ(r1.bytes, r8.bytes);
  EXPECT_EQ(r1.counters, r8.counters);
}

// ---- kernel handles --------------------------------------------------------

/// The tiers a handle test covers: bytecode always, native with a toolchain.
std::vector<Backend> handle_tiers() {
  std::vector<Backend> tiers{Backend::Bytecode};
  if (native_toolchain_available()) tiers.push_back(Backend::Native);
  return tiers;
}

TEST(VmHandles, RepeatedLaunchesMatchFreshLaunches) {
  // One handle per tier and precision, launched again and again with new
  // buffers, scalars and NDRanges (and one malformed NDRange in between):
  // every launch must equal a fresh ir::launch of the same kernel.
  struct Shape {
    std::int64_t items, local;
    int trip;
    double alpha, salt;
  };
  const Shape shapes[] = {{8, 4, 3, 1.25, 0.0},   {4, 4, 0, -2.0, 0.5},
                          {64, 4, 5, 0.75, -1.0}, {6, 4, 1, 1.0, 0.0},
                          {16, 8, 1, 3.5, 2.25},  {8, 2, 7, 1.25, 0.125}};
  for (const Scalar s : {Scalar::F64, Scalar::F32}) {
    const Kernel k = stress_kernel(s);
    for (const Backend be : handle_tiers()) {
      const KernelHandle h = prepare(k, be);
      for (const Shape& sh : shapes) {
        const auto make = stress_args(s, static_cast<int>(sh.items), sh.trip,
                                      sh.alpha, sh.salt);
        const RunResult want =
            run_one(k, {sh.items, 1}, {sh.local, 1}, make, be, 1);
        const RunResult got =
            run_with(make, [&](const std::vector<ArgValue>& args) {
              return launch(*h, {sh.items, 1}, {sh.local, 1}, args, 1);
            });
        expect_same(want, got,
                    k.name + " items=" + std::to_string(sh.items) +
                        " backend=" + to_string(be));
      }
    }
  }
}

TEST(VmHandles, ConcurrentLaunchesOfOneHandleMatchSerial) {
  // Four threads launch one handle on disjoint buffers, with the global
  // pool, no pool and a private pool in turn; each launch must equal the
  // same launch run alone.
  constexpr int kThreads = 4, kPerThread = 6;
  const Kernel k = stress_kernel(Scalar::F64);
  for (const Backend be : handle_tiers()) {
    const KernelHandle h = prepare(k, be);
    const auto make = [](int j) {
      return stress_args(Scalar::F64, 64, 1 + j % 5, 0.5 + j, 0.25 * j);
    };
    std::vector<RunResult> want(kThreads * kPerThread);
    for (int j = 0; j < kThreads * kPerThread; ++j) {
      want[static_cast<std::size_t>(j)] =
          run_one(k, {64, 1}, {4, 1}, make(j), be, 1);
      ASSERT_FALSE(want[static_cast<std::size_t>(j)].threw);
    }
    std::vector<RunResult> got(want.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (int j = t * kPerThread; j < (t + 1) * kPerThread; ++j)
          got[static_cast<std::size_t>(j)] =
              run_with(make(j), [&](const std::vector<ArgValue>& args) {
                return launch(*h, {64, 1}, {4, 1}, args, j % 3);
              });
      });
    for (auto& th : threads) th.join();
    for (std::size_t j = 0; j < want.size(); ++j)
      expect_same(want[j], got[j],
                  "launch " + std::to_string(j) + " backend=" + to_string(be));
  }
}

// ---- error-message parity --------------------------------------------------

// Each case is a malformed kernel or launch; the oracle and both tiers must
// throw the same message. Single-item or uniform faults keep the reported instance
// deterministic.

TEST(VmErrors, LaunchValidationParity) {
  const Kernel k = stress_kernel(Scalar::F64);
  const auto make = stress_args(Scalar::F64, 8, 1);
  expect_equivalent(k, {8, 1}, {0, 1}, make);   // empty work-group
  expect_equivalent(k, {0, 1}, {4, 1}, make);   // empty NDRange
  expect_equivalent(k, {6, 1}, {4, 1}, make);   // not a multiple
  // 2^32 items in one group, past the int that indexes them; and 2^65
  // single-item groups, past int64. Only refused sizes: a launch that ran
  // would allocate per-item state for billions of items.
  const std::int64_t g62 = std::int64_t{1} << 62;
  expect_equivalent(k, {65536, 65536}, {65536, 65536}, make);
  expect_equivalent(k, {g62, 8}, {1, 1}, make);
  EXPECT_EQ(run_tree(k, {65536, 65536}, {65536, 65536}, make).message,
            "launch: a 65536x65536 work-group exceeds the limit of "
            "2147483647 work-items");
  EXPECT_EQ(run_tree(k, {g62, 8}, {1, 1}, make).message,
            "launch: 4611686018427387904x8 work-groups exceed the limit of "
            "9223372036854775807 work-groups");
  // Argument count mismatch.
  expect_equivalent(k, {8, 1}, {4, 1}, [](std::vector<simcl::BufferPtr>*) {
    return std::vector<ArgValue>{ArgValue::of_int(1)};
  });
  // Kind mismatch: scalar where a buffer is expected.
  expect_equivalent(k, {8, 1}, {4, 1},
                    [](std::vector<simcl::BufferPtr>* bufs) {
                      auto buf = make_buffer(64);
                      bufs->push_back(buf);
                      return std::vector<ArgValue>{
                          ArgValue::of_int(0), ArgValue::of(buf),
                          ArgValue::of_int(1), ArgValue::of_float(1.0)};
                    });
}

TEST(VmErrors, ReqdWorkGroupSizeParity) {
  KernelBuilder b("wg", Scalar::F32);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F32);
  b.set_reqd_local(4, 1);
  b.append(store_global(0, builtin(BuiltinFn::GlobalId, 0),
                        fconst(1.0, fp(Scalar::F32, 1))));
  const Kernel k = b.build();
  const auto make = [](std::vector<simcl::BufferPtr>* bufs) {
    auto buf = make_buffer(64);
    bufs->push_back(buf);
    return std::vector<ArgValue>{ArgValue::of(buf)};
  };
  expect_equivalent(k, {4, 1}, {2, 1}, make);
  expect_equivalent(k, {4, 1}, {4, 1}, make);  // and the passing shape
}

// Helper: single-item kernel writing out[0], for runtime-fault cases.
ArgFactory one_out(std::size_t out_bytes) {
  return [=](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(out_bytes);
    bufs->push_back(out);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of_int(0)};
  };
}

KernelBuilder one_item_builder(const char* name) {
  KernelBuilder b(name, Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  return b;
}

TEST(VmErrors, DivModByZeroParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Uniform division by a zero scalar argument.
    KernelBuilder b = one_item_builder("udiv0");
    const int q = b.decl_var("q", i32());
    b.append(assign(q, bin(BinOp::Div, iconst(4), arg_ref(1, i32()))));
    b.append(store_global(0, b.ref(q), fconst(1.0, t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Varying modulo: gid % n with n = 0.
    KernelBuilder b = one_item_builder("vmod0");
    const int q = b.decl_var("q", i32());
    b.append(assign(q, bin(BinOp::Mod, builtin(BuiltinFn::GlobalId, 0),
                           arg_ref(1, i32()))));
    b.append(store_global(0, b.ref(q), fconst(1.0, t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
}

TEST(VmErrors, GlobalOutOfRangeParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Constant store index beyond the 8-element buffer.
    KernelBuilder b = one_item_builder("gstore");
    b.append(store_global(0, iconst(100), fconst(1.0, t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Runtime load index: out[0] = out[n] with n = 99 (message says load).
    KernelBuilder b = one_item_builder("gload");
    b.append(store_global(0, iconst(0),
                          load_global(0, arg_ref(1, i32()), t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1},
                      [](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(64);
                        bufs->push_back(out);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of_int(99)};
                      });
  }
}

TEST(VmErrors, ArrayOutOfRangeParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Constant local index out of range — caught at compile time in the
    // bytecode backend, at execution in the tree; same message either way.
    KernelBuilder b = one_item_builder("locconst");
    const int lm = b.decl_array("Lm", Scalar::F64, 4, AddrSpace::Local);
    b.append(store_local(lm, iconst(9), fconst(1.0, t1)));
    b.append(store_global(0, iconst(0), load_local(lm, iconst(0), t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Runtime private index from a scalar argument.
    KernelBuilder b = one_item_builder("privrt");
    const int pa = b.decl_array("P", Scalar::F64, 2, AddrSpace::Private);
    b.append(store_private(pa, arg_ref(1, i32()), fconst(1.0, t1)));
    b.append(store_global(0, iconst(0), load_private(pa, iconst(0), t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1},
                      [](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(64);
                        bufs->push_back(out);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of_int(7)};
                      });
  }
}

TEST(VmErrors, LoopShapeParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Non-uniform bounds: limit depends on local id.
    KernelBuilder b("nonuni", Scalar::F64);
    b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
    const int i = b.decl_var("i", i32());
    const int lx = b.decl_var("lx", i32());
    b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
    b.append(for_loop(i, iconst(0), b.ref(lx) + 1, iconst(1),
                      {store_global(0, b.ref(i), fconst(1.0, t1))}));
    expect_equivalent(b.build(), {2, 1}, {2, 1}, [](auto* bufs) {
      auto out = make_buffer(64);
      bufs->push_back(out);
      return std::vector<ArgValue>{ArgValue::of(out)};
    });
  }
  {
    // Constant non-positive step — even for a zero-trip range the step
    // check fires first (matching the tree's evaluation order).
    KernelBuilder b = one_item_builder("step0");
    const int i = b.decl_var("i", i32());
    b.append(for_loop(i, iconst(0), iconst(0), iconst(-1),
                      {store_global(0, b.ref(i), fconst(1.0, t1))}));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Runtime step from a scalar argument (zero at launch).
    KernelBuilder b = one_item_builder("steprt");
    const int i = b.decl_var("i", i32());
    b.append(for_loop(i, iconst(0), iconst(4), arg_ref(1, i32()),
                      {store_global(0, b.ref(i), fconst(1.0, t1))}));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
}

TEST(VmErrors, BarrierAndReadOnlyParity) {
  {
    KernelBuilder b("divbar", Scalar::F32);
    b.add_arg("out", ArgKind::GlobalPtr, Scalar::F32);
    const int gid = b.decl_var("gid", i32());
    b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
    b.append(if_then(bin(BinOp::Lt, b.ref(gid), iconst(1)), {barrier()}));
    expect_equivalent(b.build(), {2, 1}, {2, 1}, [](auto* bufs) {
      auto out = make_buffer(64);
      bufs->push_back(out);
      return std::vector<ArgValue>{ArgValue::of(out)};
    });
  }
  {
    KernelBuilder b("ro", Scalar::F64);
    b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
    b.append(store_global(0, iconst(0), fconst(1.0, fp(Scalar::F64, 1))));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, [](auto* bufs) {
      auto buf = make_buffer(64);
      bufs->push_back(buf);
      return std::vector<ArgValue>{ArgValue::of(buf)};
    });
  }
}

TEST(VmErrors, DeadMalformedCodeDoesNotThrow) {
  const Type t1 = fp(Scalar::F64, 1);
  // Malformed accesses behind a statically-false if and a zero-trip
  // runtime loop must not fire in either backend.
  KernelBuilder b = one_item_builder("dead");
  const int i = b.decl_var("i", i32());
  const int lm = b.decl_array("Lm", Scalar::F64, 2, AddrSpace::Local);
  b.append(if_then(bin(BinOp::Lt, iconst(1), iconst(0)),
                   {store_local(lm, iconst(50), fconst(1.0, t1))}));
  b.append(for_loop(i, iconst(0), arg_ref(1, i32()), iconst(1),
                    {store_local(lm, iconst(99), fconst(1.0, t1)),
                     assign(i, bin(BinOp::Div, iconst(1), iconst(0)))}));
  b.append(store_global(0, iconst(0), fconst(2.0, t1)));
  const Kernel k = b.build();
  const RunResult tree = run_tree(k, {1, 1}, {1, 1}, one_out(64));
  const RunResult byte = run_one(k, {1, 1}, {1, 1}, one_out(64),
                                 Backend::Bytecode, 1);
  EXPECT_FALSE(tree.threw) << tree.message;
  EXPECT_FALSE(byte.threw) << byte.message;
  EXPECT_EQ(tree.bytes, byte.bytes);
  EXPECT_EQ(tree.counters, byte.counters);
}

// ---- item-major runs -------------------------------------------------------

// The native JIT executes straight-line code item-major, one loop over the
// work-items per run. These kernels tell that order apart from lockstep if
// a run breaks one of its rules; the oracle and both tiers must agree.

// Three items fault inside one straight-line run, each at a different
// load: item 1 at the first, item 2 at the second, item 0 at the third.
// Lockstep raises the first faulting instruction, item 1's index 16. An
// item-major loop that kept the first fault it met would report item 0's
// index 20; one that kept the last, item 2's index 18.
TEST(VmRuns, FaultOrderAcrossItemsMatchesLockstep) {
  for (const Scalar s : {Scalar::F64, Scalar::F32}) {
    const Type t1 = fp(s, 1);
    KernelBuilder b(s == Scalar::F64 ? "faults64" : "faults32", s);
    b.add_arg("out", ArgKind::GlobalPtr, s);
    b.add_arg("a", ArgKind::GlobalConstPtr, s);
    const int lx = b.decl_var("lx", i32());
    const int x = b.decl_var("x", t1);
    b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
    // Load k reads a[((lx + shift) % 3) * scale] from 16 elements: only
    // the item with residue 2 faults, at index 2 * scale.
    const int loads[3][2] = {{1, 8}, {0, 9}, {2, 10}};  // {shift, scale}
    for (const auto& l : loads) {
      const ExprPtr idx =
          bin(BinOp::Mul, bin(BinOp::Mod, b.ref(lx) + l[0], iconst(3)),
              iconst(l[1]));
      b.append(assign(x, bin(BinOp::FAdd, b.ref(x), load_global(1, idx, t1))));
    }
    b.append(store_global(0, b.ref(lx), b.ref(x)));
    const std::size_t es = s == Scalar::F64 ? 8 : 4;
    expect_equivalent(b.build(), {3, 1}, {3, 1},
                      [es](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(3 * es);
                        auto a = make_buffer(16 * es);
                        bufs->push_back(out);
                        bufs->push_back(a);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of(a)};
                      });
  }
}

// Barrier-free exchanges inside a work-group. Item t stores Lm[t], then
// loads Lm[(t + 1) % local]: lockstep finishes every store before any
// load, so each item reads its neighbour's fresh value, where a run
// mixing the array's store and load would read a stale one. The same
// exchange through global memory (store out[gid], load out[group base +
// (lx + 1) % local]) needs the global store to stay out of the loading
// run. Last, item t stores Lw[t] and then Lw[(t + 1) % local]: lockstep
// leaves each slot with its neighbour's second store, item-major with a
// later item's first.
TEST(VmRuns, BarrierFreeExchangesMatchLockstep) {
  for (const Scalar s : {Scalar::F64, Scalar::F32}) {
    const Type t1 = fp(s, 1);
    KernelBuilder b(s == Scalar::F64 ? "exchange64" : "exchange32", s);
    b.add_arg("out", ArgKind::GlobalPtr, s);
    b.add_arg("a", ArgKind::GlobalConstPtr, s);
    const int lx = b.decl_var("lx", i32());
    const int gid = b.decl_var("gid", i32());
    const int nb = b.decl_var("nb", i32());
    const int x = b.decl_var("x", t1);
    const int lm = b.decl_array("Lm", s, 4, AddrSpace::Local);
    const int lw = b.decl_array("Lw", s, 4, AddrSpace::Local);
    b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
    b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
    b.append(assign(nb, bin(BinOp::Mod, b.ref(lx) + 1,
                            builtin(BuiltinFn::LocalSize, 0))));
    b.append(store_local(lm, b.ref(lx), load_global(1, b.ref(gid), t1)));
    b.append(assign(x, load_local(lm, b.ref(nb), t1)));
    b.append(store_global(0, b.ref(gid), b.ref(x)));
    const ExprPtr neighbour =
        bin(BinOp::Add, bin(BinOp::Sub, b.ref(gid), b.ref(lx)), b.ref(nb));
    b.append(assign(x, load_global(0, neighbour, t1)));
    b.append(store_global(0, b.ref(gid) + 8, b.ref(x)));
    b.append(store_local(lw, b.ref(lx), load_global(1, b.ref(gid), t1)));
    b.append(store_local(lw, b.ref(nb), load_global(1, b.ref(gid) + 8, t1)));
    b.append(barrier());
    b.append(store_global(0, b.ref(gid) + 16, load_local(lw, b.ref(lx), t1)));
    const bool f64 = s == Scalar::F64;
    expect_equivalent(b.build(), {8, 1}, {4, 1},
                      [f64](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(24 * (f64 ? 8 : 4));
                        auto a = make_buffer(16 * (f64 ? 8 : 4));
                        for (int j = 0; j < 16; ++j) {
                          if (f64) {
                            a->as<double>()[j] = 1.5 * j + 1.0;
                          } else {
                            a->as<float>()[j] = 1.5f * static_cast<float>(j) +
                                                1.0f;
                          }
                        }
                        bufs->push_back(out);
                        bufs->push_back(a);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of(a)};
                      });
  }
}

// ---- one bounds test per instruction ----------------------------------------

// The VM tests a memory instruction's bounds once per work-group, runs the
// items before the first faulting one and then raises that item's error.
// Each kernel below holds one access of its kind at a computed index that
// is in range for every item but `bad` (an argument). Under a divergent
// `if`, every fourth item other than `bad` is inactive and holds an index
// far out of range, which must not fault.
enum class Access { LoadL, StoreL, LoadP, StoreP, LoadG, StoreG };

Kernel access_kernel(Access acc, bool divergent) {
  const Type t1 = fp(Scalar::F64, 1);
  KernelBuilder b("access", Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
  b.add_arg("bad", ArgKind::Int, Scalar::I32);
  const int lx = b.decl_var("lx", i32());
  const int ix = b.decl_var("ix", i32());
  const int x = b.decl_var("x", t1);
  const int lm = b.decl_array("Lm", Scalar::F64, 64, AddrSpace::Local);
  const int pm = b.decl_array("Pm", Scalar::F64, 4, AddrSpace::Private);
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  const ExprPtr bad = arg_ref(2, i32());
  // lx == bad, as (bad < lx + 1) && (lx < bad + 1).
  const ExprPtr is_bad = bin(BinOp::And, bin(BinOp::Lt, bad, b.ref(lx) + 1),
                             bin(BinOp::Lt, b.ref(lx), bad + 1));
  // lx % 4 != 3 || lx == bad, as 0 < (lx % 4 < 3) + (lx == bad).
  const ExprPtr active = bin(
      BinOp::Lt, iconst(0),
      bin(BinOp::Lt, bin(BinOp::Mod, b.ref(lx), iconst(4)), iconst(3)) +
          is_bad);
  const bool priv = acc == Access::LoadP || acc == Access::StoreP;
  const ExprPtr home = priv ? bin(BinOp::Mod, b.ref(lx), iconst(4)) : b.ref(lx);
  ExprPtr idx = home + is_bad * 1000;
  if (divergent) idx = idx + (iconst(1) - active) * 5000;
  // Computed before the `if`, so inactive items hold their index too.
  b.append(assign(ix, idx));
  idx = b.ref(ix);
  const ExprPtr mine = load_global(1, b.ref(lx), t1);
  if (acc == Access::LoadL) b.append(store_local(lm, home, mine));
  if (acc == Access::LoadP) b.append(store_private(pm, home, mine));
  StmtPtr access;
  switch (acc) {
    case Access::LoadL: access = assign(x, load_local(lm, idx, t1)); break;
    case Access::StoreL: access = store_local(lm, idx, mine); break;
    case Access::LoadP: access = assign(x, load_private(pm, idx, t1)); break;
    case Access::StoreP: access = store_private(pm, idx, mine); break;
    case Access::LoadG: access = assign(x, load_global(1, idx, t1)); break;
    case Access::StoreG: access = store_global(0, idx, mine); break;
  }
  b.append(divergent ? if_then(active, {access}) : access);
  b.append(store_global(0, b.ref(lx) + 64, b.ref(x)));
  return b.build();
}

ArgFactory access_args(std::int64_t bad) {
  return [bad](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(128 * 8);
    auto a = make_buffer(64 * 8);
    for (int j = 0; j < 64; ++j) a->as<double>()[j] = j + 1.5;
    bufs->push_back(out);
    bufs->push_back(a);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of(a),
                                 ArgValue::of_int(bad)};
  };
}

TEST(VmBounds, OneFaultingItemMatchesTheOracle) {
  const char* const names[] = {"LoadL",  "StoreL", "LoadP",
                               "StoreP", "LoadG",  "StoreG"};
  for (const Access acc : {Access::LoadL, Access::StoreL, Access::LoadP,
                           Access::StoreP, Access::LoadG, Access::StoreG}) {
    for (const bool divergent : {false, true}) {
      const Kernel k = access_kernel(acc, divergent);
      const std::string what =
          std::string(names[static_cast<int>(acc)]) +
          (divergent ? " under a divergent if" : " unmasked");
      // bad = -1 faults nowhere; 0, 33 and 63 fault first, in the middle
      // and last.
      for (const std::int64_t bad : {-1, 0, 33, 63}) {
        SCOPED_TRACE(what + ", bad item " + std::to_string(bad));
        expect_equivalent(k, {64, 1}, {64, 1}, access_args(bad));
        const RunResult byte =
            run_one(k, {64, 1}, {64, 1}, access_args(bad), Backend::Bytecode,
                    1);
        EXPECT_EQ(byte.threw, bad >= 0) << byte.message;
        if (acc != Access::StoreG || bad < 0) continue;
        // A failed global store keeps the stores of the active items
        // before the bad one, and only those.
        std::vector<double> out(128, 0.0), a(64);
        for (int j = 0; j < 64; ++j) a[j] = j + 1.5;
        for (int t = 0; t < bad; ++t)
          if (!divergent || t % 4 != 3) out[t] = a[t];
        std::vector<std::uint8_t> want((128 + 64) * 8);
        std::memcpy(want.data(), out.data(), 128 * 8);
        std::memcpy(want.data() + 128 * 8, a.data(), 64 * 8);
        EXPECT_EQ(run_tree(k, {64, 1}, {64, 1}, access_args(bad)).bytes,
                  want);
        EXPECT_EQ(byte.bytes, want);
        if (native_toolchain_available()) {
          EXPECT_EQ(run_one(k, {64, 1}, {64, 1}, access_args(bad),
                            Backend::Native, 1)
                        .bytes,
                    want);
        }
      }
    }
  }
}

// Floating variables take slabs as wide as their widest use. A double4
// variable assigned a double2 value reads zeros in lanes 2 and 3, at four
// lanes (v + v), through lane(v, 3) and when stored itself (four lanes
// written and counted); a variable assigned at four lanes and then at two
// reads zeros there after the second assignment.
TEST(VmLowering, NarrowAssignmentsReadZeroInTheUpperLanes) {
  for (const Scalar s : {Scalar::F64, Scalar::F32}) {
    const Type t2 = fp(s, 2), t4 = fp(s, 4);
    KernelBuilder b(s == Scalar::F64 ? "widths64" : "widths32", s);
    b.add_arg("out", ArgKind::GlobalPtr, s);
    b.add_arg("a", ArgKind::GlobalConstPtr, s);
    const int lx = b.decl_var("lx", i32());
    const int v = b.decl_var("v", t4);
    const int u = b.decl_var("u", t4);
    const auto twice = [&](int var) {
      return bin(BinOp::FAdd, b.ref(var), b.ref(var));
    };
    b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
    b.append(assign(v, load_global(1, b.ref(lx) * 4, t2)));
    b.append(store_global(0, b.ref(lx) * 4, twice(v)));
    b.append(store_global(0, b.ref(lx) + 32, lane(b.ref(v), 3)));
    b.append(store_global(0, b.ref(lx) + 40, lane(b.ref(v), 1)));
    // v itself stores its declared four lanes, the upper two zero.
    b.append(store_global(0, b.ref(lx) * 4 + 120, b.ref(v)));
    b.append(assign(u, load_global(1, b.ref(lx) * 4, t4)));
    b.append(store_global(0, b.ref(lx) * 4 + 48, twice(u)));
    b.append(assign(u, bin(BinOp::FAdd, load_global(1, b.ref(lx) * 4, t2),
                           load_global(1, b.ref(lx) * 4 + 2, t2))));
    b.append(store_global(0, b.ref(lx) * 4 + 80, twice(u)));
    b.append(store_global(0, b.ref(lx) + 112, lane(b.ref(u), 3)));
    const std::size_t es = s == Scalar::F64 ? 8 : 4;
    expect_equivalent(b.build(), {8, 1}, {8, 1},
                      [s, es](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(152 * es);
                        auto a = make_buffer(32 * es);
                        for (int j = 0; j < 32; ++j) {
                          if (s == Scalar::F64) {
                            a->as<double>()[j] = 0.75 * j + 1.0;
                          } else {
                            a->as<float>()[j] = 0.75f * j + 1.0f;
                          }
                        }
                        bufs->push_back(out);
                        bufs->push_back(a);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of(a)};
                      });
  }
}

// ---- vector loop runs ------------------------------------------------------

// The native JIT runs a barrier-free uniform loop whose body is one run W
// work-items per vector instruction, when the kernel fixes a work-group
// size whose x extent is a multiple of W. These kernels check that form
// against lockstep: lane strides, f32 rounding, and which fault a launch
// reports when items of different blocks, lanes and instructions fail.

/// True when the native emission at width `w` holds a vector loop run.
bool has_vector_loop(const Kernel& k, int w) {
  return emit_native_source(k, *compile(k), w).find("// vector loop run:") !=
         std::string::npos;
}

/// A barrier-free uniform loop over k reading global memory at lane
/// strides 0 (ly), 1 (lx), 3 (3 * lx) and one unknown stride ((lx * lx) %
/// 7), and local memory at strides 0 and 1, accumulating into a variable
/// and two private slots. Launch it on a {2 * lsx, 2 * lsy} NDRange.
Kernel lanes_kernel(Scalar s, std::int64_t lsx, std::int64_t lsy,
                    bool reqd = true) {
  const Type t1 = fp(s, 1);
  KernelBuilder b((s == Scalar::F64 ? "lanes64_" : "lanes32_") +
                      std::to_string(lsx) + "x" + std::to_string(lsy),
                  s);
  b.add_arg("out", ArgKind::GlobalPtr, s);
  b.add_arg("a", ArgKind::GlobalConstPtr, s);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  if (reqd) b.set_reqd_local(lsx, lsy);
  const int lx = b.decl_var("lx", i32());
  const int ly = b.decl_var("ly", i32());
  const int g = b.decl_var("g", i32());
  const int q = b.decl_var("q", i32());
  const int k = b.decl_var("k", i32());
  const int x = b.decl_var("x", t1);
  const int lm = b.decl_array("Lm", s, static_cast<int>(lsx * lsy + 8),
                              AddrSpace::Local);
  const int pa = b.decl_array("P", s, 2, AddrSpace::Private);
  const auto at = [&](ExprPtr idx) {
    return load_global(1, b.ref(g) + std::move(idx) + b.ref(k), t1);
  };
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  b.append(assign(ly, builtin(BuiltinFn::LocalId, 1)));
  b.append(assign(g, builtin(BuiltinFn::GroupId, 0) +
                         builtin(BuiltinFn::GroupId, 1) * 2));
  b.append(assign(q, bin(BinOp::Mod, b.ref(lx) * b.ref(lx), iconst(7))));
  b.append(store_local(lm, b.ref(ly) * lsx + b.ref(lx),
                       load_global(1, b.ref(ly) * lsx + b.ref(lx), t1)));
  b.append(barrier());
  b.append(for_loop(
      k, iconst(0), arg_ref(2, i32()), iconst(1),
      {assign(x, bin(BinOp::FAdd, b.ref(x),
                     bin(BinOp::FMul, at(b.ref(ly)), at(b.ref(lx))))),
       store_private(pa, iconst(0),
                     mad(at(b.ref(lx) * 3),
                         load_local(lm, b.ref(ly) + b.ref(k), t1),
                         load_private(pa, iconst(0), t1))),
       store_private(pa, iconst(1),
                     mad(at(b.ref(q)), load_local(lm, b.ref(lx) + b.ref(k), t1),
                         load_private(pa, iconst(1), t1)))}));
  b.append(store_global(
      0, builtin(BuiltinFn::GlobalId, 1) * (2 * lsx) +
             builtin(BuiltinFn::GlobalId, 0),
      bin(BinOp::FAdd, b.ref(x),
          bin(BinOp::FAdd, load_private(pa, iconst(0), t1),
              load_private(pa, iconst(1), t1)))));
  return b.build();
}

/// Arguments of lanes_kernel: `a` holds 0.1 * j + 0.7 (rounded to float
/// for both precisions, so the f64 and f32 kernels read equal inputs).
ArgFactory lanes_args(Scalar s, std::int64_t items, int trip) {
  const bool f64 = s == Scalar::F64;
  const std::size_t es = f64 ? 8 : 4;
  return [=](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(static_cast<std::size_t>(items) * es);
    auto a = make_buffer(64 * es);
    for (int j = 0; j < 64; ++j) {
      const float v = static_cast<float>(0.1 * j + 0.7);
      if (f64) {
        a->as<double>()[j] = v;
      } else {
        a->as<float>()[j] = v;
      }
    }
    bufs->push_back(out);
    bufs->push_back(a);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of(a),
                                 ArgValue::of_int(trip)};
  };
}

TEST(VmLoopRuns, LanesMatchLockstep) {
  for (const auto& [lsx, lsy] : {std::pair<std::int64_t, std::int64_t>{16, 2},
                                 {8, 4}}) {
    std::vector<double> f64_out;
    for (const Scalar s : {Scalar::F64, Scalar::F32}) {
      const Kernel k = lanes_kernel(s, lsx, lsy);
      EXPECT_TRUE(has_vector_loop(k, 8)) << k.name;
      EXPECT_TRUE(has_vector_loop(k, native_simd_width())) << k.name;
      const auto make = lanes_args(s, 4 * lsx * lsy, 5);
      expect_equivalent(k, {2 * lsx, 2 * lsy}, {lsx, lsy}, make);
      expect_equivalent(k, {2 * lsx, 2 * lsy}, {lsx, lsy},
                        lanes_args(s, 4 * lsx * lsy, 0));  // zero trips
      // f32 rounding must matter: the f32 result is not the f64 result
      // rounded once at the end.
      const RunResult r =
          run_one(k, {2 * lsx, 2 * lsy}, {lsx, lsy}, make, Backend::Bytecode, 1);
      ASSERT_FALSE(r.threw) << r.message;
      std::size_t rounded_apart = 0;
      for (std::size_t j = 0; j < r.bytes.size() / (s == Scalar::F64 ? 8 : 4);
           ++j) {
        if (s == Scalar::F64) {
          double v = 0;
          std::memcpy(&v, r.bytes.data() + 8 * j, 8);
          f64_out.push_back(v);
        } else {
          float v = 0;
          std::memcpy(&v, r.bytes.data() + 4 * j, 4);
          rounded_apart += v != static_cast<float>(f64_out[j]);
        }
      }
      if (s == Scalar::F32) {
        EXPECT_GT(rounded_apart, 0u) << k.name;
      }
    }
  }
}

/// `lx == v` as a 0/1 integer.
ExprPtr lane_is(ExprPtr lx, std::int64_t v) {
  return bin(BinOp::And, bin(BinOp::Lt, iconst(v - 1), lx),
             bin(BinOp::Lt, lx, iconst(v + 1)));
}

/// A 16-item group (reqd 16x1) running `for (k = 0; k < 2; ++k) x += a[i]`
/// for each index i = idx(lx, k) in turn, over a 40-element buffer, so the
/// indices decide which items fault at which load and iteration.
void expect_loop_fault(
    const char* name,
    const std::vector<std::function<ExprPtr(ExprPtr, ExprPtr)>>& idx,
    const std::string& want) {
  const Type t1 = fp(Scalar::F64, 1);
  KernelBuilder b(name, Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
  b.set_reqd_local(16, 1);
  const int lx = b.decl_var("lx", i32());
  const int k = b.decl_var("k", i32());
  const int x = b.decl_var("x", t1);
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  std::vector<StmtPtr> body;
  for (const auto& f : idx)
    body.push_back(assign(x, bin(BinOp::FAdd, b.ref(x),
                                 load_global(1, f(b.ref(lx), b.ref(k)), t1))));
  b.append(for_loop(k, iconst(0), iconst(2), iconst(1), std::move(body)));
  b.append(store_global(0, b.ref(lx), b.ref(x)));
  const Kernel kern = b.build();
  EXPECT_TRUE(has_vector_loop(kern, 8)) << name;
  const auto make = [](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(16 * 8);
    auto a = make_buffer(40 * 8);
    bufs->push_back(out);
    bufs->push_back(a);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of(a)};
  };
  EXPECT_EQ(run_tree(kern, {16, 1}, {16, 1}, make).message, want) << name;
  expect_equivalent(kern, {16, 1}, {16, 1}, make);
}

// Blocks are 8 items wide with AVX-512 (4 with AVX2, 2 otherwise); the
// items named below sit in different blocks, or in one, at every width.
TEST(VmLoopRuns, FaultOrderAcrossIterationsBlocksAndLanes) {
  const auto msg = [](int idx) {
    return "global load out of range: index " + std::to_string(idx) +
           " + 1 lanes, buffer 40 elements";
  };
  // Item 9 (second block) faults at iteration 0, item 2 (first block) at
  // iteration 1: lockstep reports item 9. Keeping the first block's
  // fault would report item 2's index 60.
  expect_loop_fault("fault_iteration",
                    {[](ExprPtr lx, ExprPtr k) {
                      return lane_is(lx, 9) * 50 +
                             lane_is(lx, 2) * std::move(k) * 60;
                    }},
                    msg(50));
  // Index 7 * lx (lane stride 7): items 6 and 7 of one block fail the same
  // load at iteration 0; lockstep reports item 6, not item 7's 49.
  expect_loop_fault("fault_lane",
                    {[](ExprPtr lx, ExprPtr) { return std::move(lx) * 7; }},
                    msg(42));
  // Item 4 fails the second load, item 6 the first, both at iteration 0:
  // lockstep reports the first load's item 6.
  expect_loop_fault(
      "fault_pc",
      {[](ExprPtr lx, ExprPtr) { return lane_is(std::move(lx), 6) * 50; },
       [](ExprPtr lx, ExprPtr) { return lane_is(std::move(lx), 4) * 55; }},
      msg(50));
}

TEST(VmLoopRuns, IneligibleLoopsKeepTheScalarForm) {
  // A work-group 12 wide (not a multiple of 8), and one of no fixed size.
  for (const bool reqd : {true, false}) {
    const std::int64_t lsx = reqd ? 12 : 16, lsy = reqd ? 1 : 2;
    const Kernel k = lanes_kernel(Scalar::F64, lsx, lsy, reqd);
    EXPECT_FALSE(has_vector_loop(k, 8)) << k.name;
    expect_equivalent(k, {2 * lsx, 2 * lsy}, {lsx, lsy},
                      lanes_args(Scalar::F64, 4 * lsx * lsy, 3));
  }
  // A loop body that stores to local memory.
  const Type t1 = fp(Scalar::F64, 1);
  KernelBuilder b("loop_store_local", Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  b.set_reqd_local(16, 1);
  const int lx = b.decl_var("lx", i32());
  const int k = b.decl_var("k", i32());
  const int lm = b.decl_array("Lm", Scalar::F64, 16, AddrSpace::Local);
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  b.append(for_loop(k, iconst(0), arg_ref(2, i32()), iconst(1),
                    {store_local(lm, b.ref(lx),
                                 load_global(1, b.ref(lx) + b.ref(k), t1))}));
  b.append(barrier());
  b.append(store_global(0, builtin(BuiltinFn::GlobalId, 0),
                        load_local(lm, b.ref(lx), t1)));
  const Kernel st = b.build();
  EXPECT_FALSE(has_vector_loop(st, 8));
  expect_equivalent(st, {32, 1}, {16, 1}, lanes_args(Scalar::F64, 32, 4));
}

// ---- backend resolution ----------------------------------------------------

struct EnvGuard {
  ~EnvGuard() {
    unsetenv("GEMMTUNE_INTERP");
    set_backend_override(Backend::Auto);
  }
};

TEST(VmBackend, ResolutionPrecedence) {
  EnvGuard guard;
  unsetenv("GEMMTUNE_INTERP");
  set_backend_override(Backend::Auto);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Bytecode);
  EXPECT_EQ(resolve_backend(Backend::Native), Backend::Native);

  setenv("GEMMTUNE_INTERP", "bytecode", 1);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Bytecode);
  setenv("GEMMTUNE_INTERP", "native", 1);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Native);

  // The process-wide override (the CLI flag) beats the environment...
  setenv("GEMMTUNE_INTERP", "bytecode", 1);
  set_backend_override(Backend::Native);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Native);
  // ...and an explicit request beats both.
  EXPECT_EQ(resolve_backend(Backend::Bytecode), Backend::Bytecode);

  // Unknown values are rejected with the allowed set named. "tree" is one
  // of them: the tree walker is a test-only oracle, not an execution tier.
  set_backend_override(Backend::Auto);
  for (const std::string bad : {"nonsense", "tree"}) {
    setenv("GEMMTUNE_INTERP", bad.c_str(), 1);
    try {
      resolve_backend(Backend::Auto);
      FAIL() << "expected Error for " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "GEMMTUNE_INTERP: unknown value '" +
                                           bad + "' (use bytecode, native)");
    }
  }
  // An explicit backend never consults the (invalid) environment.
  EXPECT_EQ(resolve_backend(Backend::Native), Backend::Native);
}

}  // namespace
}  // namespace gemmtune::ir
