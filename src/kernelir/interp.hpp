// Kernel execution entry point: ir::launch runs an IR kernel over a
// two-dimensional NDRange against SimCL buffers, with OpenCL memory
// semantics:
//  * private variables / arrays per work-item,
//  * local arrays per work-group,
//  * global memory = SimCL buffers.
//
// Two execution tiers run the kernel: the bytecode VM (vm.hpp, the
// default) and the native JIT (native.hpp). Both give a work-group
// lockstep semantics, one operation across all work-items before the
// next. This is a valid execution of any kernel whose loop bounds are
// work-group uniform and whose barriers are in uniform control flow —
// exactly the shape of the paper's generated GEMM kernels. The VM executes
// it literally; the native JIT executes straight-line runs item-major and
// barrier-free, store-free uniform loops W work-items per vector
// instruction, under rules that make no difference observable
// (native_emit.cpp). Both
// tiers *verify* loop-bound uniformity at run time and reject non-uniform
// loops, so the restriction is checked, not assumed. Work-groups are
// independent (OpenCL barriers are intra-group only), so a launch
// partitions the group space across a thread pool.
//
// The host flow is the paper's: build once, enqueue many times. prepare()
// resolves a kernel's tier once and returns a shared handle (the launch
// signature plus the bytecode program, the native object or both); launch()
// on a handle validates the NDRange and arguments and runs, with no
// serialization, lookup or lock. The handle is the only cache of a built
// kernel: whoever relaunches one keeps its handle. launch() on a Kernel is
// the same body behind a fresh prepare(), so there is one execution path.
//
// A native build takes the host compiler up to seconds, so a handle can
// also tier up: prepare_tiered() lowers the kernel at once, and the
// handle's launches run on the VM while a background worker builds its
// native object (native.hpp). The object fills the handle's native slot
// once, and every launch that starts after that runs natively. Both tiers
// produce the same bytes and counters, so only latency moves.
//
// Single-precision kernels round every arithmetic result to float, so both
// tiers bit-match what an SP device would compute (modulo fma contraction,
// which mad() permits anyway).
//
// Launches also count dynamic work: flops, bytes moved per address space,
// barrier executions. These counters anchor the analytic performance model
// (tests cross-check the model's static formulas against them). The tests
// hold both tiers to a tree-walking reference interpreter that is compiled
// only into the test binaries (tests/tree_oracle.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernelir/kernel.hpp"
#include "simcl/runtime.hpp"

namespace gemmtune::ir {

/// One bound kernel argument: a buffer for pointer args, or a scalar.
struct ArgValue {
  simcl::BufferPtr buffer;  ///< set for GlobalPtr / GlobalConstPtr args
  std::int64_t i = 0;       ///< set for Int args
  double f = 0;             ///< set for Float args

  static ArgValue of(simcl::BufferPtr b) { return {std::move(b), 0, 0}; }
  static ArgValue of_int(std::int64_t v) { return {nullptr, v, 0}; }
  static ArgValue of_float(double v) { return {nullptr, 0, v}; }
};

/// Dynamic execution counters accumulated over a launch.
struct Counters {
  std::uint64_t flops = 0;              ///< floating ops (mad = 2)
  std::uint64_t mads = 0;               ///< mad instructions executed
  std::uint64_t global_load_bytes = 0;
  std::uint64_t global_store_bytes = 0;
  std::uint64_t local_load_bytes = 0;
  std::uint64_t local_store_bytes = 0;
  std::uint64_t barriers = 0;           ///< per work-group barrier executions
  std::uint64_t work_groups = 0;
  std::uint64_t work_items = 0;

  bool operator==(const Counters&) const = default;
};

/// Execution tier. `Bytecode` compiles the kernel to a flat register
/// program (compile.hpp) and runs it on the VM (vm.hpp); `Native` JIT-compiles the bytecode to a
/// specialized C++ shared object via the host toolchain (native.hpp) and
/// falls back to Bytecode — with an interp.native_fallback counter and a
/// one-line warning naming the cause — when no toolchain or cache object
/// is usable. Both produce bit-identical buffers and counters at any
/// thread count. `Auto` resolves, in priority order: the process-wide
/// override (the CLI --interp flag), the GEMMTUNE_INTERP environment
/// variable ("bytecode" / "native"), then Bytecode.
enum class Backend { Auto, Bytecode, Native };

/// Sets the process-wide backend override (Auto clears it).
void set_backend_override(Backend b);

/// Resolves `requested` against the override / environment / default.
Backend resolve_backend(Backend requested);

/// Backend name as the CLI / GEMMTUNE_INTERP spell it ("auto" for Auto);
/// reports record the resolved name in their meta block.
const char* to_string(Backend b);

/// What a launch is validated against: the kernel's arguments (name, kind,
/// element type) and its required work-group size (0 = none).
struct LaunchSignature {
  std::vector<ArgInfo> args;
  std::array<std::int64_t, 2> reqd_local{0, 0};

  static LaunchSignature of(const Kernel& kernel);
};

struct CompiledKernel;  // compile.hpp: a bytecode program
class NativeKernel;     // native.hpp: a dlopen'd JIT object
struct NativeBuild;     // native.cpp: a queued or running background build

/// A kernel compiled once for many launches. It keeps no IR body: the
/// signature is all a launch needs besides the program.
struct PreparedKernel {
  LaunchSignature signature;
  /// The lowered program; null only when the native object was ready at
  /// prepare time.
  std::shared_ptr<const CompiledKernel> bytecode;
  /// The background build that fills the native slot (prepare_tiered()).
  std::shared_ptr<NativeBuild> build;

  /// The native object, or null while launches run on bytecode. The slot
  /// goes from empty to an object at most once, and the handle keeps the
  /// object loaded, so a launch reads it once (one acquire load) and runs
  /// wholly on one tier.
  const NativeKernel* native() const {
    return native_.load(std::memory_order_acquire);
  }
  /// Native was requested but is unavailable (at prepare time, or its
  /// background build failed); every launch of this handle adds
  /// interp.native_fallback, as a launch of the kernel itself would.
  bool native_fallback() const { return fallback_.load(); }

  /// Fills the native slot and publishes it to launches; once per handle.
  void fill_native(std::shared_ptr<const NativeKernel> nk) {
    native_owner_ = std::move(nk);
    native_.store(native_owner_.get(), std::memory_order_release);
  }
  void fall_back() { fallback_.store(true); }

 private:
  std::shared_ptr<const NativeKernel> native_owner_;
  std::atomic<const NativeKernel*> native_{nullptr};
  std::atomic<bool> fallback_{false};
};

/// Shared, immutable kernel handle (see prepare()).
using KernelHandle = std::shared_ptr<const PreparedKernel>;

/// Resolves `backend` and compiles `kernel` for that tier, on the calling
/// thread: lowers it (compile.hpp), or for Native loads its object from
/// the on-disk JIT cache or builds it (native.hpp). Every call does that
/// work again; the returned handle is what callers keep. A Native request
/// whose JIT is unavailable falls back to bytecode: the handle records it
/// and each distinct cause is warned once per process. Thread-safe.
KernelHandle prepare(const Kernel& kernel, Backend backend = Backend::Auto);

/// prepare(kernel, Backend::Native) without waiting for the compiler. An
/// object in the on-disk cache loads at once, and a missing toolchain or a
/// sticky failure falls back at once, as there. Otherwise the kernel is
/// lowered now and its build is queued on the build worker (native.hpp):
/// launches run on bytecode until the object fills the handle's native
/// slot. Whoever keeps the handle calls settle_native_builds() before
/// letting it go, or the build may finish after it. Thread-safe.
KernelHandle prepare_tiered(const Kernel& kernel);

/// Runs a prepared kernel: validates the launch against its signature
/// (same checks and messages as launch() on the kernel) and executes on
/// the handle's tier. Does no serialization, cache lookup or locking, so
/// concurrent launches of one handle only contend for the thread pool.
/// Buffers, counters and errors equal launch() of the same kernel;
/// `threads` means what it means there.
Counters launch(const PreparedKernel& kernel,
                std::array<std::int64_t, 2> global,
                std::array<std::int64_t, 2> local,
                const std::vector<ArgValue>& args, int threads = 0);

/// Executes `kernel` over `global` work-items in groups of `local`.
/// `global[d]` must be a positive multiple of `local[d]`; when the kernel
/// declares a required work-group size it must match `local`. Throws
/// gemmtune::Error on malformed kernels, out-of-range accesses, or
/// non-uniform loop bounds. Returns the dynamic counters.
///
/// `threads` > 0 forces that many interpreter threads; 0 uses the
/// process-wide configuration (--threads / GEMMTUNE_THREADS / hardware).
/// Work-groups partition across threads, each with its own execution
/// arena (work-item registers, private/local arrays, counters); only the
/// argument buffers are shared, and distinct work-groups of a well-formed
/// kernel write disjoint buffer elements (overlapping group writes race on
/// a real device too). Buffers and counters are bit-identical to the
/// serial run for every thread count and for both backends. Concurrent
/// launch() calls from different threads are safe as long as their
/// writable buffers are disjoint.
///
/// On malformed launches both backends throw gemmtune::Error with the same
/// message text (modulo the source-location prefix); when several
/// work-items fault inside one statement the backends may report a
/// different faulting instance, and buffer contents after a throw are
/// unspecified.
///
/// The launch is validated first, so a malformed one throws before any
/// JIT work; then the kernel is prepare()d (lowered, or JIT-built or
/// loaded from the on-disk cache) and run exactly as the handle overload
/// runs it. Callers that launch one kernel repeatedly keep a handle.
Counters launch(const Kernel& kernel, std::array<std::int64_t, 2> global,
                std::array<std::int64_t, 2> local,
                const std::vector<ArgValue>& args, int threads = 0);

/// launch() with an explicit backend choice (tests and benchmarks).
Counters launch_with_backend(const Kernel& kernel,
                             std::array<std::int64_t, 2> global,
                             std::array<std::int64_t, 2> local,
                             const std::vector<ArgValue>& args, int threads,
                             Backend backend);

}  // namespace gemmtune::ir
