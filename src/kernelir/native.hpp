// Native-compiled kernel backend: JIT to specialized C++ via the host
// toolchain, loaded with dlopen.
//
// emit_native_source() translates one compiled bytecode program into a
// self-contained C++ translation unit specialized for that kernel: every
// instruction's operand registers, lane counts, array offsets and
// constants are baked in as literals, and when the kernel declares
// reqd_work_group_size the work-group size itself is a compile-time
// constant. The semantics stay the VM's lockstep ones, but straight-line
// code executes item-major: each run of unmasked, non-control
// instructions is one `for (t ...)` loop over the work-items that keeps
// the registers and private-array slots it touches in C++ locals. A
// barrier-free uniform loop without stores (the GEMM k-loop) runs as a
// vector loop run instead: W work-items per GCC vector instruction, one
// lane per item, for the whole loop. Rules make every order
// indistinguishable from lockstep (native_emit.cpp). Bounds checks the
// bytecode pass already proved (constant private/local addressing lowered
// to FmaPP / SplatLaneP / kImmAddr forms) are gone entirely; the remaining
// runtime checks raise the exact message text, for the same faulting item,
// as the VM.
//
// get_or_compile_native() drives the pipeline: emit the source, invoke the
// host C++ compiler (GEMMTUNE_JIT_CXX, else the compiler this library was
// built with, else c++/g++/clang++ from PATH) and dlopen the resulting
// shared object. A kernel handle (interp.hpp) keeps the result; nothing
// else in the process does. Shared objects are cached on disk, hash-named
// under --jit-cache-dir / GEMMTUNE_JIT_CACHE, so a warm start dlopens the
// cached .so without ever running the compiler. Each build compiles in
// its own temporary directory and renames its object into the cache, so
// concurrent builds of one kernel, by threads or by processes, race
// safely. Every failure path (no toolchain, unwritable cache dir, compile
// error) is soft: the caller falls back to the bytecode VM.
//
// A tiered handle (prepare_tiered(), interp.hpp) takes the compile off its
// caller's thread: the disk cache, the toolchain probe and the sticky
// failures are checked at once, and a build is queued on one process-wide
// build worker, which runs builds one at a time in the order they were
// queued and fills each handle's native slot as its object loads.
// settle_native_builds() drops an owner's queued builds and waits for its
// running one, wait_native_builds() waits for all of them, and the worker
// finishes its running build and drops the rest when the process exits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "kernelir/compile.hpp"
#include "kernelir/vm.hpp"

namespace gemmtune::ir {

/// Exported entry point of a generated shared object. Flat C ABI — no
/// shared struct layouts between the host build and the JIT build:
///   (group_begin, group_end, global0, global1, local0, local1,
///    arg_f64[], arg_f32[], arg_elems[], arg_i[], arg_f[],
///    counters[7] = {flops, mads, global_load_bytes, global_store_bytes,
///                   local_load_bytes, local_store_bytes, barriers},
///    err, err_cap)
/// Returns 0 on success; nonzero with the error message (no source-location
/// prefix) written into `err`.
using NativeEntryFn = long long (*)(
    long long, long long, long long, long long, long long, long long,
    double* const*, float* const*, const long long*, const long long*,
    const double*, unsigned long long*, char*, long long);

/// Symbol name of the entry point; versioned so a stale cached .so from an
/// older ABI fails dlsym instead of being called with the wrong contract.
inline constexpr const char* kNativeEntrySymbol = "gemmtune_native_entry_v1";

/// A dlopen'd compiled kernel; closes the handle when the last reference
/// (a kernel handle or an in-flight launch) drops.
class NativeKernel {
 public:
  NativeKernel(void* handle, NativeEntryFn fn) : handle_(handle), fn_(fn) {}
  ~NativeKernel();
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  NativeEntryFn fn() const { return fn_; }

 private:
  void* handle_ = nullptr;
  NativeEntryFn fn_ = nullptr;
};

using NativeKernelPtr = std::shared_ptr<const NativeKernel>;

/// Vector width (in doubles) of the host the native JIT compiles for: 8
/// with AVX-512F, 4 with AVX2, 2 baseline. It selects the -m flags of the
/// JIT compile and is folded into the on-disk .so hash, so a cache
/// directory shared by hosts of different ISAs never serves a foreign
/// object.
int native_simd_width();

/// Emits the specialized C++ translation unit for one compiled kernel,
/// for a host of `simd_width` doubles (2, 4, 8 or 16): the width W of its
/// vector loop runs. f32 rounding is a double -> float -> double
/// conversion of each lane, so buffers stay bit-identical to the VM; at
/// W = 8 and 4 a GCC build spells it, the float loads and (at W = 8) the
/// strided loads as the host's conversion and gather instructions. Pure
/// and deterministic (the source depends only on the program, the
/// kernel's reqd_work_group_size / argument shapes, and the width). Throws
/// gemmtune::Error on a program it cannot translate; the JIT then falls
/// back to the VM.
std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog, int simd_width);

/// Sets the on-disk .so cache directory (the --jit-cache-dir flag). An
/// empty string restores the default: GEMMTUNE_JIT_CACHE if set, else no
/// cache, and each build's object is unlinked from TMPDIR once loaded.
void set_jit_cache_dir(const std::string& dir);

/// True when a host C++ compiler answers the probe. The probe runs once
/// per process and is cached; every probe subprocess actually spawned is
/// counted on interp.toolchain_probe, so repeated cold compiles add
/// nothing. reset_native_probe() re-reads the environment and forgets the
/// sticky failures (tests).
bool native_toolchain_available();
void reset_native_probe();

/// Returns the native-compiled kernel for `kernel`: loaded from the on-disk
/// cache, else built, on the calling thread. Each call loads or builds
/// again, so callers that relaunch keep the result in a kernel handle
/// (prepare(), interp.hpp). Returns nullptr when the native backend is
/// unavailable for this kernel — no toolchain, compile or dlopen failure —
/// with the cause in `*why`. A failure is sticky: later calls for the same
/// kernel fail at once, without the compiler, until reset_native_probe().
/// `simd_width` > 0 builds for that emit width and its JIT flags instead
/// of native_simd_width() (tests run every width the CPU can); the width
/// keys the .so hash either way. Thread-safe.
NativeKernelPtr get_or_compile_native(const Kernel& kernel,
                                      std::string* why = nullptr,
                                      int simd_width = 0);

/// The Native half of prepare() and prepare_tiered() (interp.hpp): a
/// handle with the object from the on-disk cache; else with the lowered
/// program and the object built now, or with `in_background` queued on
/// the process-wide build worker, which fills the handle's native slot
/// (interp.native_tierup) or, when the build fails, warns once per cause
/// and marks the handle fallen back. A build whose handle is gone by its
/// turn is skipped without touching the disk.
KernelHandle prepare_native(const Kernel& kernel, bool in_background);

/// Drops every queued build of `handles` (interp.native_dropped), then
/// waits for the running build if it is one of theirs, so their owner can
/// go without leaving a build behind. The running build finishes and
/// fills its slot; it is never killed. An owner of many handles settles
/// them in one call: settled one group at a time, each group would wait
/// for a build the worker started while the previous group waited.
void settle_native_builds(std::span<const KernelHandle> handles);

/// Waits until every build of `handles` has run (in queue order, behind
/// any build queued before it), so each handle is native or fallen back.
/// Returns false at once when none of them was built in the background,
/// true otherwise: their launches until now may have run on bytecode.
bool wait_native_builds(std::span<const KernelHandle> handles);

/// Prints a one-line warning to stderr naming the fallback cause; each
/// distinct cause is printed once per process.
void warn_native_fallback(const std::string& why);

/// Runs work-groups [begin, end) of the plan through a native kernel and
/// returns the counters. Throws gemmtune::Error (same message text as the
/// other backends) when the kernel reports a runtime fault.
Counters native_run_range(const NativeKernel& nk, const LaunchPlan& plan,
                          std::int64_t begin, std::int64_t end);

}  // namespace gemmtune::ir
