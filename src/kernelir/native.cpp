// JIT driver for the native backend: host-toolchain compilation, on-disk
// shared-object cache, dlopen, the background build worker, and the launch
// bridge.
//
// Pipeline, run once per kernel handle:
//  1. (find_native) hash the (emitter version + flags + serialized kernel
//     + width) bytes; a hash whose build failed before in this process
//     fails again at once, so the compiler runs at most once per failing
//     kernel.
//  2. if a .so with that hash already sits in the cache directory, dlopen
//     it directly — a warm start never invokes the compiler.
//  3. (build_native) otherwise emit the specialized source from the
//     lowered program, and run the host C++ compiler (-O1 -fno-ivopts
//     -fPIC -shared -ffp-contract=off; contraction off keeps the generated
//     arithmetic bit-identical to the interpreter's) in a private mkdtemp
//     directory next to where the object lands. Two builds of one kernel,
//     in two threads or two processes, never share a file: each renames
//     its finished object into the cache directory (rename is atomic and
//     either winner's object is valid), dlopens it, and removes its build
//     directory.
// Every failure is soft: the caller falls back to the bytecode VM.
//
// Step 3 of a tiered handle runs on the build worker: one thread, started
// with the first queued build, that runs builds in queue order. A build is
// running from the moment the worker is free to take it, so an owner that
// settles right after queueing still waits for it. The handle's bytecode
// carries its launches meanwhile; serve's executors already use every
// core, so one compile at a time is what the host can spare.
#include "kernelir/native.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/trace.hpp"

#ifndef GEMMTUNE_HOST_CXX
#define GEMMTUNE_HOST_CXX ""
#endif

namespace gemmtune::ir {

namespace {

/// Bumping this invalidates every cached .so: the hash covers it and the
/// flags, not the emitted text. v6: each floating variable's slab is as
/// wide as its widest use, not 16 lanes.
constexpr const char* kEmitterVersion = "gemmtune-native-emit-v6";
/// The emitted code is already vectorized where it pays: vector loop runs
/// spell their W-lane operations out in GCC vector types, and straight-line
/// runs are scalar per work-item. -O1 keeps both as fast as -O3 did while
/// compiling far quicker; IVOPTs alone takes about half of a large kernel's
/// -O1 compile and buys nothing on this code. SLP stays off: GCC's SLP
/// pass reorganizes scalar (double)(float) rounding chains at a one-ULP
/// cost on f32 kernels. Contraction is off for the same reason: the
/// contract is byte-identical buffers against the VM.
constexpr const char* kJitFlags =
    "-std=c++17 -O1 -fno-ivopts -fPIC -shared -ffp-contract=off "
    "-fno-tree-slp-vectorize";

/// Compiler flags for one native compile at the given emit width. The
/// arch flag must cover the vector width the emitter baked in, and both
/// feed the .so hash so changing either never reuses a stale object.
std::string jit_flags_for(int simd_w) {
  std::string flags = kJitFlags;
#if defined(__x86_64__)
  if (simd_w >= 8) {
    flags += " -mavx512f";
  } else if (simd_w >= 4) {
    flags += " -mavx2";
  }
#endif
  return flags;
}

std::mutex g_native_mutex;
std::string g_cache_dir_override;   // --jit-cache-dir
bool g_probe_done = false;
std::string g_probe_cxx;            // empty = no usable compiler
std::set<std::uint64_t> g_failed;   // jit_hash() of every failed build

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

bool dir_writable(const std::string& dir) {
  struct stat st {};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  return ::access(dir.c_str(), W_OK | X_OK) == 0;
}

/// Quotes a path for the shell command line.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

bool probe_cxx(const std::string& cxx) {
  if (cxx.empty()) return false;
  if (trace::enabled()) trace::counter_add("interp.toolchain_probe", 1);
  const std::string cmd = shq(cxx) + " --version >/dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

/// Resolves the host compiler once. GEMMTUNE_JIT_CXX, when set, is used
/// exclusively (even if unusable — that's how tests simulate a machine
/// without a toolchain); otherwise the compiler this library was built
/// with, then common names from PATH. Returns a copy: a build queued now
/// keeps the compiler of now.
std::string toolchain_cxx() {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  if (!g_probe_done) {
    g_probe_done = true;
    g_probe_cxx.clear();
    if (const char* env = std::getenv("GEMMTUNE_JIT_CXX")) {
      if (probe_cxx(env)) g_probe_cxx = env;
    } else {
      for (const char* cand :
           {GEMMTUNE_HOST_CXX, "c++", "g++", "clang++"}) {
        if (probe_cxx(cand)) {
          g_probe_cxx = cand;
          break;
        }
      }
    }
  }
  return g_probe_cxx;
}

/// FNV-1a 64 over the emitter version, the JIT flags, the serialized
/// kernel and its emit width: the name of its .so and its failure key.
std::uint64_t jit_hash(const std::string& flags, const Kernel& kernel,
                       int simd_w) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(kEmitterVersion);
  mix(flags);
  mix(serialize_kernel(kernel));
  mix(strf("#simd=w%d", simd_w));
  return h;
}

/// Where builds go: next to where their objects land, in `pdir`, else in
/// TMPDIR (or /tmp).
std::string build_base_for(const std::string& pdir) {
  if (!pdir.empty()) return pdir;
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
}

/// A fresh build directory under `base`; "" when none can be made.
std::string make_build_dir(const std::string& base) {
  std::string tmpl = base + "/gemmtune-jit-XXXXXX";
  return ::mkdtemp(tmpl.data()) != nullptr ? tmpl : "";
}

/// The persistent cache directory, or "" when none is usable. Creates the
/// configured directory if absent (one level, like TunedDatabase).
std::string persistent_dir() {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(g_native_mutex);
    dir = g_cache_dir_override;
  }
  if (dir.empty()) {
    if (const char* env = std::getenv("GEMMTUNE_JIT_CACHE")) dir = env;
  }
  if (dir.empty()) return "";
  if (!file_exists(dir)) ::mkdir(dir.c_str(), 0755);
  return dir_writable(dir) ? dir : "";
}

struct DlHandle {
  void* handle = nullptr;
  NativeEntryFn fn = nullptr;
  std::string error;
};

DlHandle dl_load(const std::string& so_path) {
  DlHandle out;
  out.handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (out.handle == nullptr) {
    const char* e = ::dlerror();
    out.error = strf("dlopen failed: %s", e != nullptr ? e : "unknown");
    return out;
  }
  out.fn = reinterpret_cast<NativeEntryFn>(
      ::dlsym(out.handle, kNativeEntrySymbol));
  if (out.fn == nullptr) {
    out.error = strf("symbol %s missing (stale cache object?)",
                     kNativeEntrySymbol);
    ::dlclose(out.handle);
    out.handle = nullptr;
  }
  return out;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.flush();
  return static_cast<bool>(f);
}

/// Runs the host compiler on `src_path`, producing `so_path`, with its
/// diagnostics in `log`. Returns "" on success, else the cause (with the
/// first compiler diagnostic line when available).
std::string run_jit_compiler(const std::string& cxx,
                             const std::string& flags,
                             const std::string& src_path,
                             const std::string& so_path,
                             const std::string& log) {
  const std::string cmd = shq(cxx) + " " + flags + " -o " + shq(so_path) +
                          " " + shq(src_path) + " 2> " + shq(log);
  const int rc = std::system(cmd.c_str());
  if (rc == 0) return "";
  std::ifstream lf(log);
  std::string first_line;
  std::getline(lf, first_line);
  std::string cause = strf("host compiler failed (exit %d)", rc);
  if (!first_line.empty()) cause += ": " + first_line;
  return cause;
}

/// How and where one kernel's object is built, fixed when the build is
/// asked for: a build that runs later uses the compiler, and lands in the
/// cache directory, of that moment.
struct NativeTarget {
  int simd_w = 0;
  std::uint64_t hash = 0;  ///< names the object and keys sticky failures
  std::string cxx;         ///< the probed host compiler
  std::string cache_dir;   ///< "" = none: the object is unlinked once loaded
  std::string build_base;  ///< where the build's temporary directory goes
};

std::string so_name_for(std::uint64_t hash) {
  return strf("gemmtune-%016llx.so", static_cast<unsigned long long>(hash));
}

/// Compiles `source` in `build` and loads the object from the target's
/// cache directory, or from `build` when there is none. Returns the
/// NativeKernel, or null with the cause in `why`.
NativeKernelPtr compile_and_load(const std::string& source,
                                 const NativeTarget& t,
                                 const std::string& build, std::string* why) {
  const std::string src_path = build + "/kernel.cpp";
  if (!write_file(src_path, source)) {
    *why = "cannot write JIT source to " + build;
    return nullptr;
  }
  const std::string so_name = so_name_for(t.hash);
  std::string so_path = build + "/" + so_name;
  {
    trace::Span span("interp.native_jit");
    if (trace::enabled()) trace::counter_add("interp.native_compiles", 1);
    *why = run_jit_compiler(t.cxx, jit_flags_for(t.simd_w), src_path,
                            so_path, build + "/compile.log");
  }
  if (!why->empty()) return nullptr;
  if (!t.cache_dir.empty()) {
    const std::string cached = t.cache_dir + "/" + so_name;
    if (std::rename(so_path.c_str(), cached.c_str()) != 0) {
      *why = "rename into cache failed";
      return nullptr;
    }
    so_path = cached;
  }
  DlHandle h = dl_load(so_path);
  if (h.fn == nullptr) {
    *why = h.error;
    return nullptr;
  }
  return std::make_shared<const NativeKernel>(h.handle, h.fn);
}

/// True when `hash` failed to build before; `*why` then says so.
bool failed_before(std::uint64_t hash, std::string* why) {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  if (g_failed.count(hash) == 0) return false;
  *why = "native compilation previously failed";
  return true;
}

void mark_failed(std::uint64_t hash) {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  g_failed.insert(hash);
}

/// The half of the pipeline that never runs the compiler. Returns the
/// object when the on-disk cache holds it. Otherwise returns null, and
/// either sets `*why` (no toolchain, or a sticky failure) or leaves it
/// empty and fills `*target` for build_native().
NativeKernelPtr find_native(const Kernel& kernel, NativeTarget* target,
                            std::string* why, int simd_width = 0) {
  NativeTarget& t = *target;
  // The vector width is part of the identity of a compiled object (and of
  // its hash-named .so file), so hosts of different ISAs sharing one cache
  // directory never load each other's objects.
  t.simd_w = simd_width > 0 ? simd_width : native_simd_width();
  t.hash = jit_hash(jit_flags_for(t.simd_w), kernel, t.simd_w);
  if (failed_before(t.hash, why)) return nullptr;
  t.cache_dir = persistent_dir();
  t.build_base = build_base_for(t.cache_dir);

  // Warm start: a cached object needs no compiler at all.
  if (!t.cache_dir.empty()) {
    const std::string cached = t.cache_dir + "/" + so_name_for(t.hash);
    if (file_exists(cached)) {
      DlHandle h = dl_load(cached);
      if (h.fn != nullptr) {
        if (trace::enabled())
          trace::counter_add("interp.native_disk_hits", 1);
        return std::make_shared<const NativeKernel>(h.handle, h.fn);
      }
      // Stale or corrupt: rebuild over it.
    }
  }

  t.cxx = toolchain_cxx();
  if (t.cxx.empty()) {
    const char* env = std::getenv("GEMMTUNE_JIT_CXX");
    *why = env != nullptr
               ? strf("GEMMTUNE_JIT_CXX compiler '%s' is not usable", env)
               : "no usable host C++ compiler found";
    mark_failed(t.hash);
  }
  return nullptr;
}

/// The other half: emits `kernel`'s source from its lowered program
/// `prog`, compiles it at `target` and loads the object. On failure
/// returns null with the cause in `*why`, and the failure is sticky.
NativeKernelPtr build_native(const Kernel& kernel, const CompiledKernel& prog,
                             const NativeTarget& target, std::string* why) {
  // An earlier build of this kernel may have failed since `target` was
  // resolved (a second handle's queued build).
  if (failed_before(target.hash, why)) return nullptr;
  NativeKernelPtr nk;
  std::string build;
  try {
    const std::string source =
        emit_native_source(kernel, prog, target.simd_w);
    build = make_build_dir(target.build_base);
    if (build.empty()) {
      *why = "no writable directory for JIT objects";
    } else {
      nk = compile_and_load(source, target, build, why);
    }
  } catch (const Error& e) {
    *why = e.what();
  }
  // A loaded object stays mapped after its file is gone, so the build
  // directory goes whatever the outcome.
  if (!build.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(build, ignored);
  }
  if (!nk) mark_failed(target.hash);
  return nk;
}

}  // namespace

/// A tiered handle's build: queued, running on the worker, then done or
/// dropped. The worker's mutex guards `state`.
struct NativeBuild {
  enum class State { Queued, Running, Done, Dropped };
  std::weak_ptr<PreparedKernel> handle;
  Kernel kernel;
  NativeTarget target;
  State state = State::Queued;
};

namespace {

using BuildState = NativeBuild::State;

void count_dropped() {
  if (trace::enabled()) trace::counter_add("interp.native_dropped", 1);
}

/// Builds `b`'s object from its handle's own program and fills the
/// handle's slot, or leaves the handle on bytecode, fallen back.
void run_build(const NativeBuild& b, PreparedKernel& h) {
  std::string why;
  NativeKernelPtr nk;
  try {
    nk = build_native(b.kernel, *h.bytecode, b.target, &why);
  } catch (const std::exception& e) {
    why = e.what();  // nothing may escape the worker's thread
  }
  if (nk) {
    h.fill_native(std::move(nk));
    if (trace::enabled()) trace::counter_add("interp.native_tierup", 1);
  } else {
    warn_native_fallback(why);
    h.fall_back();
  }
}

/// The process-wide build worker (see the file comment).
class BuildWorker {
 public:
  BuildWorker() = default;
  BuildWorker(const BuildWorker&) = delete;
  BuildWorker& operator=(const BuildWorker&) = delete;

  void push(std::shared_ptr<NativeBuild> b) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      b->state = BuildState::Dropped;
      return;
    }
    if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
    queue_.push_back(std::move(b));
    take_next();
  }

  /// Waits until no build of `handles` is queued or running; with `drop`,
  /// their queued builds are dropped first.
  void settle(std::span<const KernelHandle> handles, bool drop) {
    std::unique_lock<std::mutex> lock(mu_);
    if (drop) {
      for (const KernelHandle& h : handles) {
        if (h && h->build && h->build->state == BuildState::Queued) {
          h->build->state = BuildState::Dropped;
          count_dropped();
        }
      }
      std::erase_if(queue_, [](const std::shared_ptr<NativeBuild>& b) {
        return b->state == BuildState::Dropped;
      });
    }
    done_.wait(lock, [&] {
      return std::none_of(handles.begin(), handles.end(),
                          [](const KernelHandle& h) {
                            return h && h->build &&
                                   (h->build->state == BuildState::Queued ||
                                    h->build->state == BuildState::Running);
                          });
    });
  }

  /// At exit: drops the queued builds, lets the running one finish (its
  /// build directory goes with it) and joins the thread.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      for (const std::shared_ptr<NativeBuild>& b : queue_)
        b->state = BuildState::Dropped;
      queue_.clear();
      wake_.notify_one();
      done_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  /// Under mu_: when no build runs, the first queued build whose handle is
  /// still held becomes the running one.
  void take_next() {
    while (!running_ && !queue_.empty()) {
      std::shared_ptr<NativeBuild> b = std::move(queue_.front());
      queue_.pop_front();
      running_handle_ = b->handle.lock();
      if (!running_handle_) {
        b->state = BuildState::Dropped;
        count_dropped();
        continue;
      }
      b->state = BuildState::Running;
      running_ = std::move(b);
      wake_.notify_one();
    }
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [this] { return running_ || stopping_; });
      if (!running_) return;
      const std::shared_ptr<NativeBuild> b = running_;
      std::shared_ptr<PreparedKernel> h = std::move(running_handle_);
      lock.unlock();
      run_build(*b, *h);
      b->kernel = Kernel();  // a handle keeps no IR body
      h.reset();  // the last reference when the owner let the handle go
      lock.lock();
      b->state = BuildState::Done;
      running_.reset();
      take_next();
      done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // a build to run, or stop
  std::condition_variable done_;  // a build finished or was dropped
  std::deque<std::shared_ptr<NativeBuild>> queue_;
  std::shared_ptr<NativeBuild> running_;
  std::shared_ptr<PreparedKernel> running_handle_;  // until the worker runs it
  bool stopping_ = false;
  std::thread thread_;
};

BuildWorker& build_worker() {
  // Leaked, so a handle settled during exit still finds it; its thread is
  // joined when static destruction reaches the guard, before anything
  // constructed earlier (the JIT's own state among it) is destroyed.
  static BuildWorker* const worker = new BuildWorker;
  static const struct StopAtExit {
    ~StopAtExit() { worker->stop(); }
  } stop_at_exit;
  return *worker;
}

/// Queues `h`'s build on the worker and records it in `h->build`.
void queue_build(const std::shared_ptr<PreparedKernel>& h, Kernel kernel,
                 NativeTarget target) {
  auto b = std::make_shared<NativeBuild>();
  b->handle = h;
  b->kernel = std::move(kernel);
  b->target = std::move(target);
  h->build = b;
  build_worker().push(std::move(b));
}

bool any_built_in_background(std::span<const KernelHandle> handles) {
  return std::any_of(handles.begin(), handles.end(),
                     [](const KernelHandle& h) { return h && h->build; });
}

}  // namespace

KernelHandle prepare_native(const Kernel& kernel, bool in_background) {
  auto h = std::make_shared<PreparedKernel>();
  h->signature = LaunchSignature::of(kernel);
  NativeTarget target;
  std::string why;
  NativeKernelPtr nk = find_native(kernel, &target, &why);
  if (!nk) {
    // Malformed IR throws here as it would on bytecode: not a JIT failure.
    h->bytecode = compile(kernel);
    if (why.empty() && in_background) {
      queue_build(h, kernel, std::move(target));
      return h;
    }
    if (why.empty()) nk = build_native(kernel, *h->bytecode, target, &why);
  }
  if (nk) {
    h->fill_native(std::move(nk));
  } else {
    h->fall_back();
    warn_native_fallback(why);
  }
  return h;
}

void settle_native_builds(std::span<const KernelHandle> handles) {
  if (any_built_in_background(handles)) build_worker().settle(handles, true);
}

bool wait_native_builds(std::span<const KernelHandle> handles) {
  if (!any_built_in_background(handles)) return false;
  build_worker().settle(handles, false);
  return true;
}

NativeKernel::~NativeKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

void set_jit_cache_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  g_cache_dir_override = dir;
}

bool native_toolchain_available() { return !toolchain_cxx().empty(); }

// The widest vector of doubles the host CPU runs natively; the generic
// 2-lane fallback still wins on baseline x86-64 (SSE2) and lets non-x86
// hosts use the synthesized GCC vector ops.
int native_simd_width() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
#endif
  return 2;
}

void reset_native_probe() {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  g_probe_done = false;
  g_probe_cxx.clear();
  g_failed.clear();
}

NativeKernelPtr get_or_compile_native(const Kernel& kernel, std::string* why,
                                      int simd_width) {
  NativeTarget target;
  std::string cause;
  NativeKernelPtr nk = find_native(kernel, &target, &cause, simd_width);
  // Malformed IR throws from compile() as it would on bytecode: not a JIT
  // failure.
  if (!nk && cause.empty())
    nk = build_native(kernel, *compile(kernel), target, &cause);
  if (!nk && why != nullptr) *why = cause;
  return nk;
}

void warn_native_fallback(const std::string& why) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  if (seen->insert(why).second) {
    std::fprintf(stderr,
                 "gemmtune: native backend unavailable (%s); "
                 "falling back to bytecode\n",
                 why.c_str());
  }
}

Counters native_run_range(const NativeKernel& nk, const LaunchPlan& plan,
                          std::int64_t begin, std::int64_t end) {
  const std::size_t n = plan.views.size();
  std::vector<double*> f64(n > 0 ? n : 1, nullptr);
  std::vector<float*> f32(n > 0 ? n : 1, nullptr);
  std::vector<long long> elems(n > 0 ? n : 1, 0);
  std::vector<long long> iargs(n > 0 ? n : 1, 0);
  std::vector<double> fargs(n > 0 ? n : 1, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const LaunchPlan::ArgView& v = plan.views[a];
    f64[a] = v.f64;
    f32[a] = v.f32;
    elems[a] = v.elems;
    iargs[a] = v.i;
    fargs[a] = v.f;
  }
  unsigned long long raw[7] = {0, 0, 0, 0, 0, 0, 0};
  char err[640] = {0};
  const long long rc =
      nk.fn()(begin, end, plan.global[0], plan.global[1], plan.local[0],
              plan.local[1], f64.data(), f32.data(), elems.data(),
              iargs.data(), fargs.data(), raw, err,
              static_cast<long long>(sizeof err));
  if (rc != 0) {
    err[sizeof err - 1] = '\0';
    fail(err[0] != '\0' ? std::string(err)
                        : std::string("native kernel failed"));
  }
  Counters c;
  c.flops = raw[0];
  c.mads = raw[1];
  c.global_load_bytes = raw[2];
  c.global_store_bytes = raw[3];
  c.local_load_bytes = raw[4];
  c.local_store_bytes = raw[5];
  c.barriers = raw[6];
  return c;
}

}  // namespace gemmtune::ir
