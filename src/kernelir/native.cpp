// JIT driver for the native backend: host-toolchain compilation, on-disk
// shared-object cache, dlopen, and the launch bridge.
//
// Pipeline (get_or_compile_native), run once per kernel handle:
//  1. hash the (emitter version + flags + serialized kernel + width)
//     bytes; a hash whose build failed before in this process fails again
//     at once, so the compiler runs at most once per failing kernel.
//  2. if a .so with that hash already sits in the cache directory, dlopen
//     it directly — a warm start never invokes the compiler.
//  3. otherwise lower and emit the specialized source, and run the host
//     C++ compiler (-O1 -fno-ivopts -fPIC -shared -ffp-contract=off;
//     contraction off keeps the generated arithmetic bit-identical to the
//     interpreter's) in a private mkdtemp directory next to where the
//     object lands. Two builds of one kernel, in two threads or two
//     processes, never share a file: each renames its finished object into
//     the cache directory (rename is atomic and either winner's object is
//     valid), dlopens it, and removes its build directory.
// Every failure is soft: the caller falls back to the bytecode VM.
#include "kernelir/native.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
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
/// with, then common names from PATH.
const std::string& toolchain_cxx() {
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

/// A fresh build directory next to where an object lands: in `pdir`, else
/// in TMPDIR (or /tmp). Returns "" when none can be made.
std::string make_build_dir(const std::string& pdir) {
  std::string base = pdir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  }
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

/// Compiles `source` in `build` and loads the object from the cache
/// directory `pdir`, or from `build` when there is none. Returns the
/// NativeKernel, or null with the cause in `why`.
NativeKernelPtr compile_and_load(const std::string& source,
                                 const std::string& flags,
                                 const std::string& so_name,
                                 const std::string& pdir,
                                 const std::string& build, std::string* why) {
  const std::string src_path = build + "/kernel.cpp";
  if (!write_file(src_path, source)) {
    *why = "cannot write JIT source to " + build;
    return nullptr;
  }
  std::string so_path = build + "/" + so_name;
  {
    trace::Span span("interp.native_jit");
    if (trace::enabled()) trace::counter_add("interp.native_compiles", 1);
    *why = run_jit_compiler(toolchain_cxx(), flags, src_path, so_path,
                            build + "/compile.log");
  }
  if (!why->empty()) return nullptr;
  if (!pdir.empty()) {
    const std::string cached = pdir + "/" + so_name;
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

/// Loads the shared object for one kernel from the cache directory, or
/// builds it. On failure returns null with the cause in `why`.
NativeKernelPtr jit_build(const Kernel& kernel, int simd_w,
                          const std::string& flags, std::uint64_t hash,
                          std::string* why) {
  const std::string so_name = strf("gemmtune-%016llx.so",
                                   static_cast<unsigned long long>(hash));
  const std::string pdir = persistent_dir();

  // Warm start: a cached object needs no compiler at all.
  if (!pdir.empty()) {
    const std::string cached = pdir + "/" + so_name;
    if (file_exists(cached)) {
      DlHandle h = dl_load(cached);
      if (h.fn != nullptr) {
        if (trace::enabled())
          trace::counter_add("interp.native_disk_hits", 1);
        return std::make_shared<const NativeKernel>(h.handle, h.fn);
      }
      // Stale or corrupt: fall through and rebuild over it.
    }
  }

  if (toolchain_cxx().empty()) {
    const char* env = std::getenv("GEMMTUNE_JIT_CXX");
    *why = env != nullptr
               ? strf("GEMMTUNE_JIT_CXX compiler '%s' is not usable", env)
               : "no usable host C++ compiler found";
    return nullptr;
  }
  // Malformed IR throws here as it would on bytecode: not a JIT failure.
  const CompiledKernelPtr prog = compile(kernel);
  std::string source;
  try {
    source = emit_native_source(kernel, *prog, simd_w);
  } catch (const Error& e) {
    *why = e.what();
    return nullptr;
  }
  const std::string build = make_build_dir(pdir);
  if (build.empty()) {
    *why = "no writable directory for JIT objects";
    return nullptr;
  }
  NativeKernelPtr nk =
      compile_and_load(source, flags, so_name, pdir, build, why);
  // A loaded object stays mapped after its file is gone, so the build
  // directory goes whatever the outcome.
  std::error_code ignored;
  std::filesystem::remove_all(build, ignored);
  return nk;
}

}  // namespace

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
  // The vector width is part of the identity of a compiled object (and of
  // its hash-named .so file), so hosts of different ISAs sharing one cache
  // directory never load each other's objects.
  const int simd_w = simd_width > 0 ? simd_width : native_simd_width();
  const std::string flags = jit_flags_for(simd_w);
  const std::uint64_t hash = jit_hash(flags, kernel, simd_w);
  {
    std::lock_guard<std::mutex> lock(g_native_mutex);
    if (g_failed.count(hash) != 0) {
      if (why != nullptr) *why = "native compilation previously failed";
      return nullptr;
    }
  }
  std::string cause;
  NativeKernelPtr nk = jit_build(kernel, simd_w, flags, hash, &cause);
  if (!nk) {
    std::lock_guard<std::mutex> lock(g_native_mutex);
    g_failed.insert(hash);
    if (why != nullptr) *why = cause;
  }
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
