#include "kernelir/interp.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/keyval.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/native.hpp"
#include "kernelir/vm.hpp"
#include "trace/trace.hpp"

namespace gemmtune::ir {

namespace {

/// Field-wise sum of two counter sets (all fields are event counts, so the
/// reduction is order-independent).
Counters merge(Counters a, const Counters& b) {
  a.flops += b.flops;
  a.mads += b.mads;
  a.global_load_bytes += b.global_load_bytes;
  a.global_store_bytes += b.global_store_bytes;
  a.local_load_bytes += b.local_load_bytes;
  a.local_store_bytes += b.local_store_bytes;
  a.barriers += b.barriers;
  a.work_groups += b.work_groups;
  a.work_items += b.work_items;
  return a;
}

}  // namespace

std::atomic<Backend> g_backend_override{Backend::Auto};

void set_backend_override(Backend b) {
  g_backend_override.store(b, std::memory_order_relaxed);
}

Backend resolve_backend(Backend requested) {
  if (requested != Backend::Auto) return requested;
  const Backend o = g_backend_override.load(std::memory_order_relaxed);
  if (o != Backend::Auto) return o;
  if (const char* env = std::getenv("GEMMTUNE_INTERP")) {
    if (std::strcmp(env, "bytecode") == 0) return Backend::Bytecode;
    if (std::strcmp(env, "native") == 0) return Backend::Native;
    fail_unknown_value("GEMMTUNE_INTERP", env, {"bytecode", "native"});
  }
  return Backend::Bytecode;
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Auto: return "auto";
    case Backend::Bytecode: return "bytecode";
    case Backend::Native: return "native";
  }
  return "auto";
}

Counters launch_with_backend(const Kernel& kernel,
                             std::array<std::int64_t, 2> global,
                             std::array<std::int64_t, 2> local,
                             const std::vector<ArgValue>& args, int threads,
                             Backend backend) {
  trace::Span launch_span("interp.launch");
  Backend be = resolve_backend(backend);
  // Validate once on the calling thread before any fan-out; workers share
  // the immutable plan and only allocate scratch. The plan is built before
  // any JIT work so malformed launches throw identically on every backend
  // without ever invoking the host compiler.
  const LaunchPlan plan(kernel, global, local, args);
  const std::int64_t ngroups = plan.ngroups;
  NativeKernelPtr native;
  if (be == Backend::Native) {
    std::string why;
    native = get_or_compile_native(kernel, &why);
    if (!native) {
      if (trace::enabled()) trace::counter_add("interp.native_fallback", 1);
      warn_native_fallback(why);
      be = Backend::Bytecode;
    }
  }
  CompiledKernelPtr prog;
  if (be == Backend::Bytecode) prog = get_or_compile(kernel);

  std::optional<ThreadPool> local_pool;
  if (threads > 0) local_pool.emplace(threads);
  ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();

  Counters total;
  if (pool.size() == 1 || ngroups < 2) {
    if (native) {
      total = native_run_range(*native, plan, 0, ngroups);
    } else {
      VmMachine vm(*prog, plan);
      total = vm.run_range(0, ngroups);
    }
  } else {
    // One execution context per worker: all per-group scratch state
    // (work-item registers, private/local arrays, counters) lives in that
    // worker's execution context, and the counter sums are
    // order-independent, so results and counters are identical to the
    // serial run for any thread count — and for either backend.
    std::vector<Counters> partial(static_cast<std::size_t>(pool.size()));
    pool.parallel_for(ngroups,
                      [&](std::int64_t begin, std::int64_t end, int worker) {
                        Counters c;
                        if (native) {
                          c = native_run_range(*native, plan, begin, end);
                        } else {
                          VmMachine vm(*prog, plan);
                          c = vm.run_range(begin, end);
                        }
                        partial[static_cast<std::size_t>(worker)] = c;
                      });
    for (const Counters& c : partial) total = merge(total, c);
  }
  total.work_groups = static_cast<std::uint64_t>(ngroups);
  total.work_items = total.work_groups *
                     static_cast<std::uint64_t>(local[0] * local[1]);
  if (trace::enabled()) {
    // Surface the launch's dynamic counters; each field is a sum, so the
    // trace totals over any number of launches stay order-independent.
    trace::counter_add("interp.launches", 1);
    trace::counter_add("interp.flops", total.flops);
    trace::counter_add("interp.mads", total.mads);
    trace::counter_add("interp.global_load_bytes", total.global_load_bytes);
    trace::counter_add("interp.global_store_bytes",
                       total.global_store_bytes);
    trace::counter_add("interp.local_load_bytes", total.local_load_bytes);
    trace::counter_add("interp.local_store_bytes", total.local_store_bytes);
    trace::counter_add("interp.barriers", total.barriers);
    trace::counter_add("interp.work_groups", total.work_groups);
    trace::counter_add("interp.work_items", total.work_items);
  }
  return total;
}

Counters launch(const Kernel& kernel, std::array<std::int64_t, 2> global,
                std::array<std::int64_t, 2> local,
                const std::vector<ArgValue>& args, int threads) {
  return launch_with_backend(kernel, global, local, args, threads,
                             Backend::Auto);
}

}  // namespace gemmtune::ir
