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

LaunchSignature LaunchSignature::of(const Kernel& kernel) {
  return {kernel.args, {kernel.reqd_local[0], kernel.reqd_local[1]}};
}

KernelHandle prepare(const Kernel& kernel, Backend backend) {
  if (resolve_backend(backend) == Backend::Native)
    return prepare_native(kernel, false);
  auto h = std::make_shared<PreparedKernel>();
  h->signature = LaunchSignature::of(kernel);
  h->bytecode = compile(kernel);
  return h;
}

KernelHandle prepare_tiered(const Kernel& kernel) {
  return prepare_native(kernel, true);
}

namespace {

/// The one execution body: runs a validated plan on the handle's tier.
Counters run(const PreparedKernel& k, const LaunchPlan& plan, int threads) {
  if (k.native_fallback() && trace::enabled())
    trace::counter_add("interp.native_fallback", 1);
  const NativeKernel* const nk = k.native();
  const std::int64_t ngroups = plan.ngroups;
  const auto run_range = [&](std::int64_t begin, std::int64_t end) {
    if (nk != nullptr) return native_run_range(*nk, plan, begin, end);
    VmMachine vm(*k.bytecode, plan);
    return vm.run_range(begin, end);
  };

  const int nthreads = threads > 0 ? threads : configured_threads();
  Counters total;
  if (nthreads == 1 || ngroups < 2) {
    total = run_range(0, ngroups);
  } else {
    std::optional<ThreadPool> local_pool;
    if (threads > 0) local_pool.emplace(threads);
    ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
    // One execution context per worker: all per-group scratch state
    // (work-item registers, private/local arrays, counters) lives in that
    // worker's execution context, and the counter sums are
    // order-independent, so results and counters are identical to the
    // serial run for any thread count — and for either backend.
    std::vector<Counters> partial(static_cast<std::size_t>(pool.size()));
    pool.parallel_for(ngroups,
                      [&](std::int64_t begin, std::int64_t end, int worker) {
                        partial[static_cast<std::size_t>(worker)] =
                            run_range(begin, end);
                      });
    for (const Counters& c : partial) total = merge(total, c);
  }
  total.work_groups = static_cast<std::uint64_t>(ngroups);
  total.work_items = total.work_groups *
                     static_cast<std::uint64_t>(plan.items_per_group);
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

}  // namespace

Counters launch(const PreparedKernel& kernel,
                std::array<std::int64_t, 2> global,
                std::array<std::int64_t, 2> local,
                const std::vector<ArgValue>& args, int threads) {
  trace::Span launch_span("interp.launch");
  // Validate once on the calling thread before any fan-out; workers share
  // the immutable plan and only allocate scratch.
  const LaunchPlan plan(kernel.signature, global, local, args);
  return run(kernel, plan, threads);
}

Counters launch_with_backend(const Kernel& kernel,
                             std::array<std::int64_t, 2> global,
                             std::array<std::int64_t, 2> local,
                             const std::vector<ArgValue>& args, int threads,
                             Backend backend) {
  trace::Span launch_span("interp.launch");
  // The plan is built before any JIT work so malformed launches throw
  // identically on every backend without ever invoking the host compiler.
  const LaunchPlan plan(LaunchSignature::of(kernel), global, local, args);
  return run(*prepare(kernel, backend), plan, threads);
}

Counters launch(const Kernel& kernel, std::array<std::int64_t, 2> global,
                std::array<std::int64_t, 2> local,
                const std::vector<ArgValue>& args, int threads) {
  return launch_with_backend(kernel, global, local, args, threads,
                             Backend::Auto);
}

}  // namespace gemmtune::ir
