// Per-layer probes of the traced run. Each probe times the benchmark's own
// calls into one module's public functions on inputs drawn from the run's
// seed (gemm_native problems, serve_small requests, the tune workload's
// device), or reads the counters the library already records. The same
// probes run in every workload's traced run, so every layer metric is
// always reported. README.md maps each to the end-to-end metric it should
// move.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>

#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "layout/packing.hpp"
#include "perfbench.hpp"
#include "perfmodel/model.hpp"
#include "serve/core/async_server.hpp"
#include "trace/trace.hpp"
#include "tuner/shape.hpp"
#include "tuner/strategy/strategy.hpp"

namespace perfbench {

using namespace gemmtune;

namespace {

double median_of(std::vector<double> xs) { return summarize(std::move(xs)).median; }

std::int64_t counter(const Json& metrics, const char* name) {
  const Json& c = metrics.at("counters");
  return c.contains(name) ? c.at(name).as_int() : 0;
}

/// A launch-ready kernel with its arguments.
struct Launch {
  ir::Kernel kernel;
  codegen::LaunchGeometry geo;
  std::vector<ir::ArgValue> args;
};

/// What the layout and simcl probes time while building a packed launch.
struct PackTimes {
  double pack_s = 0, pack_bytes = 0;
  std::vector<double> create_buffer_s;
};

/// Builds the packed-path launch GemmEngine::gemm runs for one problem,
/// timing pack_a/pack_b/pack_c and Context::create_buffer.
template <typename T>
Launch packed_launch(const codegen::KernelParams& p, const GemmProblem& prob,
                     const GemmOperands<T>& ops, simcl::Context& ctx,
                     PackTimes& pt) {
  const PackedExtents ext =
      packed_extents(prob.M, prob.N, prob.K, p.Mwg, p.Nwg, p.Kwg);
  const double t0 = now_s();
  auto abuf = pack_a(ops.A, prob.ta, prob.M, prob.K, ext.Mp, ext.Kp,
                     p.layout_a, p.Mwg, p.Kwg);
  auto bbuf = pack_b(ops.B, prob.tb, prob.K, prob.N, ext.Kp, ext.Np,
                     p.layout_b, p.Kwg, p.Nwg);
  auto cbuf = pack_c(ops.C0, prob.M, prob.N, ext.Mp, ext.Np);
  pt.pack_s += now_s() - t0;
  // Computed bytes: every live source element read, every packed element
  // written.
  pt.pack_bytes += double(sizeof(T)) *
                   double(prob.M * prob.K + prob.K * prob.N + prob.M * prob.N +
                          abuf.size() + bbuf.size() + cbuf.size());
  Launch l{codegen::generate_gemm_kernel(p),
           codegen::launch_geometry(p, ext.Mp, ext.Np),
           std::vector<ir::ArgValue>(8)};
  const auto buffer = [&](const std::vector<T>& host) {
    const double b0 = now_s();
    auto buf = ctx.create_buffer(host.size() * sizeof(T));
    pt.create_buffer_s.push_back(now_s() - b0);
    std::memcpy(buf->data(), host.data(), host.size() * sizeof(T));
    return buf;
  };
  using A = codegen::GemmKernelArgs;
  l.args[A::C] = ir::ArgValue::of(buffer(cbuf));
  l.args[A::A] = ir::ArgValue::of(buffer(abuf));
  l.args[A::B] = ir::ArgValue::of(buffer(bbuf));
  l.args[A::M] = ir::ArgValue::of_int(ext.Mp);
  l.args[A::N] = ir::ArgValue::of_int(ext.Np);
  l.args[A::K] = ir::ArgValue::of_int(ext.Kp);
  l.args[A::alpha] = ir::ArgValue::of_float(1.5);
  l.args[A::beta] = ir::ArgValue::of_float(-0.5);
  return l;
}

/// The launch GemmEngine::gemm runs for one serve request on the device
/// whose kernel is `p`: the copy-free direct kernel when shape_cost picks
/// it, else the packed kernel.
template <typename T>
Launch request_launch(const perfmodel::PerfModel& model,
                      const codegen::KernelParams& p,
                      const serve::GemmRequest& r, std::uint64_t seed,
                      simcl::Context& ctx) {
  const GemmProblem prob{trans_a(r.type), trans_b(r.type), r.prec, r.M, r.N,
                         r.K};
  const auto ops = gemm_operands<T>(prob, seed, static_cast<std::size_t>(r.id));
  if (!tuner::shape_cost(model, p, r.M, r.N, r.K).used_direct) {
    PackTimes ignored;
    return packed_launch<T>(p, prob, ops, ctx, ignored);
  }
  const codegen::KernelParams q = tuner::direct_variant(p);
  const bool guarded = r.M % q.Mwg != 0 || r.N % q.Nwg != 0 || r.K % q.Kwg != 0;
  const PackedExtents ext = packed_extents(r.M, r.N, r.K, q.Mwg, q.Nwg, q.Kwg);
  Launch l{codegen::generate_direct_gemm_kernel(q, prob.ta, prob.tb, guarded),
           codegen::launch_geometry(q, ext.Mp, ext.Np),
           std::vector<ir::ArgValue>(11)};
  const auto buffer = [&](const Matrix<T>& m) {
    auto buf = ctx.create_buffer(m.size() * sizeof(T));
    std::memcpy(buf->data(), m.data(), m.size() * sizeof(T));
    return buf;
  };
  using D = codegen::DirectGemmKernelArgs;
  l.args[D::C] = ir::ArgValue::of(buffer(ops.C0));
  l.args[D::A] = ir::ArgValue::of(buffer(ops.A));
  l.args[D::B] = ir::ArgValue::of(buffer(ops.B));
  l.args[D::M] = ir::ArgValue::of_int(r.M);
  l.args[D::N] = ir::ArgValue::of_int(r.N);
  l.args[D::K] = ir::ArgValue::of_int(r.K);
  l.args[D::lda] = ir::ArgValue::of_int(ops.A.ld());
  l.args[D::ldb] = ir::ArgValue::of_int(ops.B.ld());
  l.args[D::ldc] = ir::ArgValue::of_int(ops.C0.ld());
  l.args[D::alpha] = ir::ArgValue::of_float(1.5);
  l.args[D::beta] = ir::ArgValue::of_float(-0.5);
  return l;
}

/// Last-level cache size in bytes as the kernel reports it (the figure
/// lscpu prints), or 0 when unknown.
double llc_bytes() {
  double best = 0;
  int best_level = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string dir = strf("/sys/devices/system/cpu/cpu0/cache/index%d/", i);
    std::ifstream lf(dir + "level"), sf(dir + "size");
    int level = 0;
    std::string size;
    if (!(lf >> level) || !(sf >> size) || size.empty()) continue;
    double bytes = std::stod(size);
    if (size.back() == 'K') bytes *= 1024;
    if (size.back() == 'M') bytes *= 1024 * 1024;
    if (level > best_level) best_level = level, best = bytes;
  }
  return best;
}

double mem_available_bytes() {
  std::ifstream f("/proc/meminfo");
  std::string key;
  double kb = 0;
  std::string unit;
  while (f >> key >> kb >> unit)
    if (key == "MemAvailable:") return kb * 1024;
  return 0;
}

// ---------------------------------------------------------------------------

/// codegen, kernelir (lowering, JIT, native launch), layout, simcl, blas
/// and hostblas, on gemm_native's problems and Tahiti's tuned kernels.
/// Returns the native launch's GFlop/s and flops per byte.
std::pair<double, double> probe_gemm_layers(const Config& cfg, Result& out) {
  const auto problems = gemm_problems(cfg.seed, cfg.tiny);
  // Two DP and two SP problems, picked by the seed.
  std::vector<std::size_t> picks;
  for (Precision prec : {Precision::DP, Precision::SP}) {
    std::vector<std::size_t> of;
    for (std::size_t i = 0; i < problems.size(); ++i)
      if (problems[i].prec == prec) of.push_back(i);
    for (std::size_t k = 0; k < 2; ++k)
      picks.push_back(of[(cfg.seed + k * 3) % of.size()]);
  }
  blas::GemmEngine engine(simcl::DeviceId::Tahiti);
  const auto params = [&](Precision prec) { return engine.kernel_for(prec).params; };

  // codegen and lowering: the packed kernels gemm_native runs, and the
  // guarded direct kernels small serve requests run, for all four types.
  std::vector<double> gen_us, lower_ms;
  for (Precision prec : {Precision::DP, Precision::SP}) {
    const codegen::KernelParams p = params(prec);
    const codegen::KernelParams q = tuner::direct_variant(p);
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = now_s();
      const ir::Kernel k = codegen::generate_gemm_kernel(p);
      gen_us.push_back((now_s() - t0) * 1e6);
      t0 = now_s();
      const auto prog = ir::compile(k);
      lower_ms.push_back((now_s() - t0) * 1e3);
      if (!prog || prog->code.empty()) out.fail("ir::compile returned nothing");
    }
    for (Transpose ta : {Transpose::No, Transpose::Yes})
      for (Transpose tb : {Transpose::No, Transpose::Yes}) {
        const double t0 = now_s();
        codegen::generate_direct_gemm_kernel(q, ta, tb, true);
        gen_us.push_back((now_s() - t0) * 1e6);
      }
  }

  // kernelir: cold JIT into an empty cache directory, then a warm load of
  // the cached object after dropping the in-process program cache.
  trace::reset();
  ir::set_jit_cache_dir(cfg.scratch + "/jit-probe");
  ir::compiled_cache_clear();
  std::vector<double> cold_s, warm_ms;
  for (Precision prec : {Precision::DP, Precision::SP}) {
    const ir::Kernel k = codegen::generate_gemm_kernel(params(prec));
    const double t0 = now_s();
    const bool ok = ir::get_or_compile_native(k) != nullptr;
    cold_s.push_back(now_s() - t0);
    if (!ok) out.fail("cold native compile failed");
  }
  ir::compiled_cache_clear();
  for (Precision prec : {Precision::DP, Precision::SP}) {
    const ir::Kernel k = codegen::generate_gemm_kernel(params(prec));
    const double t0 = now_s();
    const bool ok = ir::get_or_compile_native(k) != nullptr;
    warm_ms.push_back((now_s() - t0) * 1e3);
    if (!ok) out.fail("warm native load failed");
  }
  const Json jit = trace::metrics_json();
  if (counter(jit, "interp.native_disk_hits") != 2)
    out.fail("warm JIT loads did not come from the on-disk cache");

  // kernelir native launches on packed buffers; layout pack/unpack;
  // simcl buffer creation.
  simcl::Context ctx(simcl::device_spec(simcl::DeviceId::Tahiti));
  PackTimes pt;
  double native_flops = 0, native_s = 0, moved = 0, unpack_s = 0,
         unpack_bytes = 0;
  for (std::size_t i : picks) {
    const GemmProblem& prob = problems[i];
    const auto run = [&](auto zero) {
      using T = decltype(zero);
      const auto ops = gemm_operands<T>(prob, cfg.seed, i);
      const Launch l = packed_launch<T>(params(prob.prec), prob, ops, ctx, pt);
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = now_s();
        const ir::Counters c = ir::launch_with_backend(
            l.kernel, l.geo.global, l.geo.local, l.args, 0, ir::Backend::Native);
        native_s += now_s() - t0;
        native_flops += double(c.flops);
        moved += double(c.global_load_bytes + c.global_store_bytes);
      }
      const auto& cbuf = l.args[codegen::GemmKernelArgs::C].buffer;
      std::vector<T> host(cbuf->count<T>());
      std::memcpy(host.data(), cbuf->data(), host.size() * sizeof(T));
      Matrix<T> C(prob.M, prob.N);
      const index_t Mp = l.args[codegen::GemmKernelArgs::M].i;
      const index_t Np = l.args[codegen::GemmKernelArgs::N].i;
      const double t0 = now_s();
      unpack_c(host, Mp, Np, C, prob.M, prob.N);
      unpack_s += now_s() - t0;
      unpack_bytes += 2.0 * double(prob.M * prob.N) * sizeof(T);
    };
    if (prob.prec == Precision::DP)
      run(0.0);
    else
      run(0.0f);
  }

  // hostblas: the oracle GEMM, on the first DP and SP pick.
  double host_flops = 0, host_s = 0;
  for (std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    const GemmProblem& prob = problems[picks[k]];
    const auto run = [&](auto zero) {
      using T = decltype(zero);
      auto ops = gemm_operands<T>(prob, cfg.seed, picks[k]);
      const double t0 = now_s();
      hostblas::gemm_parallel(prob.ta, prob.tb, prob.M, prob.N, prob.K, T(1.5),
                              ops.A, ops.B, T(-0.5), ops.C0, cfg.threads);
      host_s += now_s() - t0;
      host_flops += prob.flops();
    };
    if (prob.prec == Precision::DP)
      run(0.0);
    else
      run(0.0f);
  }

  // blas: GemmEngine::gemm self time (the call minus its pack, kernel and
  // merge spans), native backend.
  ir::set_backend_override(ir::Backend::Native);
  trace::reset();
  for (std::size_t i : picks) {
    const GemmProblem& prob = problems[i];
    const auto run = [&](auto zero) {
      using T = decltype(zero);
      auto ops = gemm_operands<T>(prob, cfg.seed, i);
      engine.gemm<T>(prob.ta, prob.tb, prob.M, prob.N, prob.K, T(1.5), ops.A,
                     ops.B, T(-0.5), ops.C0);
    };
    if (prob.prec == Precision::DP)
      run(0.0);
    else
      run(0.0f);
  }
  const auto spans = span_times();
  const Json gm = trace::metrics_json();
  const auto& g = spans.count("gemm.gemm") ? spans.at("gemm.gemm") : SpanTime{};
  const std::int64_t fallbacks = counter(jit, "interp.native_fallback") +
                                 counter(gm, "interp.native_fallback");
  ir::set_backend_override(ir::Backend::Auto);

  out.add("codegen.generate_us", median_of(gen_us), "us");
  out.add("kernelir.lower_ms", median_of(lower_ms), "ms");
  out.add("kernelir.jit_cold_s", median_of(cold_s), "s");
  out.add("kernelir.jit_warm_ms", median_of(warm_ms), "ms");
  const double native_gflops = native_flops / native_s / 1e9;
  const double fpb = native_flops / moved;
  out.add("kernelir.native_gflops", native_gflops, "GFlop/s");
  out.add("kernelir.flops_per_byte", fpb, "flop/B");
  out.add("kernelir.native_fallbacks", double(fallbacks), "count");
  out.add("layout.pack_gbs", pt.pack_bytes / pt.pack_s / 1e9, "GB/s");
  out.add("layout.unpack_gbs", unpack_bytes / unpack_s / 1e9, "GB/s");
  out.add("simcl.create_buffer_us", median_of(pt.create_buffer_s) * 1e6, "us");
  out.add("blas.gemm_self_ms", g.count ? g.self_s / double(g.count) * 1e3 : 0,
          "ms");
  out.add("hostblas.gflops", host_flops / host_s / 1e9, "GFlop/s");
  out.note(strf("kernelir.flops_per_byte is computed from the launch "
                "counters (%.0f flops over %.0f global bytes)",
                native_flops, moved));
  if (fallbacks > 0) out.fail("native backend fell back in the probes");
  return {native_gflops, fpb};
}

/// serve (scheduling, estimates, executor balance) plus the VM and the
/// program cache on serve_small's requests.
void probe_serve_layers(const Config& cfg, Result& out) {
  const auto reqs = serve_chunks(cfg.seed, 1, cfg.tiny ? 40 : 300)[0];
  serve::GemmServer server(serve_fleet(), serve::ServeOptions{});
  server.warmup();
  double t0 = now_s();
  server.ensure_estimates(reqs);
  out.add("serve.estimates_s", now_s() - t0, "s");
  const serve::WorkloadSpec spec;

  std::vector<double> per_request_us;
  {
    serve::AsyncOptions aopt;  // execute_max_n = 0: scheduling only
    serve::AsyncServer async(server, aopt);
    for (int rep = 0; rep < 5; ++rep) {
      t0 = now_s();
      async.run(reqs, spec.max_batch, spec.queue_capacity);
      per_request_us.push_back((now_s() - t0) / double(reqs.size()) * 1e6);
    }
  }
  out.add("serve.schedule_us", median_of(per_request_us), "us");

  // Program-cache reuse over one executing replay, from a cold cache.
  ir::compiled_cache_clear();
  trace::reset();
  serve::AsyncOptions aopt;
  aopt.execute_max_n = kExecuteMaxN;
  serve::AsyncServer async(server, aopt);
  const serve::AsyncOutcome o =
      async.run(reqs, spec.max_batch, spec.queue_capacity);
  const Json m = trace::metrics_json();
  const double hits = double(counter(m, "interp.cache_hit"));
  const double lookups = hits + double(counter(m, "interp.cache_miss"));
  out.add("kernelir.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  out.add("kernelir.cache_lookups", lookups, "count");

  // Executor balance: execute_checksum timed per request, summed by the
  // device that served it.
  std::vector<double> busy(server.devices().size(), 0.0);
  std::vector<std::size_t> executed;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (o.result_hash[i] == 0) continue;
    executed.push_back(i);
    const int d = o.base.responses[i].device_index;
    t0 = now_s();
    serve::execute_checksum(*server.engines()[static_cast<std::size_t>(d)],
                            reqs[i], aopt.result_seed);
    busy[static_cast<std::size_t>(d)] += now_s() - t0;
  }
  double sum = 0, top = 0;
  for (double b : busy) sum += b, top = std::max(top, b);
  out.add("serve.exec_imbalance", sum > 0 ? top / (sum / double(busy.size())) : 0,
          "ratio");

  // VM launches on the executed shapes: the kernel each request's device
  // runs, on the bytecode backend.
  double vm_flops = 0, vm_s = 0;
  const std::size_t sample = std::min<std::size_t>(16, executed.size());
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t i = executed[k * executed.size() / sample];
    const serve::GemmRequest& r = reqs[i];
    blas::GemmEngine& engine = *server.engines()[static_cast<std::size_t>(
        o.base.responses[i].device_index)];
    simcl::Context ctx(simcl::device_spec(engine.device_id()));
    const auto run = [&](auto zero) {
      using T = decltype(zero);
      const Launch l = request_launch<T>(
          engine.model(), engine.kernel_for(r.prec).params, r, cfg.seed, ctx);
      for (int rep = 0; rep < 3; ++rep) {
        t0 = now_s();
        const ir::Counters c = ir::launch_with_backend(
            l.kernel, l.geo.global, l.geo.local, l.args, 0,
            ir::Backend::Bytecode);
        vm_s += now_s() - t0;
        vm_flops += double(c.flops);
      }
    };
    if (r.prec == Precision::DP)
      run(0.0);
    else
      run(0.0f);
  }
  out.add("kernelir.vm_gflops", vm_s > 0 ? vm_flops / vm_s / 1e9 : 0, "GFlop/s");

  // perfmodel: one cold shape_cost per (class, device).
  std::set<tuner::ShapeClass> classes;
  for (const auto& r : reqs) classes.insert(tuner::ShapeClass::of(r));
  perfmodel::PerfModel::clear_thread_cache();
  std::vector<double> cost_us;
  for (const auto& engine : server.engines())
    for (const auto& c : classes) {
      const codegen::KernelParams& p = engine->kernel_for(c.prec).params;
      t0 = now_s();
      tuner::shape_cost(engine->model(), p, c.Mc, c.Nc, c.Kc);
      cost_us.push_back((now_s() - t0) * 1e6);
    }
  out.add("perfmodel.shape_cost_us", median_of(cost_us), "us");
}

/// tuner: cold enumeration and scoring on Tahiti DGEMM, and the perfmodel
/// memo over guided class tunes of the seeded mixture.
void probe_tuner_layers(const Config& cfg, Result& out) {
  tuner::SearchEngine engine(simcl::DeviceId::Tahiti);
  tuner::SearchOptions opt;
  opt.threads = cfg.threads;
  if (cfg.tiny) opt.enumeration.max_candidates = 300;
  perfmodel::PerfModel::clear_thread_cache();
  double t0 = now_s();
  const auto space = engine.candidate_space(Precision::DP, opt);
  out.add("tuner.enumerate_s", now_s() - t0, "s");
  tuner::SearchStats st;
  t0 = now_s();
  engine.tune(Precision::DP, opt, &st);
  out.add("tuner.score_s", now_s() - t0, "s");
  out.add("tuner.candidates", double(space.size()), "count");
  out.add("tuner.measured", double(st.stage1_evaluated), "count");

  std::set<tuner::ShapeClass> classes;
  const auto mixture = serve_chunks(cfg.seed, 1, cfg.tiny ? 12 : 100);
  for (const auto& r : mixture[0])
    if (r.prec == Precision::DP) classes.insert(tuner::ShapeClass::of(r));
  tuner::strategy::StrategySpec topk;
  topk.kind = tuner::strategy::StrategyKind::ModelTopK;
  topk.budget = 64;
  trace::reset();
  for (const auto& c : classes) {
    tuner::SearchOptions o = opt;
    o.shape = c;
    tuner::strategy::run_strategy(engine, Precision::DP, o, topk);
  }
  const Json m = trace::metrics_json();
  const double hits = double(counter(m, "perfmodel.cache_hit"));
  const double total = hits + double(counter(m, "perfmodel.cache_miss"));
  out.add("perfmodel.cache_hit_ratio", total > 0 ? hits / total : 0, "ratio");
  out.add("perfmodel.estimates", total, "count");
}

}  // namespace

void probe_layers(const Config& cfg, Result& out) {
  trace::reset();
  trace::set_enabled(true);
  const auto [native_gflops, fpb] = probe_gemm_layers(cfg, out);
  probe_serve_layers(cfg, out);
  probe_tuner_layers(cfg, out);
  trace::set_enabled(false);
  trace::reset();

  // Roofline anchors. The triad arrays are four times the last-level
  // cache each, unless three of them would take more than a quarter of
  // the available memory.
  const double llc = llc_bytes();
  double array = cfg.tiny ? 8.0 * (1 << 20) : 4.0 * (llc > 0 ? llc : 32.0 * (1 << 20));
  const double cap = mem_available_bytes() / 12.0;
  const bool capped = !cfg.tiny && cap > 0 && array > cap;
  if (capped) array = cap;
  const double peak = fma_peak_gflops(cfg.tiny ? 0.05 : 0.4);
  const double bw = triad_gbs(static_cast<std::size_t>(array), 3);
  const double bound = std::min(peak, bw * fpb);
  out.add("roofline.fma_gflops", peak, "GFlop/s");
  out.add("roofline.triad_gbs", bw, "GB/s");
  out.add("kernelir.native_pct_roofline", native_gflops / bound * 100.0, "%");
  out.note(strf("roofline (one core): FMA peak %.2f GFlop/s, triad %.2f GB/s on three "
                "%.0f MB arrays (LLC %.0f MB%s); native bound min(peak, "
                "bw x %.3f flop/B) = %.2f GFlop/s",
                peak, bw, array / (1 << 20), llc / (1 << 20),
                capped ? ", arrays capped by available memory" : "", fpb,
                bound));
}

}  // namespace perfbench
