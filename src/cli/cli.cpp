#include "cli/cli.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "benchdb/benchdb.hpp"
#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "clfront/parser.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "dist/executor.hpp"
#include "kernelir/emit.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "layout/matrix.hpp"
#include "layout/packing.hpp"
#include "serve/core/async_server.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "trace/trace.hpp"
#include "tuner/results_db.hpp"
#include "tuner/strategy/strategy.hpp"
#include "vendor/baselines.hpp"

namespace gemmtune::cli {

namespace {

using codegen::Precision;

Precision parse_precision(const std::string& s) {
  if (s == "DGEMM" || s == "dgemm") return Precision::DP;
  if (s == "SGEMM" || s == "sgemm") return Precision::SP;
  fail("unknown precision '" + s + "' (use DGEMM or SGEMM)");
}

/// Parses a count argument: a decimal integer >= 1 with no trailing junk.
/// Errors name the argument and quote the text.
int parse_count(const std::string& name, const std::string& text) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(text, &used);
    if (used == text.size() && v >= 1) return v;
  } catch (const std::exception&) {
    // Not a number, or out of int range: reported below like junk.
  }
  fail(name + " expects an integer >= 1, got '" + text + "'");
}

GemmType parse_type(const std::string& s) {
  for (GemmType t : all_gemm_types()) {
    if (s == to_string(t)) return t;
  }
  fail("unknown GEMM type '" + s + "' (use NN, NT, TN or TT)");
}

int cmd_devices(std::ostream& out) {
  TextTable t;
  t.set_header({"Device", "Type", "Clock GHz", "CUs", "Peak DP", "Peak SP",
                "BW GB/s", "Host GB/s", "Xfer us", "Local kB"});
  for (simcl::DeviceId id : simcl::all_devices()) {
    const auto& d = simcl::device_spec(id);
    t.add_row({d.code_name, d.is_gpu() ? "GPU" : "CPU",
               strf("%.3g", d.clock_ghz), std::to_string(d.compute_units),
               fmt_gflops(d.peak_dp_gflops), fmt_gflops(d.peak_sp_gflops),
               strf("%.4g", d.global_bw_gbs), strf("%.3g", d.host_bw_gbs),
               strf("%.3g", d.transfer_latency_us),
               strf("%.3g", d.local_mem_kb)});
  }
  t.print(out);
  return 0;
}

int cmd_emit(const std::vector<std::string>& args, std::ostream& out) {
  check(args.size() >= 2, "usage: emit <device> <DGEMM|SGEMM>");
  const auto id = simcl::device_by_name(args[0]);
  const auto entry = codegen::table2_entry(id, parse_precision(args[1]));
  out << "// " << entry.params.summary() << "\n";
  out << ir::emit_opencl(codegen::generate_gemm_kernel(entry.params));
  return 0;
}

int cmd_compile(const std::vector<std::string>& args, std::ostream& out) {
  check(args.size() >= 1, "usage: compile <file.cl>");
  std::ifstream f(args[0]);
  check(f.good(), "cannot open " + args[0]);
  std::ostringstream ss;
  ss << f.rdbuf();
  const ir::Kernel k = clfront::parse_kernel(ss.str());
  out << "kernel: " << k.name << "\n";
  out << "arguments: " << k.args.size() << "\n";
  out << "symbols: " << k.symbols.size() << "\n";
  out << "local memory: " << k.local_mem_bytes() << " bytes\n";
  out << "private elements/work-item: " << k.private_scalars() << "\n";
  if (k.reqd_local[0] > 0)
    out << strf("required work-group: %lld x %lld\n",
                static_cast<long long>(k.reqd_local[0]),
                static_cast<long long>(k.reqd_local[1]));
  return 0;
}

/// Functional spot-check of a tuned kernel: one blocking tile
/// (Mwg x Nwg x Kwg) through the interpreter against the host reference.
/// Cheap (one work-group of real execution), and it exercises the
/// interpreter so a `tune --metrics` run reports interp counters too.
template <typename T>
std::pair<double, double> functional_check(simcl::DeviceId id,
                                           const tuner::TunedKernel& best) {
  tuner::TunedDatabase db;
  db.put(id, best.params.prec, best);
  blas::GemmEngine engine(id, std::move(db));
  const index_t M = best.params.Mwg;
  const index_t N = best.params.Nwg;
  const index_t K = best.params.Kwg;
  Rng rng(2026);
  Matrix<T> A(M, K), B(K, N), C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  const auto prof = engine.gemm(Transpose::No, Transpose::No, M, N, K,
                                T(1.5), A, B, T(-0.5), C, true);
  return {prof.max_error, hostblas::gemm_tolerance<T>(K)};
}

/// Parses the flag tail shared by `tune`, `serve` and `replay`. Returns
/// the value consumed for `flag` at `i` (advancing `i` for the two-token
/// form), or nullopt when args[i] is a different flag.
std::optional<std::string> flag_value(const std::vector<std::string>& args,
                                      std::size_t& i, const char* flag) {
  const std::string& a = args[i];
  const std::string eq = std::string(flag) + "=";
  if (a.rfind(eq, 0) == 0) return a.substr(eq.size());
  if (a == flag) {
    check(i + 1 < args.size(), std::string(flag) + " requires a value");
    return args[++i];
  }
  return std::nullopt;
}

/// Parses "MxNxK" (e.g. "2048x64x2048") for `tune --shape`.
tuner::ShapeClass parse_shape_class(const std::string& text, Precision prec) {
  index_t dims[3] = {0, 0, 0};
  std::size_t pos = 0;
  for (int d = 0; d < 3; ++d) {
    std::size_t used = 0;
    try {
      dims[d] = std::stoll(text.substr(pos), &used);
    } catch (const std::exception&) {
      used = 0;
    }
    check(used > 0 && dims[d] > 0,
          "--shape expects MxNxK with positive extents, got '" + text + "'");
    pos += used;
    if (d < 2) {
      check(pos < text.size() && text[pos] == 'x',
            "--shape expects MxNxK with positive extents, got '" + text +
                "'");
      ++pos;
    }
  }
  check(pos == text.size(),
        "--shape expects MxNxK with positive extents, got '" + text + "'");
  tuner::ShapeClass s;
  s.prec = prec;
  s.type = GemmType::NN;
  s.Mc = tuner::ShapeClass::quantize(dims[0]);
  s.Nc = tuner::ShapeClass::quantize(dims[1]);
  s.Kc = tuner::ShapeClass::quantize(dims[2]);
  return s;
}

int cmd_tune(const std::vector<std::string>& args, std::ostream& out) {
  // Flags may be interleaved with the positional arguments; split first so
  // the classic `tune <device> <DGEMM|SGEMM> [budget] [out.json]` form
  // keeps working unchanged.
  std::vector<std::string> pos;
  std::string strategy_text, shape_text;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--strategy")) strategy_text = *v;
    else if (auto v = flag_value(args, i, "--shape")) shape_text = *v;
    else if (args[i].rfind("--", 0) == 0)
      fail("tune: unknown argument '" + args[i] + "'");
    else pos.push_back(args[i]);
  }
  check(pos.size() >= 2,
        "usage: tune <device> <DGEMM|SGEMM> [budget] [out.json] "
        "[--strategy SPEC] [--shape MxNxK]");
  const auto id = simcl::device_by_name(pos[0]);
  const Precision prec = parse_precision(pos[1]);
  tuner::SearchOptions opt;
  if (pos.size() >= 3)
    opt.enumeration.max_candidates = parse_count("tune: budget", pos[2]);
  if (!shape_text.empty()) opt.shape = parse_shape_class(shape_text, prec);
  const tuner::strategy::StrategySpec spec =
      strategy_text.empty()
          ? tuner::strategy::StrategySpec{}  // exhaustive reference
          : tuner::strategy::parse_strategy_spec(strategy_text);
  tuner::SearchEngine engine(id);
  tuner::strategy::StrategyStats sstats;
  const auto best =
      tuner::strategy::run_strategy(engine, prec, opt, spec, &sstats);
  const tuner::SearchStats& stats = sstats.search;
  if (!strategy_text.empty())
    out << strf("strategy %s: measured %lld of %lld candidates (%.1f%%)\n",
                to_string(spec.kind),
                static_cast<long long>(sstats.measured),
                static_cast<long long>(sstats.space),
                sstats.fraction_measured * 100);
  if (opt.shape)
    out << "shape class: " << to_string(*opt.shape) << "\n";
  out << "evaluated " << stats.stage1_evaluated << " kernels ("
      << stats.stage1_failed << " failed), stage-2 points "
      << stats.stage2_points << "\n";
  if (stats.stage2_empty > 0)
    out << "stage-2 empty sweeps: " << stats.stage2_empty
        << (stats.used_stage1_fallback ? " (fell back to the stage-1 result)"
                                       : "")
        << "\n";
  out << "best: " << best.params.summary() << "\n";
  out << strf("best performance: %.1f GFlop/s at N=%lld\n", best.best_gflops,
              static_cast<long long>(best.best_n));
  const auto paper = codegen::table2_entry(id, prec);
  out << strf("paper Table II: %.1f GFlop/s (ratio %.2f)\n", paper.max_gflops,
              best.best_gflops / paper.max_gflops);
  const auto [err, tol] = prec == Precision::DP
                              ? functional_check<double>(id, best)
                              : functional_check<float>(id, best);
  out << strf("functional check (one %dx%dx%d tile): max |error| = %.3e "
              "(tolerance %.3e): %s\n",
              best.params.Mwg, best.params.Nwg, best.params.Kwg, err, tol,
              err <= tol ? "PASS" : "FAIL");
  check(err <= tol, "tune: winning kernel failed the functional check");
  if (pos.size() >= 4) {
    tuner::TunedDatabase db;
    db.put(id, prec, best.shape, best);
    db.save_file(pos[3]);
    out << "saved to " << pos[3] << "\n";
  }
  return 0;
}

int cmd_estimate(const std::vector<std::string>& args, std::ostream& out) {
  check(args.size() >= 4,
        "usage: estimate <device> <DGEMM|SGEMM> <NN|NT|TN|TT> <n>");
  const auto id = simcl::device_by_name(args[0]);
  const Precision prec = parse_precision(args[1]);
  const GemmType type = parse_type(args[2]);
  const index_t n = parse_count("estimate: n", args[3]);
  blas::GemmEngine engine(id);
  const auto prof = engine.estimate(type, prec, n, n, n);
  out << strf("%s %s %s N=%lld: %.1f GFlop/s (%s; copy %.3f ms, kernel "
              "%.3f ms)\n",
              args[0].c_str(), to_string(prec), to_string(type),
              static_cast<long long>(n), prof.gflops,
              prof.used_direct ? "direct kernel" : "copy + tuned kernel",
              prof.copy_seconds * 1e3, prof.kernel_seconds * 1e3);
  const auto& vb = vendor::table3_vendor(id, prec);
  out << strf("vendor (%s): %.1f GFlop/s\n", vb.name.c_str(),
              vendor::baseline_gflops(vb, type, n));
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args, std::ostream& out) {
  check(args.size() >= 3, "usage: sweep <device> <DGEMM|SGEMM> <maxN>");
  const auto id = simcl::device_by_name(args[0]);
  const Precision prec = parse_precision(args[1]);
  const std::int64_t max_n = parse_count("sweep: maxN", args[2]);
  tuner::SearchEngine engine(id);
  const auto p = codegen::table2_entry(id, prec).params;
  // The largest problem of the sweep, padded, must fit the cost model.
  checked_packed_extents(max_n, max_n, max_n, p.Mwg, p.Nwg, p.Kwg,
                         element_bytes(p.prec));
  TextTable t;
  t.set_header({"N", "GFlop/s"});
  for (const auto& [n, g] : engine.sweep(p, max_n))
    t.add_row({std::to_string(n), fmt_gflops(g)});
  t.print(out);
  return 0;
}

int cmd_verify(const std::vector<std::string>& args, std::ostream& out) {
  check(args.size() >= 5,
        "usage: verify <device> <DGEMM|SGEMM> <M> <N> <K>");
  const auto id = simcl::device_by_name(args[0]);
  const Precision prec = parse_precision(args[1]);
  const index_t M = parse_count("verify: M", args[2]);
  const index_t N = parse_count("verify: N", args[3]);
  const index_t K = parse_count("verify: K", args[4]);
  check(M <= 512 && N <= 512 && K <= 512,
        "sizes must be in [1, 512] (functional execution is interpreted)");
  blas::GemmEngine engine(id);
  const auto verified = [&](auto zero) {
    using T = decltype(zero);
    Rng rng(2026);
    Matrix<T> A(M, K), B(K, N), C(M, N);
    A.fill_random(rng);
    B.fill_random(rng);
    C.fill_random(rng);
    return engine
        .gemm(Transpose::No, Transpose::No, M, N, K, T(1.5), A, B, T(-0.5),
              C, true)
        .max_error;
  };
  const auto run = [&] {
    return prec == Precision::DP ? verified(0.0) : verified(0.0f);
  };
  double err = run();
  // On the native tier a cold kernel's first call runs on bytecode while
  // its object builds; verify checks the tier it names, so it waits for
  // the build and checks a second call.
  if (engine.wait_native_builds()) err = run();
  const double tol = prec == Precision::DP
                         ? hostblas::gemm_tolerance<double>(K)
                         : hostblas::gemm_tolerance<float>(K);
  out << strf("max |error| = %.3e (tolerance %.3e): %s\n", err, tol,
              err <= tol ? "PASS" : "FAIL");
  return err <= tol ? 0 : 1;
}

/// Largest extent of a request `serve` and `replay` execute on the host's
/// cores (the pipeline's step 3): real GEMMs cost host milliseconds, so
/// only the small-shape tail runs.
constexpr index_t kExecuteMaxN = 64;

/// The flags `serve` and `replay` share, parsed straight into the options
/// of the server and the pipeline.
struct ServeFlags {
  serve::ServeOptions server;
  serve::AsyncOptions pipeline{.execute_max_n = kExecuteMaxN};
  double slo_ms = 0;  ///< > 0: override every deadline to arrival + SLO
  std::string report_path;
};

/// Parses one flag shared by `serve` and `replay`. Returns true when
/// args[i] was consumed.
bool serve_flag(const std::vector<std::string>& args, std::size_t& i,
                ServeFlags& flags) {
  if (auto v = flag_value(args, i, "--report")) {
    flags.report_path = *v;
    return true;
  }
  if (auto v = flag_value(args, i, "--cache")) {
    flags.server.cache_path = *v;
    return true;
  }
  if (auto v = flag_value(args, i, "--slo-ms")) {
    try {
      std::size_t used = 0;
      flags.slo_ms = std::stod(*v, &used);
      check(used == v->size() && flags.slo_ms > 0, "");
    } catch (const std::exception&) {
      fail("--slo-ms expects a number > 0, got '" + *v + "'");
    }
    return true;
  }
  if (args[i] == "--shed-infeasible") {
    flags.pipeline.shed_infeasible = true;
    return true;
  }
  if (auto v = flag_value(args, i, "--tune-strategy")) {
    // Validate eagerly so a typo fails before the workload is generated.
    (void)tuner::strategy::parse_strategy_spec(*v);
    flags.server.tune_strategy = *v;
    return true;
  }
  if (auto v = flag_value(args, i, "--tune-candidates")) {
    flags.server.tune_candidates = parse_count("--tune-candidates", *v);
    return true;
  }
  return false;
}

/// Shared tail of `serve` and `replay`: warm up, run the pipeline and its
/// unbatched baseline, print the summary and optionally write the report.
int run_serve(const serve::WorkloadSpec& spec,
              const std::vector<serve::GemmRequest>& requests_in,
              const ServeFlags& flags, std::ostream& out) {
  serve::GemmServer server(spec.resolved_devices(), flags.server);
  const auto info = server.warmup();
  if (info.cache_ignored)
    out << "warning: ignoring corrupt warm cache: " << info.cache_error
        << "\n";
  out << strf("warmup: %zu kernels ready (%zu from cache, %zu profiled)\n",
              info.loaded + info.profiled, info.loaded, info.profiled);
  if (!flags.server.tune_strategy.empty())
    out << "tune strategy: " << flags.server.tune_strategy
        << " (per shape class, " << flags.server.tune_candidates
        << " candidates)\n";
  std::vector<serve::GemmRequest> requests = requests_in;
  if (flags.slo_ms > 0) {
    // One service-level objective for every request, replacing the
    // per-class deadline budgets.
    for (auto& r : requests)
      r.deadline_seconds = r.arrival_seconds + flags.slo_ms / 1e3;
    out << strf("slo: deadlines overridden to arrival + %.3g ms\n",
                flags.slo_ms);
  }
  const serve::AsyncOutcome served =
      serve::AsyncServer(server, flags.pipeline)
          .run(requests, spec.max_batch, spec.queue_capacity);
  // The baseline sheds like the served run but executes nothing.
  serve::AsyncOptions baseline_opt = flags.pipeline;
  baseline_opt.execute_max_n = 0;
  const serve::ServeOutcome baseline =
      serve::AsyncServer(server, baseline_opt)
          .run(requests, 1, spec.queue_capacity)
          .base;
  const Json report = serve::build_report(spec, requests, served, baseline,
                                          flags.server, flags.pipeline);
  const Json& s = report.at("scalars");
  out << strf("workload: %d requests, seed %llu, %.4g req/s, %zu devices\n",
              spec.requests,
              static_cast<unsigned long long>(spec.seed), spec.rate_rps,
              spec.resolved_devices().size());
  out << strf("served: %lld completed, %lld rejected (queue full), "
              "%lld rejected (deadline)\n",
              static_cast<long long>(
                  s.at("requests.completed").as_int()),
              static_cast<long long>(
                  s.at("requests.rejected_queue_full").as_int()),
              static_cast<long long>(
                  s.at("requests.rejected_deadline").as_int()));
  out << strf("shed: %lld (queue full) + %lld (infeasible), %lld expired\n",
              static_cast<long long>(served.shed_queue_full),
              static_cast<long long>(served.shed_infeasible),
              static_cast<long long>(served.expired));
  out << strf("executed: %lld requests on the host's cores\n",
              static_cast<long long>(served.executed));
  out << strf("batches: %lld (avg %.2f, max %lld, %.0f%% direct path)\n",
              static_cast<long long>(s.at("batches.count").as_int()),
              s.at("batches.avg_size").as_number(),
              static_cast<long long>(s.at("batches.max_size").as_int()),
              s.at("batches.direct_fraction").as_number() * 100);
  out << strf("latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
              "max %.3f ms\n",
              s.at("latency_ms.p50").as_number(),
              s.at("latency_ms.p95").as_number(),
              s.at("latency_ms.p99").as_number(),
              s.at("latency_ms.max").as_number());
  out << strf("throughput: %.1f GFlop/s over %.4f s simulated\n",
              s.at("throughput.gflops").as_number(),
              s.at("sim.makespan_seconds").as_number());
  out << strf("baseline (unbatched): %.1f GFlop/s -> speedup %.2fx\n",
              s.at("baseline.throughput.gflops").as_number(),
              s.at("speedup.throughput").as_number());
  if (!flags.report_path.empty()) {
    std::ofstream f(flags.report_path, std::ios::trunc);
    check(f.good(), "serve: cannot write report " + flags.report_path);
    f << report.dump(2) << "\n";
    check(f.good(), "serve: write failed for " + flags.report_path);
    out << "wrote " << flags.report_path << "\n";
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  std::string spec_text, trace_path;
  ServeFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--workload")) spec_text = *v;
    else if (auto v = flag_value(args, i, "--save-trace")) trace_path = *v;
    else if (serve_flag(args, i, flags)) continue;
    else fail("serve: unknown argument '" + args[i] + "'");
  }
  const serve::WorkloadSpec spec = serve::parse_spec(spec_text);
  const auto requests = serve::generate_workload(spec);
  if (!trace_path.empty()) {
    serve::save_workload_file(trace_path, spec, requests);
    out << "saved workload trace to " << trace_path << "\n";
  }
  return run_serve(spec, requests, flags, out);
}

int cmd_replay(const std::vector<std::string>& args, std::ostream& out) {
  check(!args.empty() && !args[0].starts_with("--"),
        "usage: replay <trace.json> [--report FILE] [--cache FILE] "
        "[--slo-ms X] [--shed-infeasible] [--tune-strategy SPEC] "
        "[--tune-candidates N]");
  ServeFlags flags;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (serve_flag(args, i, flags)) continue;
    fail("replay: unknown argument '" + args[i] + "'");
  }
  const serve::Workload w = serve::load_workload_file(args[0]);
  return run_serve(w.spec, w.requests, flags, out);
}

int cmd_dist(const std::vector<std::string>& args, std::ostream& out) {
  std::string spec_text, report_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--spec")) spec_text = *v;
    else if (auto v = flag_value(args, i, "--report")) report_path = *v;
    else fail("dist: unknown argument '" + args[i] + "'");
  }
  const dist::DistSpec spec = dist::parse_dist_spec(spec_text);
  const auto devices = spec.resolved_devices();
  dist::DistExecutor ex(devices);
  const auto o =
      ex.run(spec.type, spec.prec, spec.M, spec.N, spec.K, spec.tile);
  out << strf("problem: %s %s %lldx%lldx%lld, tile %lldx%lld -> "
              "%lldx%lld grid (%lld tiles)\n",
              to_string(spec.prec), to_string(spec.type),
              static_cast<long long>(spec.M), static_cast<long long>(spec.N),
              static_cast<long long>(spec.K),
              static_cast<long long>(o.grid.tile_m),
              static_cast<long long>(o.grid.tile_n),
              static_cast<long long>(o.grid.rows),
              static_cast<long long>(o.grid.cols),
              static_cast<long long>(o.grid.total()));
  TextTable t;
  t.set_header({"Device", "Tiles", "Stolen", "Compute s", "Transfer s",
                "Solo s"});
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& ds = o.device_stats[d];
    t.add_row({simcl::to_string(devices[d]), std::to_string(ds.executed),
               std::to_string(ds.stolen), strf("%.4f", ds.compute_seconds),
               strf("%.4f", ds.transfer_seconds),
               strf("%.4f", o.single_seconds[d])});
  }
  t.print(out);
  out << strf("fleet: %.4f s simulated (%.1f GFlop/s)\n",
              o.makespan_seconds, o.gflops);
  out << strf("best single device: %s at %.4f s -> speedup %.2fx\n",
              simcl::to_string(devices[static_cast<std::size_t>(
                                   o.best_single)])
                  .c_str(),
              o.best_single_seconds, o.speedup);
  if (!report_path.empty()) {
    const Json report = dist::build_dist_report(spec, o);
    std::ofstream f(report_path, std::ios::trunc);
    check(f.good(), "dist: cannot write report " + report_path);
    f << report.dump(2) << "\n";
    check(f.good(), "dist: write failed for " + report_path);
    out << "wrote " << report_path << "\n";
  }
  return 0;
}

int usage(std::ostream& out) {
  out << "usage: gemmtune [--threads N] [--interp B] [--jit-cache-dir D]\n"
         "                [--trace FILE] [--metrics FILE] <command> [args]\n"
         "options:\n"
         "  --threads N     worker threads for tuning and kernel\n"
         "                  interpretation (default: GEMMTUNE_THREADS if\n"
         "                  set, else all hardware threads)\n"
         "  --interp B      kernel execution tier: bytecode (default) or\n"
         "                  native (JIT to a shared object via the host C++\n"
         "                  compiler, falling back to bytecode when no\n"
         "                  toolchain is available; also GEMMTUNE_INTERP)\n"
         "  --jit-cache-dir D\n"
         "                  persistent directory for native-backend shared\n"
         "                  objects (also GEMMTUNE_JIT_CACHE); warm starts\n"
         "                  dlopen cached objects without a compiler\n"

         "  --trace FILE    write a Chrome trace-event JSON timeline\n"
         "  --metrics FILE  write aggregated metrics JSON (span durations,\n"
         "                  counters, gauges, cache hit rates)\n"
         "commands:\n"
         "  devices\n"
         "  emit <device> <DGEMM|SGEMM>\n"
         "  compile <file.cl>\n"
         "  tune <device> <DGEMM|SGEMM> [budget] [out.json]\n"
         "       [--strategy SPEC] [--shape MxNxK]\n"
         "                  SPEC selects the search strategy:\n"
         "                  exhaustive (default), model_topk or anneal,\n"
         "                  with k=v options, e.g. model_topk,budget=64 or\n"
         "                  anneal,budget=256,seed=7,restarts=8; --shape\n"
         "                  tunes for one NN shape class (pack cost + direct\n"
         "                  path) instead of the size-agnostic square sweep\n"
         "  estimate <device> <DGEMM|SGEMM> <NN|NT|TN|TT> <n>\n"
         "  sweep <device> <DGEMM|SGEMM> <maxN>\n"
         "  verify <device> <DGEMM|SGEMM> <M> <N> <K>\n"
         "  serve [--workload SPEC] [--report FILE] [--cache FILE]\n"
         "        [--save-trace FILE] [--slo-ms X] [--shed-infeasible]\n"
         "        [--tune-strategy SPEC] [--tune-candidates N]\n"
         "                  run the batched GEMM service on a seeded\n"
         "                  synthetic workload; SPEC is k=v pairs, e.g.\n"
         "                  requests=1000,seed=42,rate=2000,max_batch=16,\n"
         "                  queue=512,arrival=poisson,devices=Tahiti+Kepler\n"
         "                  (deterministic: the event loop, then real GEMMs\n"
         "                  for requests up to 64 on the host's cores, with\n"
         "                  per-shape-class p50/p99/p999 and an unbatched\n"
         "                  baseline); --slo-ms X replaces every deadline\n"
         "                  with arrival + X ms; --shed-infeasible also\n"
         "                  rejects deadline-infeasible requests at\n"
         "                  admission;\n"
         "                  --tune-strategy SPEC tunes a kernel per shape\n"
         "                  class with the budgeted strategy (see tune)\n"
         "                  instead of the Table II warmup kernel\n"
         "  replay <trace.json> [--report FILE] [--cache FILE]\n"
         "         [--slo-ms X] [--shed-infeasible]\n"
         "         [--tune-strategy SPEC] [--tune-candidates N]\n"
         "                  re-run a workload trace saved by serve\n"
         "  dist [--spec SPEC] [--report FILE]\n"
         "                  run one large GEMM tiled across the whole\n"
         "                  fleet; SPEC is k=v pairs, e.g. size=8192,\n"
         "                  prec=SGEMM,type=NN,tile=1024,\n"
         "                  devices=Cypress+Cayman+SandyBridge\n"
         "  bench-db <ingest|query|compare|trend|gate> [flags]\n"
         "                  benchmark experiment database: ingest\n"
         "                  bench/serve/dist reports into an append-only\n"
         "                  JSONL store, query and diff them, render\n"
         "                  trend reports, and gate CI on the last-K\n"
         "                  performance trajectory (`bench-db` for the\n"
         "                  subcommand list)\n";
  return 2;
}

}  // namespace

namespace {

void set_interp_backend(const std::string& value) {
  if (value == "bytecode") {
    ir::set_backend_override(ir::Backend::Bytecode);
  } else if (value == "native") {
    ir::set_backend_override(ir::Backend::Native);
  } else {
    fail_unknown_value("--interp", value, {"bytecode", "native"});
  }
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out) {
  // Global options precede the command.
  std::size_t first = 0;
  std::string trace_file, metrics_file;
  try {
    while (first < args.size() && args[first].starts_with("--")) {
      const std::string& flag = args[first];
      if (flag == "--threads") {
        check(first + 1 < args.size(), "--threads requires a value");
        set_thread_override(parse_thread_count("--threads", args[first + 1]));
        first += 2;
      } else if (flag.starts_with("--threads=")) {
        set_thread_override(parse_thread_count("--threads", flag.substr(10)));
        first += 1;
      } else if (flag == "--interp") {
        check(first + 1 < args.size(), "--interp requires a value");
        set_interp_backend(args[first + 1]);
        first += 2;
      } else if (flag.starts_with("--interp=")) {
        set_interp_backend(flag.substr(9));
        first += 1;
      } else if (flag == "--jit-cache-dir") {
        check(first + 1 < args.size(), "--jit-cache-dir requires a value");
        ir::set_jit_cache_dir(args[first + 1]);
        first += 2;
      } else if (flag.starts_with("--jit-cache-dir=")) {
        ir::set_jit_cache_dir(flag.substr(16));
        first += 1;
      } else if (flag == "--trace" || flag == "--metrics") {
        check(first + 1 < args.size(), flag + " requires a file path");
        (flag == "--trace" ? trace_file : metrics_file) = args[first + 1];
        first += 2;
      } else if (flag.starts_with("--trace=")) {
        trace_file = flag.substr(8);
        first += 1;
      } else if (flag.starts_with("--metrics=")) {
        metrics_file = flag.substr(10);
        first += 1;
      } else {
        fail("unknown option '" + flag + "'");
      }
    }
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
  if (!trace_file.empty() || !metrics_file.empty()) {
    trace::reset();
    trace::set_enabled(true);
  }
  // Writes the requested observability files; runs even when the command
  // failed, so a crashing tune still leaves its partial timeline behind.
  auto write_observability = [&](int rc) {
    try {
      if (!trace_file.empty()) trace::write_trace_file(trace_file);
      if (!metrics_file.empty()) trace::write_metrics_file(metrics_file);
    } catch (const std::exception& e) {
      out << "error: " << e.what() << "\n";
      return rc == 0 ? 1 : rc;
    }
    return rc;
  };
  if (first >= args.size()) return write_observability(usage(out));
  const std::string cmd = args[first];
  const std::vector<std::string> rest(args.begin() +
                                          static_cast<std::ptrdiff_t>(first) +
                                          1,
                                      args.end());
  try {
    if (cmd == "devices") return write_observability(cmd_devices(out));
    if (cmd == "emit") return write_observability(cmd_emit(rest, out));
    if (cmd == "compile") return write_observability(cmd_compile(rest, out));
    if (cmd == "tune") return write_observability(cmd_tune(rest, out));
    if (cmd == "estimate")
      return write_observability(cmd_estimate(rest, out));
    if (cmd == "sweep") return write_observability(cmd_sweep(rest, out));
    if (cmd == "verify") return write_observability(cmd_verify(rest, out));
    if (cmd == "serve") return write_observability(cmd_serve(rest, out));
    if (cmd == "replay") return write_observability(cmd_replay(rest, out));
    if (cmd == "dist") return write_observability(cmd_dist(rest, out));
    if (cmd == "bench-db")
      return write_observability(benchdb::run_cli(rest, out));
    return write_observability(usage(out));
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return write_observability(1);
  }
}

}  // namespace gemmtune::cli
