// Parallel-execution scaling: wall-clock for a full tune() and for a
// work-group-parallel interpreter launch at 1/2/4/8 threads, with the
// per-run speedup over the 1-thread baseline. Verifies along the way that
// the tuned result is bit-identical at every thread count (the engine's
// determinism contract). Besides the usual human-readable tables, emits
// the rows as one JSON document for dashboards/CI to scrape.
//
// Usage: bench_parallel_scaling [device] [candidates]
//   device      simulated device to tune (default Tahiti)
//   candidates  stage-1 enumeration budget (default 20000, the full search)
#include <chrono>
#include <cstring>

#include "bench_util.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/interp.hpp"
#include "tuner/search.hpp"

namespace {

using namespace gemmtune;
using namespace gemmtune::bench;
using codegen::Precision;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Run {
  int threads;
  double seconds;
  double speedup;
};

Json runs_json(const std::vector<Run>& runs) {
  Json arr = Json::array();
  for (const Run& r : runs) {
    Json row = Json::object();
    row["threads"] = r.threads;
    row["seconds"] = r.seconds;
    row["speedup"] = r.speedup;
    arr.push_back(std::move(row));
  }
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  gemmtune::bench::init("parallel_scaling", &argc, argv);
  const std::string device = argc > 1 ? argv[1] : "Tahiti";
  const int candidates = argc > 2 ? std::atoi(argv[2]) : 20000;
  const simcl::DeviceId id = simcl::device_by_name(device);

  Json doc = Json::object();
  doc["bench"] = std::string("parallel_scaling");
  doc["device"] = device;
  doc["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());

  // --- full tune() scaling ---------------------------------------------------
  section("Tuner scaling: full tune(" + device + ", DGEMM, " +
          std::to_string(candidates) + " candidates)");
  std::vector<Run> tune_runs;
  tuner::TunedKernel reference;
  bool identical = true;
  for (const int threads : kThreadCounts) {
    tuner::SearchOptions opt;
    opt.enumeration.max_candidates = candidates;
    opt.threads = threads;
    tuner::SearchEngine engine(id);
    const double t0 = now_seconds();
    const auto tuned = engine.tune(Precision::DP, opt);
    const double dt = now_seconds() - t0;
    if (threads == 1) {
      reference = tuned;
    } else {
      identical = identical && tuned.params == reference.params &&
                  tuned.best_gflops == reference.best_gflops &&
                  tuned.best_n == reference.best_n &&
                  tuned.curve == reference.curve;
    }
    tune_runs.push_back({threads, dt, tune_runs.empty()
                                          ? 1.0
                                          : tune_runs.front().seconds / dt});
  }
  TextTable t1;
  t1.set_header({"Threads", "Seconds", "Speedup"});
  for (const Run& r : tune_runs)
    t1.add_row({std::to_string(r.threads), strf("%.3f", r.seconds),
                strf("%.2fx", r.speedup)});
  t1.print(std::cout);
  note(identical ? "tuned result bit-identical across all thread counts"
                 : "ERROR: tuned result differs across thread counts");
  note(strf("winner: %s at %.1f GFlop/s",
            reference.params.summary().c_str(), reference.best_gflops));
  doc["tune"] = runs_json(tune_runs);
  doc["tune_identical"] = identical;

  // --- interpreter scaling ---------------------------------------------------
  // One generated kernel over a many-group NDRange; work-groups partition
  // across threads.
  const auto params = codegen::table2_entry(id, Precision::DP).params;
  codegen::KernelParams p = params;
  const std::int64_t Mp = 4 * p.Mwg, Np = 4 * p.Nwg, Kp = p.Kwg;
  section(strf("Interpreter scaling: %s kernel, %lldx%lldx%lld (%d groups)",
               codegen::to_string(p.algo), static_cast<long long>(Mp),
               static_cast<long long>(Np), static_cast<long long>(Kp), 16));
  simcl::Context ctx(simcl::device_spec(id));
  const auto es = static_cast<std::size_t>(element_bytes(p.prec));
  auto dA = ctx.create_buffer(static_cast<std::size_t>(Mp * Kp) * es);
  auto dB = ctx.create_buffer(static_cast<std::size_t>(Kp * Np) * es);
  auto dC = ctx.create_buffer(static_cast<std::size_t>(Mp * Np) * es);
  for (std::size_t i = 0; i < dA->count<double>(); ++i)
    dA->as<double>()[i] = static_cast<double>(i % 13) * 0.25;
  for (std::size_t i = 0; i < dB->count<double>(); ++i)
    dB->as<double>()[i] = static_cast<double>(i % 7) * 0.5;
  const ir::Kernel kern = codegen::generate_gemm_kernel(p);
  const auto geo = codegen::launch_geometry(p, Mp, Np);
  std::vector<ir::ArgValue> args(8);
  args[codegen::GemmKernelArgs::C] = ir::ArgValue::of(dC);
  args[codegen::GemmKernelArgs::A] = ir::ArgValue::of(dA);
  args[codegen::GemmKernelArgs::B] = ir::ArgValue::of(dB);
  args[codegen::GemmKernelArgs::M] = ir::ArgValue::of_int(Mp);
  args[codegen::GemmKernelArgs::N] = ir::ArgValue::of_int(Np);
  args[codegen::GemmKernelArgs::K] = ir::ArgValue::of_int(Kp);
  args[codegen::GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.0);
  args[codegen::GemmKernelArgs::beta] = ir::ArgValue::of_float(0.0);

  const ir::KernelHandle handle = ir::prepare(kern);
  std::vector<Run> interp_runs;
  for (const int threads : kThreadCounts) {
    const double t0 = now_seconds();
    (void)ir::launch(*handle, geo.global, geo.local, args, threads);
    const double dt = now_seconds() - t0;
    interp_runs.push_back({threads, dt, interp_runs.empty()
                                            ? 1.0
                                            : interp_runs.front().seconds /
                                                  dt});
  }
  TextTable t2;
  t2.set_header({"Threads", "Seconds", "Speedup"});
  for (const Run& r : interp_runs)
    t2.add_row({std::to_string(r.threads), strf("%.3f", r.seconds),
                strf("%.2fx", r.speedup)});
  t2.print(std::cout);
  doc["interp"] = runs_json(interp_runs);

  section("JSON");
  std::printf("%s\n", doc.dump(2).c_str());
  return identical ? 0 : 1;
}
