// Distributed GEMM scaling: modeled fleet makespan vs the best single
// device for growing heterogeneous fleets, and the fleet-vs-single
// throughput curve over problem sizes. All numbers come from the same
// analytic transfer + compute model the executor uses, so the bench is
// deterministic and fast enough for CI.
//
// Usage: bench_dist_scaling [size]
//   size  cubic problem extent for the fleet table (default 8192)
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dist/executor.hpp"
#include "simcl/device_registry.hpp"

namespace {

using namespace gemmtune;
using namespace gemmtune::bench;
using codegen::Precision;
using simcl::DeviceId;

struct Fleet {
  std::string name;
  std::vector<DeviceId> devices;
};

}  // namespace

int main(int argc, char** argv) {
  gemmtune::bench::init("dist_scaling", &argc, argv);
  const index_t size = argc > 1 ? std::atoll(argv[1]) : 8192;

  const std::vector<Fleet> fleets = {
      {"Cayman", {DeviceId::Cayman}},
      {"Cypress+Cayman", {DeviceId::Cypress, DeviceId::Cayman}},
      {"Cypress+Cayman+SandyBridge",
       {DeviceId::Cypress, DeviceId::Cayman, DeviceId::SandyBridge}},
      {"Tahiti+Kepler", {DeviceId::Tahiti, DeviceId::Kepler}},
      {"all GPUs",
       {DeviceId::Tahiti, DeviceId::Cayman, DeviceId::Cypress,
        DeviceId::Kepler, DeviceId::Fermi}},
  };

  section(strf("Fleet scaling: SGEMM NN %lldx%lldx%lld",
               static_cast<long long>(size), static_cast<long long>(size),
               static_cast<long long>(size)));
  TextTable t;
  t.set_header({"Fleet", "Tiles", "Makespan s", "GFlop/s", "Best single s",
                "Speedup"});
  for (const Fleet& f : fleets) {
    dist::DistExecutor ex(f.devices);
    const dist::DistOutcome o =
        ex.run(GemmType::NN, Precision::SP, size, size, size);
    t.add_row({f.name, std::to_string(o.grid.total()),
               strf("%.4f", o.makespan_seconds), strf("%.1f", o.gflops),
               strf("%.4f", o.best_single_seconds),
               strf("%.2fx", o.speedup)});
    scalar("speedup." + f.name, o.speedup);
    scalar("gflops." + f.name, o.gflops);
  }
  t.print(std::cout);
  note("speedup = best single device solo time / fleet makespan");

  // --- throughput over problem size -----------------------------------------
  // The fleet only wins once tiles are large enough to amortize the host
  // transfers; small problems stay on one device (what the serving layer's
  // kDistThresholdN encodes).
  section("Fleet vs best single device over problem size (SGEMM)");
  const std::vector<DeviceId> fleet_devs = {
      DeviceId::Cypress, DeviceId::Cayman, DeviceId::SandyBridge};
  Series fleet_series{"Cypress+Cayman+SandyBridge", {}};
  Series single_series{"best single", {}};
  for (const index_t n : {2048, 4096, 8192, 16384}) {
    dist::DistExecutor ex(fleet_devs);
    const dist::DistOutcome o =
        ex.run(GemmType::NN, Precision::SP, n, n, n);
    const double flops = 2.0 * static_cast<double>(n) *
                         static_cast<double>(n) * static_cast<double>(n);
    fleet_series.points.emplace_back(n, o.gflops);
    single_series.points.emplace_back(
        n, finite_or(flops / o.best_single_seconds * 1e-9, 0.0));
  }
  print_series({fleet_series, single_series});
  return 0;
}
