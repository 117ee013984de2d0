// Serve pipeline: overload stress of AsyncServer.
//
// The pipeline serves an overloaded workload; every GEMM checksum its
// executors produced must equal the same request re-run on this thread on
// the device that served it, and its shed/expiry accounting plus the
// p50/p99/p999 latency percentiles (overall and for the hottest shape
// classes) are recorded as exact scalars.
//
// Usage: bench_serve_core [requests]
//   requests  workload size (default 240)
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/core/async_server.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "simcl/device_registry.hpp"

namespace {

using namespace gemmtune;
using namespace gemmtune::bench;
using serve::AsyncOptions;
using serve::AsyncOutcome;
using serve::AsyncServer;
using serve::GemmRequest;
using serve::GemmServer;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::WorkloadSpec;
using simcl::DeviceId;

std::int64_t completed_of(const AsyncOutcome& out) {
  std::int64_t n = 0;
  for (const auto& resp : out.base.responses)
    n += resp.status == RequestStatus::Completed ? 1 : 0;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  gemmtune::bench::init("serve_core", &argc, argv);
  const int requests = argc > 1 ? std::atoi(argv[1]) : 240;

  const std::vector<DeviceId> fleet = {DeviceId::Tahiti, DeviceId::Kepler,
                                       DeviceId::Cayman,
                                       DeviceId::SandyBridge};
  GemmServer server(fleet, ServeOptions{});
  server.warmup();

  // A rate well past the fleet's service capacity with a tight queue, so
  // both shedding paths (queue-full backpressure and deadline expiry) are
  // live while the executors run the GEMMs.
  WorkloadSpec spec;
  spec.requests = requests;
  spec.seed = 42;
  spec.rate_rps = 150000;
  spec.devices = fleet;
  spec.max_batch = 8;
  spec.queue_capacity = 24;
  const auto reqs = serve::generate_workload(spec);

  section(strf("Async core: %d requests @ %.0f rps, queue %d", requests,
               spec.rate_rps, spec.queue_capacity));
  AsyncOptions aopt;
  aopt.execute_max_n = 64;
  AsyncServer core(server, aopt);
  const AsyncOutcome out = core.run(reqs, spec.max_batch, spec.queue_capacity);
  // Each executor checksum against a re-execution on this thread, on the
  // device that served the request.
  std::int64_t compared = 0, mismatched = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GemmRequest& r = reqs[i];
    const serve::GemmResponse& resp = out.base.responses[i];
    if (resp.status != RequestStatus::Completed || resp.device_index < 0 ||
        std::max({r.M, r.N, r.K}) > aopt.execute_max_n)
      continue;
    ++compared;
    mismatched +=
        out.result_hash[i] !=
        serve::execute_checksum(
            *server.engines()[static_cast<std::size_t>(resp.device_index)],
            r, aopt.result_seed);
  }
  const bool match = mismatched == 0 && compared == out.executed;
  TextTable t;
  t.set_header({"Core", "Completed", "Shed full", "Expired", "p50 ms",
                "p99 ms", "p99.9 ms"});
  t.add_row({"async", std::to_string(completed_of(out)),
             std::to_string(out.shed_queue_full),
             std::to_string(out.expired),
             strf("%.3f", out.latency.quantile(0.50) * 1e3),
             strf("%.3f", out.latency.quantile(0.99) * 1e3),
             strf("%.3f", out.latency.quantile(0.999) * 1e3)});
  t.print(std::cout);
  note(match ? strf("checksums: all %lld executor results equal a "
                    "re-execution on the bench thread",
                    static_cast<long long>(compared))
             : strf("checksums FAILED: %lld of %lld differ (%lld executed)",
                    static_cast<long long>(mismatched),
                    static_cast<long long>(compared),
                    static_cast<long long>(out.executed)));
  scalar("serve_core.match", match ? 1 : 0);
  scalar("serve_core.checksums_compared", static_cast<double>(compared));
  scalar("serve_core.completed", static_cast<double>(completed_of(out)));
  scalar("serve_core.shed_queue_full",
         static_cast<double>(out.shed_queue_full));
  scalar("serve_core.expired", static_cast<double>(out.expired));
  scalar("serve_core.p50_ms", out.latency.quantile(0.50) * 1e3);
  scalar("serve_core.p99_ms", out.latency.quantile(0.99) * 1e3);
  scalar("serve_core.p999_ms", out.latency.quantile(0.999) * 1e3);
  // Tail percentiles of the hottest shape classes (by generated count):
  // the per-class accounting the report schema carries, pinned exactly.
  std::vector<std::pair<std::int64_t, serve::ShapeClass>> hot;
  for (const auto& [shape, acct] : out.classes)
    hot.emplace_back(acct.generated, shape);
  std::sort(hot.rbegin(), hot.rend());
  for (std::size_t i = 0; i < hot.size() && i < 3; ++i) {
    const auto& acct = out.classes.at(hot[i].second);
    const std::string name = to_string(hot[i].second);
    scalar("serve_core.class." + name + ".p99_ms",
           acct.latency.quantile(0.99) * 1e3);
    scalar("serve_core.class." + name + ".completed",
           static_cast<double>(acct.completed));
  }
  return match ? 0 : 1;
}
