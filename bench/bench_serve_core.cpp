// Concurrent serving core: overload stress of the async pipeline.
//
// Two legs:
//  1. Virtual core under overload (deterministic, baseline-gated): the
//     async core in virtual mode serves an overloaded workload; every GEMM
//     checksum its executors produced must equal the same request re-run
//     on this thread on the device that served it, and its shed/expiry
//     accounting plus the p50/p99/p999 latency percentiles (overall and
//     for the hottest shape classes) are recorded as exact scalars.
//  2. Realtime overload stress (gated as a pass/fail bit): the same
//     4-device fleet served by four per-device executor threads versus
//     the serial-execution reference (one thread playing every device
//     back to back), both in scaled wall-clock time. The acceptance
//     criterion — the concurrent core completes >= 1.5x the requests of
//     the serial core under overload — is the gated scalar; raw counts,
//     ratios and wall seconds go to trace gauges (the uncompared metrics
//     section), as wall-clock numbers always do in this suite.
//
// Usage: bench_serve_core [requests]
//   requests  workload size for both legs (default 240)
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

  // --- Leg 1: virtual core under overload -----------------------------------
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

  section(strf("Virtual core: %d requests @ %.0f rps, queue %d", requests,
               spec.rate_rps, spec.queue_capacity));
  AsyncOptions vopt;
  vopt.execute_max_n = 64;
  AsyncServer virt_core(server, vopt);
  const AsyncOutcome virt =
      virt_core.run(reqs, spec.max_batch, spec.queue_capacity);
  // Each executor checksum against a re-execution on this thread, on the
  // device that served the request.
  std::int64_t compared = 0, mismatched = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GemmRequest& r = reqs[i];
    const serve::GemmResponse& resp = virt.base.responses[i];
    if (resp.status != RequestStatus::Completed || resp.device_index < 0 ||
        std::max({r.M, r.N, r.K}) > vopt.execute_max_n)
      continue;
    ++compared;
    mismatched +=
        virt.result_hash[i] !=
        serve::execute_checksum(
            *server.engines()[static_cast<std::size_t>(resp.device_index)],
            r, vopt.result_seed);
  }
  const bool match = mismatched == 0 && compared == virt.executed;
  TextTable t;
  t.set_header({"Core", "Completed", "Shed full", "Expired", "p50 ms",
                "p99 ms", "p99.9 ms"});
  t.add_row({"async (virtual)", std::to_string(completed_of(virt)),
             std::to_string(virt.shed_queue_full),
             std::to_string(virt.expired),
             strf("%.3f", virt.latency.quantile(0.50) * 1e3),
             strf("%.3f", virt.latency.quantile(0.99) * 1e3),
             strf("%.3f", virt.latency.quantile(0.999) * 1e3)});
  t.print(std::cout);
  note(match ? strf("checksums: all %lld executor results equal a "
                    "re-execution on the bench thread",
                    static_cast<long long>(compared))
             : strf("checksums FAILED: %lld of %lld differ (%lld executed)",
                    static_cast<long long>(mismatched),
                    static_cast<long long>(compared),
                    static_cast<long long>(virt.executed)));
  scalar("serve_core.match", match ? 1 : 0);
  scalar("serve_core.checksums_compared", static_cast<double>(compared));
  scalar("serve_core.completed", static_cast<double>(completed_of(virt)));
  scalar("serve_core.shed_queue_full",
         static_cast<double>(virt.shed_queue_full));
  scalar("serve_core.expired", static_cast<double>(virt.expired));
  scalar("serve_core.p50_ms", virt.latency.quantile(0.50) * 1e3);
  scalar("serve_core.p99_ms", virt.latency.quantile(0.99) * 1e3);
  scalar("serve_core.p999_ms", virt.latency.quantile(0.999) * 1e3);
  // Tail percentiles of the hottest shape classes (by generated count):
  // the per-class accounting the report schema carries, pinned exactly.
  std::vector<std::pair<std::int64_t, serve::ShapeClass>> hot;
  for (const auto& [shape, acct] : virt.classes)
    hot.emplace_back(acct.generated, shape);
  std::sort(hot.rbegin(), hot.rend());
  for (std::size_t i = 0; i < hot.size() && i < 3; ++i) {
    const auto& acct = virt.classes.at(hot[i].second);
    const std::string name = to_string(hot[i].second);
    scalar("serve_core.class." + name + ".p99_ms",
           acct.latency.quantile(0.99) * 1e3);
    scalar("serve_core.class." + name + ".completed",
           static_cast<double>(acct.completed));
  }

  // --- Leg 2: realtime overload stress --------------------------------------
  // Both cores pace the same arrivals in scaled wall-clock; the serial
  // reference plays all four devices on one thread, so under overload it
  // expires (or back-pressures) what the four per-device executors would
  // have served. The rate sits past one device's capacity but within the
  // fleet's, which is exactly where executor concurrency pays.
  section("Realtime overload: 4 executor threads vs serial execution");
  WorkloadSpec rt_spec = spec;
  rt_spec.rate_rps = 8000;
  rt_spec.queue_capacity = 64;
  const auto rt_reqs = serve::generate_workload(rt_spec);
  AsyncOptions rt;
  rt.time_scale = 2.0;
  AsyncOptions ser = rt;
  ser.serial_execution = true;

  AsyncServer async_core(server, rt);
  const AsyncOutcome rt_out =
      async_core.run(rt_reqs, rt_spec.max_batch, rt_spec.queue_capacity);
  AsyncServer serial_core(server, ser);
  const AsyncOutcome ser_out =
      serial_core.run(rt_reqs, rt_spec.max_batch, rt_spec.queue_capacity);

  const std::int64_t rt_completed = completed_of(rt_out);
  const std::int64_t ser_completed = completed_of(ser_out);
  const double ratio =
      ser_completed > 0
          ? static_cast<double>(rt_completed) /
                static_cast<double>(ser_completed)
          : static_cast<double>(rt_completed);
  TextTable rt_table;
  rt_table.set_header({"Core", "Completed", "Expired", "p99 ms", "Wall s"});
  rt_table.add_row({"async, 4 executors", std::to_string(rt_completed),
                    std::to_string(rt_out.expired),
                    strf("%.3f", rt_out.latency.quantile(0.99) * 1e3),
                    strf("%.3f", rt_out.wall_seconds)});
  rt_table.add_row({"serial execution", std::to_string(ser_completed),
                    std::to_string(ser_out.expired),
                    strf("%.3f", ser_out.latency.quantile(0.99) * 1e3),
                    strf("%.3f", ser_out.wall_seconds)});
  rt_table.print(std::cout);
  note(strf("completed ratio %.2fx (acceptance: >= 1.5x)", ratio));
  // The bit is the gated acceptance criterion; the raw numbers are wall-
  // clock-dependent and live in gauges.
  scalar("serve_core.rt_speedup_ge1_5", ratio >= 1.5 ? 1 : 0);
  trace::gauge_set("serve_core.rt_completed_async",
                   static_cast<double>(rt_completed));
  trace::gauge_set("serve_core.rt_completed_serial",
                   static_cast<double>(ser_completed));
  trace::gauge_set("serve_core.rt_completed_ratio", ratio);
  trace::gauge_set("serve_core.rt_p99_ms_async",
                   rt_out.latency.quantile(0.99) * 1e3);
  trace::gauge_set("serve_core.rt_p99_ms_serial",
                   ser_out.latency.quantile(0.99) * 1e3);
  trace::gauge_set("serve_core.rt_wall_s_async", rt_out.wall_seconds);
  trace::gauge_set("serve_core.rt_wall_s_serial", ser_out.wall_seconds);
  return match ? 0 : 1;
}
