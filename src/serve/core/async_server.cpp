#include "serve/core/async_server.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/report_version.hpp"
#include "common/runmeta.hpp"
#include "common/stats.hpp"
#include "kernelir/interp.hpp"
#include "trace/trace.hpp"

namespace gemmtune::serve {

using codegen::Precision;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t gemm_checksum(blas::GemmEngine& engine, const GemmRequest& r,
                            std::uint64_t seed) {
  Rng rng(seed);
  const bool ta = trans_a(r.type) == Transpose::Yes;
  const bool tb = trans_b(r.type) == Transpose::Yes;
  Matrix<T> A(ta ? r.K : r.M, ta ? r.M : r.K);
  Matrix<T> B(tb ? r.N : r.K, tb ? r.K : r.N);
  Matrix<T> C(r.M, r.N);
  A.fill_random(rng);
  B.fill_random(rng);
  engine.gemm<T>(trans_a(r.type), trans_b(r.type), r.M, r.N, r.K, T(1), A, B,
                 T(0), C);
  return fnv1a(C.data(), C.size() * sizeof(T));
}

/// Whether a request runs through the real kernel: its largest extent is
/// at most `max_n` (0 disables execution).
bool executes(const GemmRequest& r, index_t max_n) {
  return max_n > 0 && std::max({r.M, r.N, r.K}) <= max_n;
}

/// The infeasibility shed's test: even the best device, taking `r` alone
/// on arrival, would finish past its deadline. `row` is r's estimate row.
bool deadline_infeasible(const GemmRequest& r,
                         const std::vector<PathEstimate>& row) {
  if (r.deadline_seconds <= 0) return false;
  double best = kInf;
  for (const PathEstimate& e : row)
    best = std::min(best, kDispatchOverheadSeconds + e.seconds);
  return r.arrival_seconds + best > r.deadline_seconds;
}

/// Turns per-slot responses into the per-class/global shed accounting and
/// latency histograms. Pure post-processing over the response vector.
void finalize_accounting(const std::vector<GemmRequest>& requests,
                         const std::vector<char>& infeasible,
                         AsyncOutcome& out) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const GemmRequest& r = requests[i];
    const GemmResponse& resp = out.base.responses[i];
    ClassAccounting& c = out.classes[ShapeClass::of(r)];
    ++c.generated;
    switch (resp.status) {
      case RequestStatus::Completed:
        ++c.completed;
        c.latency.record(resp.latency_seconds);
        out.latency.record(resp.latency_seconds);
        break;
      case RequestStatus::RejectedQueueFull:
        ++c.shed_queue_full;
        ++out.shed_queue_full;
        break;
      case RequestStatus::RejectedDeadline:
        if (!infeasible.empty() && infeasible[i]) {
          ++c.shed_infeasible;
          ++out.shed_infeasible;
        } else {
          ++c.expired;
          ++out.expired;
        }
        break;
    }
  }
}

/// Flattens one outcome into the report's scalar map under `prefix`
/// (requests.*, batches.*, latency_ms.*, queue.*, sim.*, throughput.*).
void outcome_scalars(Json& scalars, const std::string& prefix,
                     const std::vector<GemmRequest>& requests,
                     const ServeOutcome& o) {
  std::int64_t completed = 0, queue_full = 0, deadline = 0;
  std::vector<double> latencies_ms;
  for (const GemmResponse& r : o.responses) {
    switch (r.status) {
      case RequestStatus::Completed:
        ++completed;
        latencies_ms.push_back(r.latency_seconds * 1e3);
        break;
      case RequestStatus::RejectedQueueFull: ++queue_full; break;
      case RequestStatus::RejectedDeadline: ++deadline; break;
    }
  }
  std::int64_t direct_batches = 0;
  std::int64_t dist_batches = 0;
  std::int64_t max_batch_size = 0;
  for (const BatchRecord& b : o.batches) {
    if (b.used_direct) ++direct_batches;
    if (b.distributed) ++dist_batches;
    max_batch_size = std::max(max_batch_size,
                              static_cast<std::int64_t>(b.size));
  }
  scalars[prefix + "requests.total"] =
      static_cast<std::int64_t>(requests.size());
  scalars[prefix + "requests.completed"] = completed;
  scalars[prefix + "requests.rejected_queue_full"] = queue_full;
  scalars[prefix + "requests.rejected_deadline"] = deadline;
  scalars[prefix + "batches.count"] =
      static_cast<std::int64_t>(o.batches.size());
  scalars[prefix + "batches.avg_size"] = finite_or(
      static_cast<double>(completed) /
          static_cast<double>(o.batches.size()),
      0.0);
  scalars[prefix + "batches.max_size"] = max_batch_size;
  scalars[prefix + "batches.distributed"] = dist_batches;
  scalars[prefix + "batches.direct_fraction"] = finite_or(
      static_cast<double>(direct_batches) /
          static_cast<double>(o.batches.size()),
      0.0);
  scalars[prefix + "latency_ms.mean"] = mean(latencies_ms);
  scalars[prefix + "latency_ms.p50"] = percentile(latencies_ms, 0.50);
  scalars[prefix + "latency_ms.p95"] = percentile(latencies_ms, 0.95);
  scalars[prefix + "latency_ms.p99"] = percentile(latencies_ms, 0.99);
  scalars[prefix + "latency_ms.p999"] = percentile(latencies_ms, 0.999);
  scalars[prefix + "latency_ms.max"] =
      latencies_ms.empty()
          ? 0.0
          : *std::max_element(latencies_ms.begin(), latencies_ms.end());
  scalars[prefix + "queue.peak_depth"] =
      static_cast<std::int64_t>(o.peak_queue_depth);
  scalars[prefix + "sim.makespan_seconds"] = o.makespan_seconds;
  scalars[prefix + "throughput.gflops"] =
      safe_gflops(o.completed_flops, o.makespan_seconds);
}

}  // namespace

std::uint64_t execute_checksum(blas::GemmEngine& engine, const GemmRequest& r,
                               std::uint64_t result_seed) {
  const std::uint64_t seed =
      result_seed ^ splitmix(static_cast<std::uint64_t>(r.id));
  return r.prec == Precision::SP ? gemm_checksum<float>(engine, r, seed)
                                 : gemm_checksum<double>(engine, r, seed);
}

AsyncServer::AsyncServer(GemmServer& server, AsyncOptions opt)
    : server_(server), opt_(opt) {
  check(server_.warmed(), "AsyncServer: server must be warmed first");
}

AsyncOutcome AsyncServer::run(const std::vector<GemmRequest>& requests,
                              int max_batch, int queue_capacity) {
  trace::Span span("servecore.virtual");
  const std::size_t n = requests.size();

  // 1. The infeasibility shed as a mask the loop applies at admission,
  //    after its distributed test — so the mask marks exactly the requests
  //    the loop sheds, and the accounting can tell them from expiries.
  std::vector<char> infeasible;
  if (opt_.shed_infeasible) {
    server_.ensure_estimates(requests);
    infeasible.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const GemmRequest& r = requests[i];
      infeasible[i] =
          !server_.is_distributed(r) &&
          deadline_infeasible(r, server_.estimates_for(ShapeClass::of(r)));
    }
  }

  // 2. Schedule.
  AsyncOutcome out;
  out.base = server_.run(requests, max_batch, queue_capacity, infeasible);

  // 3. Execute: one worker per hardware thread claims the executable
  //    requests one at a time, in request order, and runs each on the
  //    engine of the device that served it. The schedule is final, so
  //    execution cannot change any decision, and each hash depends only
  //    on (request, engine), so it is the same for any worker count.
  out.result_hash.assign(n, 0);
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < n; ++i) {
    const GemmResponse& resp = out.base.responses[i];
    if (resp.status == RequestStatus::Completed && resp.device_index >= 0 &&
        executes(requests[i], opt_.execute_max_n))
      slots.push_back(i);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> failure(slots.size());
  const auto work = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= slots.size()) return;
      const std::size_t i = slots[k];
      try {
        blas::GemmEngine& engine = *server_.engines()[static_cast<
            std::size_t>(out.base.responses[i].device_index)];
        out.result_hash[i] =
            execute_checksum(engine, requests[i], opt_.result_seed);
      } catch (...) {
        failure[k] = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), slots.size());
  std::vector<std::thread> helpers;
  for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
  work();  // the calling thread is the first worker
  for (auto& t : helpers) t.join();
  // The lowest failing request, whatever the worker count.
  for (const std::exception_ptr& e : failure)
    if (e) std::rethrow_exception(e);
  out.executed = static_cast<std::int64_t>(slots.size());

  // 4. Account.
  finalize_accounting(requests, infeasible, out);
  return out;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

Json build_report(const WorkloadSpec& spec,
                  const std::vector<GemmRequest>& requests,
                  const AsyncOutcome& served, const ServeOutcome& baseline,
                  const ServeOptions& opt, const AsyncOptions& aopt) {
  Json doc = Json::object();
  doc["schema"] = kServeReportSchema;
  doc["meta"] = run_meta_json(
      ir::to_string(ir::resolve_backend(ir::Backend::Auto)),
      configured_threads());
  // The workload block mirrors the trace's spec object, so a report from
  // `serve` and one from `replay` of the saved trace are byte-identical.
  Json wl = Json::object();
  wl["seed"] = static_cast<std::int64_t>(spec.seed);
  wl["requests"] = spec.requests;
  wl["rate_rps"] = spec.rate_rps;
  wl["arrival"] = to_string(spec.arrival);
  Json devs = Json::array();
  for (simcl::DeviceId id : spec.resolved_devices())
    devs.push_back(simcl::to_string(id));
  wl["devices"] = std::move(devs);
  wl["max_batch"] = spec.max_batch;
  wl["queue_capacity"] = spec.queue_capacity;
  doc["workload"] = std::move(wl);

  Json options = Json::object();
  options["dispatch_overhead_us"] = kDispatchOverheadSeconds * 1e6;
  options["max_batch_ms"] = kMaxBatchSeconds * 1e3;
  options["warmup_sweep_n"] = kWarmupSweepN;
  options["dist_threshold_n"] = kDistThresholdN;
  options["tune_strategy"] =
      opt.tune_strategy.empty() ? "table2" : opt.tune_strategy;
  doc["options"] = std::move(options);

  Json core = Json::object();
  core["shed_infeasible"] = aopt.shed_infeasible;
  core["execute_max_n"] = aopt.execute_max_n;
  doc["core"] = std::move(core);

  Json scalars = Json::object();
  outcome_scalars(scalars, "", requests, served.base);
  outcome_scalars(scalars, "baseline.", requests, baseline);
  scalars["speedup.throughput"] = finite_or(
      scalars.at("throughput.gflops").as_number() /
          scalars.at("baseline.throughput.gflops").as_number(),
      1.0);
  scalars["speedup.makespan"] = finite_or(
      baseline.makespan_seconds / served.base.makespan_seconds, 1.0);
  // Under overload the two runs reject different requests, which makes a
  // raw GFlop/s comparison misleading; completed-count speedup shows how
  // much more of the offered work batching actually served.
  scalars["speedup.completed"] = finite_or(
      scalars.at("requests.completed").as_number() /
          scalars.at("baseline.requests.completed").as_number(),
      1.0);
  scalars["shed.queue_full"] = served.shed_queue_full;
  scalars["shed.infeasible"] = served.shed_infeasible;
  scalars["shed.expired"] = served.expired;
  scalars["requests.executed"] = served.executed;
  // The executed results themselves: FNV-1a over the per-request C
  // checksums in request order (0 where nothing ran), top 32 bits so the
  // value is exact as a JSON number. Reports that agree on it agree on
  // every executed C buffer.
  scalars["requests.result_checksum"] = static_cast<std::int64_t>(
      fnv1a(served.result_hash.data(),
            served.result_hash.size() * sizeof(std::uint64_t)) >>
      32);
  scalars["hist.p50_ms"] = served.latency.quantile(0.50) * 1e3;
  scalars["hist.p99_ms"] = served.latency.quantile(0.99) * 1e3;
  scalars["hist.p999_ms"] = served.latency.quantile(0.999) * 1e3;
  for (const auto& [shape, acct] : served.classes) {
    const std::string key = "class." + to_string(shape) + ".";
    scalars[key + "completed"] = acct.completed;
    scalars[key + "p50_ms"] = acct.latency.quantile(0.50) * 1e3;
    scalars[key + "p99_ms"] = acct.latency.quantile(0.99) * 1e3;
    scalars[key + "p999_ms"] = acct.latency.quantile(0.999) * 1e3;
  }
  doc["scalars"] = std::move(scalars);

  Json per_device = Json::object();
  const auto devices = spec.resolved_devices();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const DeviceStats ds = d < served.base.device_stats.size()
                               ? served.base.device_stats[d]
                               : DeviceStats{};
    Json j = Json::object();
    j["batches"] = ds.batches;
    j["requests"] = ds.requests;
    j["busy_seconds"] = ds.busy_seconds;
    j["utilization"] = finite_or(
        ds.busy_seconds / served.base.makespan_seconds, 0.0);
    per_device[simcl::to_string(devices[d])] = std::move(j);
  }
  doc["per_device"] = std::move(per_device);

  Json per_class = Json::object();
  for (const auto& [shape, acct] : served.classes) {
    Json j = Json::object();
    j["generated"] = acct.generated;
    j["completed"] = acct.completed;
    j["shed_queue_full"] = acct.shed_queue_full;
    j["shed_infeasible"] = acct.shed_infeasible;
    j["expired"] = acct.expired;
    j["latency"] = acct.latency.summary_json();
    per_class[to_string(shape)] = std::move(j);
  }
  doc["per_class"] = std::move(per_class);
  return doc;
}

}  // namespace gemmtune::serve
