// Serve pipeline tests: latency histogram invariants, arrival-process
// modes of the workload generator, and AsyncServer — it must be the event
// loop plus execution (identical outcomes, checksums equal to a
// re-execution on the test thread, bit-identical across thread counts),
// with the accounting invariant (completed + shed + expired == generated)
// holding under overload and the report's views of one run agreeing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/histogram.hpp"
#include "scoped_threads.hpp"
#include "serve/core/async_server.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace gemmtune {
namespace {

using codegen::Precision;
using serve::Arrival;
using serve::AsyncOptions;
using serve::AsyncOutcome;
using serve::AsyncServer;
using serve::GemmRequest;
using serve::GemmServer;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::ServeOutcome;
using serve::ShapeClass;
using serve::WorkloadSpec;
using simcl::DeviceId;

// --- Latency histogram -------------------------------------------------

TEST(HistogramTest, BucketBoundsRoundTrip) {
  // Every sample must land in a bucket whose upper bound is >= the sample
  // and within the layout's relative-error bound (1/kSubBuckets).
  for (double s : {1e-9, 7e-9, 9e-9, 1e-6, 3.3e-6, 25e-6, 1e-3, 0.5, 7.0,
                   123.0}) {
    const std::size_t b = LatencyHistogram::bucket_of(s);
    const double upper = LatencyHistogram::bucket_upper_seconds(b);
    EXPECT_GE(upper * (1 + 1e-12), s) << "s=" << s;
    EXPECT_LE(upper, s * (1.0 + 1.0 / LatencyHistogram::kSubBuckets) +
                         2e-9)
        << "s=" << s;
    if (b > 0) {
      // A sample on a bucket boundary may sit exactly at the previous
      // bucket's upper bound; it must never sit below it.
      EXPECT_LE(LatencyHistogram::bucket_upper_seconds(b - 1), s);
    }
  }
}

TEST(HistogramTest, QuantilesAreConservativeAndClamped) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0.0);
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 100e-3);
  // Nearest-rank p50 covers the 50th sample; conservative means >=.
  EXPECT_GE(h.quantile(0.50), 50e-3);
  EXPECT_LE(h.quantile(0.50), 50e-3 * 1.2);
  // The extreme quantile is clamped to the true maximum, never beyond.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100e-3);
  EXPECT_LE(h.quantile(0.999), 100e-3);
}

TEST(HistogramTest, MergeEqualsCombinedRecordAnyOrder) {
  std::vector<double> samples;
  std::uint64_t state = 12345;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    samples.push_back(1e-9 * static_cast<double>(state % 1000000000ULL));
  }
  LatencyHistogram whole;
  for (double s : samples) whole.record(s);
  // Split across three "executors" in a different order, then merge.
  LatencyHistogram a, b, c;
  for (std::size_t i = samples.size(); i-- > 0;)
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(samples[i]);
  LatencyHistogram merged;
  merged.merge(b);
  merged.merge(a);
  merged.merge(c);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.max_seconds(), whole.max_seconds());
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
  const Json j = whole.summary_json();
  EXPECT_EQ(j.at("count").as_int(), 500);
  EXPECT_GT(j.at("p99_ms").as_number(), j.at("p50_ms").as_number() * 0.99);
}

// --- Shape class helpers -----------------------------------------------

TEST(ShapeClassTest, ToString) {
  GemmRequest r;
  r.prec = Precision::SP;
  r.M = r.N = r.K = 64;
  EXPECT_EQ(to_string(ShapeClass::of(r)), "SGEMM.NN.64x64x64");
}

// --- Arrival processes -------------------------------------------------

TEST(ArrivalTest, PoissonIsTheLegacyDefaultStream) {
  WorkloadSpec legacy;
  legacy.requests = 100;
  legacy.seed = 7;
  WorkloadSpec explicit_poisson = legacy;
  explicit_poisson.arrival = Arrival::Poisson;
  const auto a = serve::generate_workload(legacy);
  const auto b = serve::generate_workload(explicit_poisson);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].M, b[i].M);
  }
}

TEST(ArrivalTest, UniformSpacingAndBurstClusters) {
  WorkloadSpec spec;
  spec.requests = 96;
  spec.seed = 3;
  spec.rate_rps = 1000;
  spec.arrival = Arrival::Uniform;
  const auto uni = serve::generate_workload(spec);
  for (std::size_t i = 1; i < uni.size(); ++i)
    EXPECT_NEAR(uni[i].arrival_seconds - uni[i - 1].arrival_seconds, 1e-3,
                1e-9);
  spec.arrival = Arrival::Burst;
  const auto burst = serve::generate_workload(spec);
  // Within a burst the arrival time is flat; it jumps between bursts.
  int jumps = 0;
  for (std::size_t i = 1; i < burst.size(); ++i) {
    const double gap =
        burst[i].arrival_seconds - burst[i - 1].arrival_seconds;
    EXPECT_GE(gap, 0.0);
    jumps += gap > 0 ? 1 : 0;
  }
  // The first burst is offset from t=0, and the remaining boundaries show
  // up as inter-arrival jumps (96 requests = 3 bursts -> 2 internal gaps).
  EXPECT_GT(burst[0].arrival_seconds, 0.0);
  EXPECT_EQ(jumps, 96 / serve::kBurstSize - 1);
}

TEST(ArrivalTest, RequestMixtureIsArrivalModeInvariant) {
  // Changing only the arrival process must not perturb which GEMMs are
  // generated — each mode consumes exactly one interarrival draw.
  WorkloadSpec spec;
  spec.requests = 80;
  spec.seed = 11;
  const auto poisson = serve::generate_workload(spec);
  spec.arrival = Arrival::Burst;
  const auto burst = serve::generate_workload(spec);
  ASSERT_EQ(poisson.size(), burst.size());
  for (std::size_t i = 0; i < poisson.size(); ++i) {
    EXPECT_EQ(poisson[i].M, burst[i].M);
    EXPECT_EQ(poisson[i].N, burst[i].N);
    EXPECT_EQ(poisson[i].K, burst[i].K);
    EXPECT_EQ(poisson[i].prec, burst[i].prec);
    EXPECT_EQ(poisson[i].type, burst[i].type);
    EXPECT_EQ(poisson[i].priority, burst[i].priority);
  }
}

TEST(ArrivalTest, SpecKeyParsesAndRejectsUnknownValues) {
  EXPECT_EQ(serve::parse_spec("arrival=uniform").arrival, Arrival::Uniform);
  EXPECT_EQ(serve::parse_spec("arrival=burst,rate=500").arrival,
            Arrival::Burst);
  try {
    serve::parse_spec("arrival=gaussian");
    FAIL() << "expected an error for the unknown arrival value";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'gaussian'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("poisson"), std::string::npos)
        << "error should list the accepted values: " << msg;
  }
}

TEST(ArrivalTest, TraceRoundTripAndBackCompat) {
  WorkloadSpec spec;
  spec.requests = 10;
  spec.arrival = Arrival::Burst;
  const auto reqs = serve::generate_workload(spec);
  const Json doc = serve::workload_json(spec, reqs);
  EXPECT_EQ(doc.at("spec").at("arrival").as_string(), "burst");
  EXPECT_EQ(serve::workload_from_json(doc).spec.arrival, Arrival::Burst);
  // A trace written before the arrival key existed loads as Poisson.
  Json old = Json::object();
  old["schema"] = doc.at("schema").as_string();
  Json sp = Json::object();
  for (const auto& [key, value] : doc.at("spec").items())
    if (key != "arrival") sp[key] = value;
  old["spec"] = std::move(sp);
  old["requests"] = doc.at("requests");
  EXPECT_EQ(serve::workload_from_json(old).spec.arrival, Arrival::Poisson);
}

// --- The pipeline over the event loop ------------------------------------

/// One warmed two-device server shared by the core tests (warmup profiles
/// four kernels; share the cost across tests).
class ServeCoreSim : public ::testing::Test {
 protected:
  static GemmServer& fleet_server() {
    static GemmServer* server = [] {
      auto* s = new GemmServer({DeviceId::Tahiti, DeviceId::SandyBridge},
                               ServeOptions{});
      s->warmup();
      return s;
    }();
    return *server;
  }

  static std::vector<GemmRequest> workload(int requests, double rate,
                                           std::uint64_t seed = 7) {
    WorkloadSpec spec;
    spec.requests = requests;
    spec.seed = seed;
    spec.rate_rps = rate;
    spec.devices = {DeviceId::Tahiti, DeviceId::SandyBridge};
    return serve::generate_workload(spec);
  }
};

TEST_F(ServeCoreSim, RunIsTheLoopPlusExecution) {
  const auto reqs = workload(150, 20000);
  AsyncOptions aopt;
  aopt.execute_max_n = 64;
  AsyncServer async(fleet_server(), aopt);
  const AsyncOutcome out = async.run(reqs, /*max_batch=*/8,
                                     /*queue_capacity=*/64);
  const ServeOutcome loop = fleet_server().run(reqs, 8, 64);

  // 1. The schedule is the event loop's, field by field.
  ASSERT_EQ(out.base.responses.size(), loop.responses.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const serve::GemmResponse& a = out.base.responses[i];
    const serve::GemmResponse& b = loop.responses[i];
    EXPECT_EQ(a.request_id, b.request_id) << i;
    EXPECT_EQ(a.status, b.status) << i;
    EXPECT_EQ(a.finish_seconds, b.finish_seconds) << i;
    EXPECT_EQ(a.latency_seconds, b.latency_seconds) << i;
    EXPECT_EQ(a.wait_seconds, b.wait_seconds) << i;
    EXPECT_EQ(a.device_index, b.device_index) << i;
    EXPECT_EQ(a.batch_id, b.batch_id) << i;
    EXPECT_EQ(a.batch_size, b.batch_size) << i;
    EXPECT_EQ(a.used_direct, b.used_direct) << i;
  }
  ASSERT_EQ(out.base.batches.size(), loop.batches.size());
  for (std::size_t i = 0; i < loop.batches.size(); ++i) {
    const serve::BatchRecord& a = out.base.batches[i];
    const serve::BatchRecord& b = loop.batches[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.device_index, b.device_index) << a.id;
    EXPECT_EQ(a.shape, b.shape) << a.id;
    EXPECT_EQ(a.size, b.size) << a.id;
    EXPECT_EQ(a.start_seconds, b.start_seconds) << a.id;
    EXPECT_EQ(a.finish_seconds, b.finish_seconds) << a.id;
    EXPECT_EQ(a.used_direct, b.used_direct) << a.id;
    EXPECT_EQ(a.distributed, b.distributed) << a.id;
  }
  ASSERT_EQ(out.base.device_stats.size(), loop.device_stats.size());
  for (std::size_t d = 0; d < loop.device_stats.size(); ++d) {
    EXPECT_EQ(out.base.device_stats[d].batches, loop.device_stats[d].batches);
    EXPECT_EQ(out.base.device_stats[d].requests,
              loop.device_stats[d].requests);
    EXPECT_EQ(out.base.device_stats[d].busy_seconds,
              loop.device_stats[d].busy_seconds);
  }
  EXPECT_EQ(out.base.peak_queue_depth, loop.peak_queue_depth);
  EXPECT_EQ(out.base.makespan_seconds, loop.makespan_seconds);
  EXPECT_EQ(out.base.completed_flops, loop.completed_flops);

  // 2. Every executed checksum is the serving device's GEMM, re-run here.
  std::int64_t compared = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GemmRequest& r = reqs[i];
    const serve::GemmResponse& resp = loop.responses[i];
    const bool runs = resp.status == RequestStatus::Completed &&
                      resp.device_index >= 0 &&
                      std::max({r.M, r.N, r.K}) <= aopt.execute_max_n;
    if (!runs) {
      EXPECT_EQ(out.result_hash[i], 0u) << "request " << r.id;
      continue;
    }
    EXPECT_EQ(out.result_hash[i],
              serve::execute_checksum(
                  *fleet_server().engines()[static_cast<std::size_t>(
                      resp.device_index)],
                  r, aopt.result_seed))
        << "request " << r.id;
    ++compared;
  }
  EXPECT_GT(compared, 0);
  EXPECT_EQ(out.executed, compared);
}

TEST_F(ServeCoreSim, ChecksumsAreThreadCountInvariant) {
  // The functional GEMM path must produce bit-identical C buffers no
  // matter how many worker threads a launch is configured with; engine
  // launches follow the process-wide thread count.
  const auto reqs = workload(60, 50000, /*seed=*/13);
  std::vector<std::uint64_t> baseline;
  for (int threads : {1, 8}) {
    const ScopedThreadOverride pin(threads);
    GemmServer server({DeviceId::Tahiti, DeviceId::SandyBridge},
                      ServeOptions{});
    server.warmup();
    AsyncOptions aopt;
    aopt.execute_max_n = 64;
    AsyncServer async(server, aopt);
    const AsyncOutcome out = async.run(reqs, 8, 64);
    ASSERT_EQ(out.result_hash.size(), reqs.size());
    EXPECT_GT(out.executed, 0);
    if (baseline.empty())
      baseline = out.result_hash;
    else
      EXPECT_EQ(out.result_hash, baseline) << "threads=" << threads;
  }
}

TEST_F(ServeCoreSim, AccountingInvariantHoldsUnderOverload) {
  // Saturating rate + tiny queue forces queue-full shedding; infeasible
  // shedding is armed too. Every generated request must land in exactly
  // one bucket per class.
  const auto reqs = workload(200, 500000, /*seed=*/5);
  AsyncOptions aopt;
  aopt.shed_infeasible = true;
  AsyncServer async(fleet_server(), aopt);
  const AsyncOutcome out = async.run(reqs, /*max_batch=*/4,
                                     /*queue_capacity=*/8);
  std::int64_t generated = 0, completed = 0;
  for (const auto& [shape, c] : out.classes) {
    EXPECT_EQ(c.generated,
              c.completed + c.shed_queue_full + c.shed_infeasible +
                  c.expired)
        << to_string(shape);
    EXPECT_EQ(static_cast<std::uint64_t>(c.completed), c.latency.count())
        << to_string(shape);
    generated += c.generated;
    completed += c.completed;
  }
  EXPECT_EQ(generated, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(completed + out.shed_queue_full + out.shed_infeasible +
                out.expired,
            generated);
  EXPECT_GT(out.shed_queue_full, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(completed), out.latency.count());
}

TEST_F(ServeCoreSim, ReportViewsAgreeUnderOverload) {
  // Overload (saturating rate, tiny queue) plus a 0.5 ms SLO with the
  // infeasibility shed armed, run the way `serve` runs it: the pipeline,
  // then the unbatched baseline that sheds alike and executes nothing.
  WorkloadSpec spec;
  spec.requests = 200;
  spec.seed = 5;
  spec.rate_rps = 500000;
  spec.max_batch = 4;
  spec.queue_capacity = 8;
  spec.devices = {DeviceId::Tahiti, DeviceId::SandyBridge};
  auto reqs = serve::generate_workload(spec);
  for (GemmRequest& r : reqs) r.deadline_seconds = r.arrival_seconds + 5e-4;
  AsyncOptions aopt;
  aopt.shed_infeasible = true;
  aopt.execute_max_n = 64;
  const AsyncOutcome out = AsyncServer(fleet_server(), aopt)
                               .run(reqs, spec.max_batch, spec.queue_capacity);
  AsyncOptions base_opt = aopt;
  base_opt.execute_max_n = 0;
  const ServeOutcome baseline = AsyncServer(fleet_server(), base_opt)
                                    .run(reqs, 1, spec.queue_capacity)
                                    .base;
  const Json doc = serve::build_report(spec, reqs, out, baseline,
                                       fleet_server().options(), aopt);
  // The core block carries these two options and nothing else.
  std::vector<std::string> core_keys;
  for (const auto& [key, value] : doc.at("core").items())
    core_keys.push_back(key);
  EXPECT_EQ(core_keys,
            (std::vector<std::string>{"execute_max_n", "shed_infeasible"}));
  EXPECT_FALSE(doc.at("workload").contains("core"));
  EXPECT_TRUE(doc.contains("per_device"));
  EXPECT_TRUE(doc.contains("per_class"));
  EXPECT_EQ(doc.at("options").at("tune_strategy").as_string(), "table2");
  const Json& sc = doc.at("scalars");
  const auto n = [&](const std::string& key) {
    return sc.at(key).as_int();
  };
  EXPECT_GT(n("shed.queue_full"), 0);
  EXPECT_GT(n("shed.infeasible"), 0);
  EXPECT_LE(sc.at("hist.p50_ms").as_number(), sc.at("hist.p99_ms").as_number());
  EXPECT_LE(sc.at("hist.p99_ms").as_number(),
            sc.at("hist.p999_ms").as_number());

  // The per-class accounting (finalize_accounting) and the response
  // counts (outcome_scalars) are two independent folds of one run.
  EXPECT_EQ(n("shed.queue_full"), n("requests.rejected_queue_full"));
  EXPECT_EQ(n("shed.infeasible") + n("shed.expired"),
            n("requests.rejected_deadline"));
  // Every shape class carries its completed count and its three ordered
  // tail percentiles.
  std::int64_t class_completed = 0, classes = 0;
  for (const auto& [key, value] : sc.items()) {
    if (!key.starts_with("class.") || !key.ends_with(".completed")) continue;
    ++classes;
    class_completed += value.as_int();
    const std::string cls = key.substr(0, key.size() - 9);  // "completed"
    for (const char* q : {"p50_ms", "p99_ms", "p999_ms"})
      ASSERT_TRUE(sc.contains(cls + q)) << cls + q;
    EXPECT_LE(sc.at(cls + "p50_ms").as_number(),
              sc.at(cls + "p99_ms").as_number())
        << cls;
    EXPECT_LE(sc.at(cls + "p99_ms").as_number(),
              sc.at(cls + "p999_ms").as_number())
        << cls;
  }
  EXPECT_EQ(classes, static_cast<std::int64_t>(out.classes.size()));
  EXPECT_EQ(class_completed, n("requests.completed"));
  std::int64_t executable = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GemmRequest& r = reqs[i];
    const serve::GemmResponse& resp = out.base.responses[i];
    if (resp.status == RequestStatus::Completed && resp.device_index >= 0 &&
        std::max({r.M, r.N, r.K}) <= aopt.execute_max_n)
      ++executable;
  }
  EXPECT_GT(executable, 0);
  EXPECT_EQ(n("requests.executed"), executable);
  // The result checksum follows the executed C buffers: one changed
  // buffer changes it.
  AsyncOutcome altered = out;
  for (std::uint64_t& h : altered.result_hash)
    if (h != 0) {
      h ^= 1;
      break;
    }
  EXPECT_NE(serve::build_report(spec, reqs, altered, baseline,
                                fleet_server().options(), aopt)
                .at("scalars")
                .at("requests.result_checksum")
                .as_int(),
            n("requests.result_checksum"));
  EXPECT_EQ(n("baseline.requests.total"), n("requests.total"));

  // A request shed as infeasible is refused at admission in the baseline
  // too. Infeasible here is recomputed from the estimate table: even the
  // best device, taking the request alone on arrival, misses the deadline.
  std::int64_t infeasible = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GemmRequest& r = reqs[i];
    if (fleet_server().is_distributed(r)) continue;
    double best = 1e300;
    for (const serve::PathEstimate& e :
         fleet_server().estimates_for(ShapeClass::of(r)))
      best = std::min(best, serve::kDispatchOverheadSeconds + e.seconds);
    if (r.arrival_seconds + best <= r.deadline_seconds) continue;
    ++infeasible;
    EXPECT_EQ(out.base.responses[i].status, RequestStatus::RejectedDeadline)
        << "request " << r.id;
    EXPECT_EQ(baseline.responses[i].status, RequestStatus::RejectedDeadline)
        << "request " << r.id;
  }
  EXPECT_EQ(infeasible, n("shed.infeasible"));
}

}  // namespace
}  // namespace gemmtune
