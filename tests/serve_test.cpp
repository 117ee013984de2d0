// Serving subsystem tests: workload generator determinism, trace round
// trip and validation, queue batching/backpressure/deadline semantics,
// thread-count invariance of the full report, warm-cache persistence, and
// the batched-vs-unbatched throughput guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "scoped_threads.hpp"
#include "serve/batch_queue.hpp"
#include "serve/core/async_server.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace gemmtune {
namespace {

using codegen::Precision;
using serve::AsyncOptions;
using serve::AsyncServer;
using serve::GemmRequest;
using serve::GemmServer;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::ServeOutcome;
using serve::ShapeClass;
using serve::BatchQueue;
using serve::WorkloadSpec;
using simcl::DeviceId;

GemmRequest small_request(std::int64_t id, double arrival = 0,
                          double deadline = 0, int priority = 0) {
  GemmRequest r;
  r.id = id;
  r.type = GemmType::NN;
  r.prec = Precision::SP;
  r.M = r.N = r.K = 64;
  r.priority = priority;
  r.arrival_seconds = arrival;
  r.deadline_seconds = deadline;
  return r;
}

TEST(ShapeClassTest, QuantizesToTileMultiples) {
  EXPECT_EQ(ShapeClass::quantize(1), 16);
  EXPECT_EQ(ShapeClass::quantize(16), 16);
  EXPECT_EQ(ShapeClass::quantize(17), 32);
  EXPECT_EQ(ShapeClass::quantize(50), 64);
  EXPECT_EQ(ShapeClass::quantize(64), 64);
  // 50^3 and 64^3 SGEMM NN requests share one batch class.
  GemmRequest a = small_request(0);
  GemmRequest b = small_request(1);
  a.M = a.N = a.K = 50;
  EXPECT_EQ(ShapeClass::of(a), ShapeClass::of(b));
}

TEST(WorkloadTest, GeneratorIsDeterministic) {
  WorkloadSpec spec;
  spec.requests = 200;
  spec.seed = 7;
  const auto a = serve::generate_workload(spec);
  const auto b = serve::generate_workload(spec);
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].M, b[i].M);
    EXPECT_EQ(a[i].prec, b[i].prec);
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].deadline_seconds, b[i].deadline_seconds);
  }
  WorkloadSpec other = spec;
  other.seed = 8;
  const auto c = serve::generate_workload(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_diff |= a[i].M != c[i].M || a[i].arrival_seconds !=
                                        c[i].arrival_seconds;
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadTest, ArrivalsSortedAndDeadlinesAfterArrival) {
  WorkloadSpec spec;
  spec.requests = 300;
  const auto reqs = serve::generate_workload(spec);
  for (std::size_t i = 1; i < reqs.size(); ++i)
    EXPECT_LE(reqs[i - 1].arrival_seconds, reqs[i].arrival_seconds);
  for (const auto& r : reqs) {
    EXPECT_GT(r.M, 0);
    EXPECT_GT(r.N, 0);
    EXPECT_GT(r.K, 0);
    if (r.deadline_seconds > 0) {
      EXPECT_GT(r.deadline_seconds, r.arrival_seconds);
    }
  }
}

TEST(WorkloadTest, TraceFileRoundTrip) {
  WorkloadSpec spec;
  spec.requests = 50;
  spec.seed = 11;
  spec.devices = {DeviceId::Tahiti, DeviceId::Kepler};
  spec.max_batch = 8;
  spec.queue_capacity = 64;
  const auto reqs = serve::generate_workload(spec);
  const std::string path = ::testing::TempDir() + "/serve_trace.json";
  serve::save_workload_file(path, spec, reqs);
  const serve::Workload back = serve::load_workload_file(path);
  EXPECT_EQ(back.spec.seed, spec.seed);
  EXPECT_EQ(back.spec.requests, spec.requests);
  EXPECT_EQ(back.spec.max_batch, spec.max_batch);
  EXPECT_EQ(back.spec.queue_capacity, spec.queue_capacity);
  ASSERT_EQ(back.spec.devices.size(), 2u);
  EXPECT_EQ(back.spec.devices[0], DeviceId::Tahiti);
  ASSERT_EQ(back.requests.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(back.requests[i].id, reqs[i].id);
    EXPECT_EQ(back.requests[i].K, reqs[i].K);
    EXPECT_EQ(back.requests[i].arrival_seconds, reqs[i].arrival_seconds);
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, TraceRequestCountMustMatchItsList) {
  WorkloadSpec spec;
  spec.requests = 6;
  Json doc = serve::workload_json(spec, serve::generate_workload(spec));
  doc["spec"]["requests"] = std::int64_t{9999};
  try {
    serve::workload_from_json(doc);
    FAIL() << "expected an error for a trace listing 6 of 9999 requests";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("9999"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lists 6 requests"), std::string::npos) << msg;
  }
}

TEST(WorkloadTest, LoadCorruptTraceNamesThePath) {
  const std::string path = ::testing::TempDir() + "/serve_corrupt.json";
  {
    std::ofstream f(path);
    f << "{ nope";
  }
  try {
    serve::load_workload_file(path);
    FAIL() << "expected Error for corrupt trace";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, SpecParserRoundTrip) {
  const WorkloadSpec spec = serve::parse_spec(
      "requests=123,seed=9,rate=750,max_batch=4,queue=32,"
      "devices=Tahiti+SandyBridge");
  EXPECT_EQ(spec.requests, 123);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.rate_rps, 750.0);
  EXPECT_EQ(spec.max_batch, 4);
  EXPECT_EQ(spec.queue_capacity, 32);
  ASSERT_EQ(spec.devices.size(), 2u);
  EXPECT_EQ(spec.devices[1], DeviceId::SandyBridge);
  EXPECT_THROW(serve::parse_spec("bogus_key=1"), Error);
  EXPECT_THROW(serve::parse_spec("requests=-5"), Error);
  // An int field is range-checked before it is narrowed: 2^32 + 3 must
  // not become 3 requests.
  try {
    serve::parse_spec("requests=4294967299");
    FAIL() << "expected an error for an out-of-range request count";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "workload spec: requests is 4294967299, outside the range "
              "[-2147483648, 2147483647]");
  }
}

TEST(WorkloadTest, SpecParserNamesUnknownKeys) {
  // A typo must fail loudly, naming the offending key and the accepted
  // ones — never silently run with the default it shadowed.
  try {
    serve::parse_spec("requets=10000");
    FAIL() << "expected an error for the unknown key";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'requets'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("requests"), std::string::npos)
        << "error should list the accepted keys: " << msg;
  }
}

// The event loop's queue.
TEST(SchedulerTest, BackpressureAtCapacity) {
  BatchQueue sched(16, 4);
  int admitted = 0;
  for (int i = 0; i < 30; ++i)
    admitted += sched.admit(small_request(i)) ? 1 : 0;
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(sched.depth(), 4u);
  EXPECT_EQ(sched.peak_depth(), 4u);
}

TEST(SchedulerTest, PriorityThenArrivalOrdersGroups) {
  BatchQueue sched(16, 64);
  GemmRequest lo = small_request(0, 0.0, 0, /*priority=*/0);
  GemmRequest hi = small_request(1, 0.5, 0, /*priority=*/2);
  hi.prec = Precision::DP;  // different group
  ASSERT_TRUE(sched.admit(lo));
  ASSERT_TRUE(sched.admit(hi));
  std::vector<GemmRequest> expired;
  const auto views = sched.group_views(1.0, expired);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].head.id, 1) << "high priority first";
  EXPECT_EQ(views[1].head.id, 0);
  EXPECT_TRUE(expired.empty());

  // Ten groups (five extents x two precisions) over three priorities: the
  // order is priority descending, then arrival, then id.
  BatchQueue many(8, 64);
  for (int i = 0; i < 30; ++i) {
    GemmRequest r = small_request(i, /*arrival=*/i * 1e-6);
    r.M = r.N = r.K = 16 * (1 + i % 5);
    r.prec = i % 2 ? Precision::DP : Precision::SP;
    r.priority = i % 3;
    ASSERT_TRUE(many.admit(r));
  }
  const auto order = many.group_views(1.0, expired);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const GemmRequest& a = order[i - 1].head;
    const GemmRequest& b = order[i].head;
    EXPECT_TRUE(a.priority > b.priority ||
                (a.priority == b.priority && a.id < b.id))
        << "priority desc, then arrival/id asc";
  }
  EXPECT_TRUE(expired.empty());
}

TEST(SchedulerTest, PopSkimsExpiredWithoutBatchingThem) {
  BatchQueue sched(16, 64);
  ASSERT_TRUE(sched.admit(small_request(0, 0.0, /*deadline=*/0.5)));
  ASSERT_TRUE(sched.admit(small_request(1, 0.0, /*deadline=*/5.0)));
  ASSERT_TRUE(sched.admit(small_request(2, 0.0, /*deadline=*/0.5)));
  std::vector<GemmRequest> expired;
  const auto batch =
      sched.pop_from(ShapeClass::of(small_request(0)), /*clock=*/1.0, 16,
                     expired);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(batch->requests[0].id, 1);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 0);
  EXPECT_EQ(expired[1].id, 2);
  EXPECT_TRUE(sched.empty());
  // Popped and expired slots are released back to the bound.
  EXPECT_EQ(sched.depth(), 0u);
}

/// Fixture holding one warmed single-device server shared by the
/// simulation tests (warmup profiles two kernels, so share the cost).
class ServeSim : public ::testing::Test {
 protected:
  static GemmServer& tahiti_server() {
    static GemmServer* server = [] {
      auto* s = new GemmServer({DeviceId::Tahiti}, ServeOptions{});
      s->warmup();
      return s;
    }();
    return *server;
  }
};

TEST_F(ServeSim, BatchingCoalescesSameClassRequests) {
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < 8; ++i) reqs.push_back(small_request(i));
  const ServeOutcome batched = tahiti_server().run(reqs, 8, 64);
  // All arrive at t=0 on one idle device: one dispatch serves all eight.
  ASSERT_EQ(batched.batches.size(), 1u);
  EXPECT_EQ(batched.batches[0].size, 8);
  for (const auto& resp : batched.responses) {
    EXPECT_EQ(resp.status, RequestStatus::Completed);
    EXPECT_EQ(resp.batch_size, 8);
  }
  const ServeOutcome unbatched = tahiti_server().run(reqs, 1, 64);
  EXPECT_EQ(unbatched.batches.size(), 8u);
  // One dispatch overhead instead of eight: batching must finish sooner.
  EXPECT_LT(batched.makespan_seconds, unbatched.makespan_seconds);
}

TEST_F(ServeSim, DeadlineExpiryRejectsQueuedRequests) {
  // Six same-class requests at t=0, unbatched on one device. The deadline
  // (20us) is below the dispatch overhead alone (25us), so only the first
  // request — dispatched immediately at t=0 — beats it; every later
  // dispatch happens after the first batch finishes, past the deadline.
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back(small_request(i, 0.0, /*deadline=*/20e-6));
  const ServeOutcome out = tahiti_server().run(reqs, 1, 64);
  int completed = 0, deadline = 0;
  for (const auto& resp : out.responses) {
    completed += resp.status == RequestStatus::Completed ? 1 : 0;
    deadline += resp.status == RequestStatus::RejectedDeadline ? 1 : 0;
  }
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(deadline, 5);
}

TEST_F(ServeSim, QueueFullRejectsOnArrival) {
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < 30; ++i) reqs.push_back(small_request(i));
  const ServeOutcome out = tahiti_server().run(reqs, 1, /*queue=*/4);
  int completed = 0, queue_full = 0;
  for (const auto& resp : out.responses) {
    completed += resp.status == RequestStatus::Completed ? 1 : 0;
    queue_full += resp.status == RequestStatus::RejectedQueueFull ? 1 : 0;
  }
  // All 30 arrive at t=0 and are admitted before any dispatch runs: four
  // fill the queue, the other 26 bounce off it.
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(queue_full, 26);
  EXPECT_EQ(out.peak_queue_depth, 4u);
}

/// Placement properties of the event loop on a fast GPU + slow CPU fleet.
/// Each expected value is derived from the estimate table, not from a
/// second copy of the loop; the ASSERTs pin the scenario each test needs.
class PlacementTest : public ::testing::Test {
 protected:
  static GemmServer& fleet() {
    static GemmServer* server = [] {
      auto* s = new GemmServer({DeviceId::Tahiti, DeviceId::SandyBridge},
                               ServeOptions{});
      s->warmup();
      return s;
    }();
    return *server;
  }

  /// `count` same-class NN requests of extent `n`, all arriving at t = 0.
  static std::vector<GemmRequest> burst(int count, Precision prec,
                                        index_t n) {
    std::vector<GemmRequest> reqs;
    for (int i = 0; i < count; ++i) {
      GemmRequest r = small_request(i);
      r.prec = prec;
      r.M = r.N = r.K = n;
      reqs.push_back(r);
    }
    return reqs;
  }

  /// The per-device estimate row of the burst's shape class.
  static const std::vector<serve::PathEstimate>& row_of(
      const std::vector<GemmRequest>& reqs) {
    fleet().ensure_estimates(reqs);
    return fleet().estimates_for(ShapeClass::of(reqs.front()));
  }

  /// The device every group prefers when the whole fleet is idle: the
  /// smallest estimate, ties to the lower index.
  static std::size_t fastest(const std::vector<serve::PathEstimate>& row) {
    return row[0].seconds <= row[1].seconds ? 0 : 1;
  }
};

TEST_F(PlacementTest, GroupWaitsForItsBusyPreferredDevice) {
  // Two 1024^3 DGEMMs at t = 0: Tahiti takes the first; finishing the
  // second after it on Tahiti still beats starting it now on the idle
  // SandyBridge, so it waits instead of moving to the slower device.
  const auto reqs = burst(2, Precision::DP, 1024);
  const auto& row = row_of(reqs);
  const double o = serve::kDispatchOverheadSeconds;
  ASSERT_EQ(fastest(row), 0u);
  ASSERT_LT(2 * (o + row[0].seconds), o + row[1].seconds);
  const ServeOutcome out = fleet().run(reqs, 16, 64);
  ASSERT_EQ(out.batches.size(), 2u);
  for (const auto& resp : out.responses) {
    EXPECT_EQ(resp.status, RequestStatus::Completed);
    EXPECT_EQ(resp.device_index, 0) << "request " << resp.request_id;
  }
  const double first_finish = o + row[0].seconds;
  EXPECT_DOUBLE_EQ(out.responses[0].finish_seconds, first_finish);
  EXPECT_DOUBLE_EQ(out.responses[1].wait_seconds, first_finish);
  EXPECT_DOUBLE_EQ(out.responses[1].finish_seconds,
                   first_finish + o + row[0].seconds);
  EXPECT_EQ(out.device_stats[1].batches, 0);
}

TEST_F(PlacementTest, GroupSplitsAcrossIdleDevices) {
  // Seven cheap same-class requests on two idle devices: the first batch
  // takes ceil(7 / 2) = 4, leaving the rest to the other device.
  const auto reqs = burst(7, Precision::SP, 64);
  const auto& row = row_of(reqs);
  const std::size_t dev = fastest(row);
  ASSERT_GE(serve::kMaxBatchSeconds / row[dev].seconds, 4.0)
      << "the serial-time cap must not bind here";
  const ServeOutcome out = fleet().run(reqs, 16, 64);
  ASSERT_GE(out.batches.size(), 2u);
  EXPECT_EQ(out.batches[0].device_index, static_cast<int>(dev));
  EXPECT_EQ(out.batches[0].start_seconds, 0.0);
  EXPECT_EQ(out.batches[0].size, 4);
}

TEST_F(PlacementTest, MaxBatchSecondsCapsTheBatch) {
  // Sixteen 512^3 DGEMMs: the spread limit ceil(16 / 2) = 8 would allow
  // more than kMaxBatchSeconds does, so each batch holds at most
  // floor(kMaxBatchSeconds / estimate) requests of its device.
  const auto reqs = burst(16, Precision::DP, 512);
  const auto& row = row_of(reqs);
  const double cap_s = serve::kMaxBatchSeconds;
  const std::size_t dev = fastest(row);
  const double cap = std::floor(cap_s / row[dev].seconds);
  ASSERT_GE(cap, 1.0);
  ASSERT_LT(cap, 8.0) << "the cap must bind before the spread limit";
  const ServeOutcome out = fleet().run(reqs, 16, 64);
  EXPECT_EQ(out.batches[0].device_index, static_cast<int>(dev));
  EXPECT_EQ(out.batches[0].size, static_cast<int>(cap));
  for (const auto& b : out.batches) {
    const double limit = std::max(
        1.0, std::floor(cap_s / row[static_cast<std::size_t>(
                                    b.device_index)].seconds));
    EXPECT_LE(b.size, static_cast<int>(limit)) << "batch " << b.id;
  }
}

TEST(DistRoutingTest, OversizedRequestRunsOnTheWholeFleet) {
  GemmServer server({DeviceId::Tahiti, DeviceId::SandyBridge},
                    ServeOptions{});
  server.warmup();
  // A far deadline, and none at all (<= 0): the oversized request is
  // dispatched after the clock has moved past 0, so a deadline of 0 must
  // not read as already expired.
  for (const double deadline : {1e9, 0.0}) {
    std::vector<GemmRequest> reqs;
    reqs.push_back(small_request(0, 0.0, /*deadline=*/1e9));
    GemmRequest big;
    big.id = 1;
    big.type = GemmType::NN;
    big.prec = Precision::SP;
    big.M = big.N = big.K = serve::kDistThresholdN;
    big.arrival_seconds = 1e-3;
    big.deadline_seconds = deadline;
    reqs.push_back(big);
    const ServeOutcome out = server.run(reqs, 16, 64);
    // The small request batches normally on one device.
    EXPECT_EQ(out.responses[0].status, RequestStatus::Completed);
    EXPECT_GE(out.responses[0].device_index, 0);
    // The oversized one completes on the whole fleet (device -1).
    EXPECT_EQ(out.responses[1].status, RequestStatus::Completed)
        << "deadline " << deadline;
    EXPECT_EQ(out.responses[1].device_index, -1) << "deadline " << deadline;
    int dist_batches = 0;
    for (const auto& b : out.batches)
      if (b.distributed) {
        ++dist_batches;
        EXPECT_EQ(b.device_index, -1);
        EXPECT_EQ(b.size, 1);
      }
    EXPECT_EQ(dist_batches, 1) << "deadline " << deadline;
    // Every device was busy for the distributed window.
    for (const auto& ds : out.device_stats)
      EXPECT_GT(ds.busy_seconds, 0.0) << "deadline " << deadline;
  }
}

/// The report `serve` writes: the pipeline at the workload's max_batch,
/// beside its unbatched baseline that executes nothing.
Json serve_report(GemmServer& server, const WorkloadSpec& spec,
                  const std::vector<GemmRequest>& reqs) {
  const AsyncOptions aopt;
  const serve::AsyncOutcome served = AsyncServer(server, aopt).run(
      reqs, spec.max_batch, spec.queue_capacity);
  const ServeOutcome baseline =
      AsyncServer(server, aopt).run(reqs, 1, spec.queue_capacity).base;
  return serve::build_report(spec, reqs, served, baseline, server.options(),
                             aopt);
}

TEST(ServeReportTest, IdenticalAcrossThreadCountsAndRuns) {
  WorkloadSpec spec;
  spec.requests = 150;
  spec.seed = 3;
  spec.devices = {DeviceId::Tahiti, DeviceId::Kepler, DeviceId::SandyBridge};
  const auto reqs = serve::generate_workload(spec);
  std::vector<std::string> dumps;
  for (const int threads : {1, 4, 1}) {
    const ScopedThreadOverride pin(threads);
    GemmServer server(spec.resolved_devices(), ServeOptions{});
    server.warmup();
    Json report = serve_report(server, spec, reqs);
    report.erase("meta");  // records the thread count by design
    dumps.push_back(report.dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]) << "thread count changed the report";
  EXPECT_EQ(dumps[0], dumps[2]) << "re-run changed the report";
}

TEST(ServeReportTest, BatchedThroughputAtLeastBaseline) {
  // A bursty small-GEMM workload (the regime batching exists for): same
  // class, all queued at once.
  WorkloadSpec spec;
  spec.requests = 64;
  spec.devices = {DeviceId::Tahiti};
  spec.max_batch = 16;
  spec.queue_capacity = 512;
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < spec.requests; ++i) reqs.push_back(small_request(i));
  GemmServer server(spec.resolved_devices(), ServeOptions{});
  server.warmup();
  const Json report = serve_report(server, spec, reqs);
  const Json& s = report.at("scalars");
  EXPECT_EQ(s.at("requests.completed").as_int(), 64);
  EXPECT_EQ(s.at("baseline.requests.completed").as_int(), 64);
  EXPECT_GE(s.at("speedup.throughput").as_number(), 1.0);
  EXPECT_GT(s.at("batches.avg_size").as_number(), 1.0);
  // Percentiles must be ordered.
  EXPECT_LE(s.at("latency_ms.p50").as_number(),
            s.at("latency_ms.p95").as_number());
  EXPECT_LE(s.at("latency_ms.p95").as_number(),
            s.at("latency_ms.p99").as_number());
  EXPECT_LE(s.at("latency_ms.p99").as_number(),
            s.at("latency_ms.max").as_number());
}

TEST(WarmCacheTest, RoundTripThenCorruptionRecovery) {
  const std::string path = ::testing::TempDir() + "/serve_cache.json";
  std::remove(path.c_str());
  ServeOptions opt;
  opt.cache_path = path;
  {
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_EQ(info.loaded, 0u);
    EXPECT_EQ(info.profiled, 2u);  // DGEMM + SGEMM
    EXPECT_FALSE(info.cache_ignored);
  }
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "atomic save must not leave temp files";
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_EQ(info.loaded, 2u);
    EXPECT_EQ(info.profiled, 0u);
  }
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{ corrupt";
  }
  {
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_TRUE(info.cache_ignored);
    EXPECT_NE(info.cache_error.find(path), std::string::npos);
    EXPECT_EQ(info.profiled, 2u);  // re-profiled from scratch
  }
  {
    // The corrupt file was rewritten with good contents.
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_EQ(info.loaded, 2u);
    EXPECT_FALSE(info.cache_ignored);
  }
  std::remove(path.c_str());
}

TEST(ServerGuardsTest, RunBeforeWarmupThrows) {
  GemmServer server({DeviceId::Tahiti}, ServeOptions{});
  std::vector<GemmRequest> reqs{small_request(0)};
  EXPECT_THROW(server.run(reqs, 1, 4), Error);
}

TEST(ServerGuardsTest, DrainCheckCatchesAnUnansweredSlot) {
  // A default response reads as a 0 ms completion; the drain check must
  // reject it instead of letting the accounting count it.
  const std::vector<GemmRequest> reqs{small_request(3), small_request(4)};
  std::vector<serve::GemmResponse> resp(2);
  resp[0].request_id = 3;
  try {
    serve::check_answered(reqs, resp);
    FAIL() << "expected the drain check to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("request 4 was never answered"),
              std::string::npos)
        << e.what();
  }
  resp[1].request_id = 4;
  EXPECT_NO_THROW(serve::check_answered(reqs, resp));
}

TEST(ServerGuardsTest, DuplicateRequestIdsThrow) {
  GemmServer server({DeviceId::Tahiti}, ServeOptions{});
  server.warmup();
  std::vector<GemmRequest> reqs{small_request(5), small_request(5)};
  EXPECT_THROW(server.run(reqs, 1, 4), Error);
}

TEST(ServerGuardsTest, UnpriceableClassNamesItsFirstArrivingRequest) {
  // k = 2^53 + 1 pads to a class whose operands pass int64 bytes. The
  // DGEMM request 7 arrives before the SGEMM request 3, whose class sorts
  // first; a priceable request arrives in between. The refusal names
  // request 7 with its own extents, then its class, at any thread count.
  const index_t k = 9007199254740993;
  GemmRequest d = small_request(7, 0.001);
  d.prec = Precision::DP;
  d.M = d.N = 512;
  d.K = k;
  GemmRequest s = small_request(3, 0.003);
  s.M = s.N = 512;
  s.K = k;
  const std::vector<GemmRequest> reqs{d, small_request(5, 0.002), s};
  for (const int threads : {1, 4}) {
    const ScopedThreadOverride pin(threads);
    GemmServer server({DeviceId::Tahiti}, ServeOptions{});
    server.warmup();
    try {
      server.ensure_estimates(reqs);
      FAIL() << "expected the pricing to fail";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "request 7 (DGEMM NN 512x512x9007199254740993) cannot be "
                    "priced as shape class DGEMM.NN.512x512x9007199254741008: "
                    "problem 512x512x9007199254741008: a padded operand",
                    0),
                0u)
          << threads << " threads: " << e.what();
    }
  }
}

}  // namespace
}  // namespace gemmtune
