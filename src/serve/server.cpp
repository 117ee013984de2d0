#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <set>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "trace/trace.hpp"

namespace gemmtune::serve {

using codegen::Precision;

namespace {

/// Where one pending group goes and how much of it.
struct Placement {
  std::size_t device = 0;
  std::size_t limit = 1;  ///< most requests the batch may take (>= 1)
};

/// The dispatch rule for one pending group of `group_size` requests with
/// estimate row `row`, given when each device is free (`free_at`, parallel
/// to the device list; the clock for an idle device) and how many devices
/// are idle this round. The device minimises free_at + overhead + estimate
/// over ALL devices, idle or busy: a group whose preferred device is busy
/// waits for it. The limit shares a large group across the idle devices
/// (ceil(group_size / idle)) and bounds the batch's serial device time
/// (floor(kMaxBatchSeconds / estimate), at least 1).
Placement place(const std::vector<PathEstimate>& row,
                const std::vector<double>& free_at, std::size_t group_size,
                std::size_t idle) {
  Placement p;
  double best_ect = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < free_at.size(); ++d) {
    const double ect = free_at[d] + kDispatchOverheadSeconds + row[d].seconds;
    if (ect < best_ect) {
      best_ect = ect;
      p.device = d;
    }
  }
  const double est = row[p.device].seconds;
  p.limit = (group_size + idle - 1) / idle;
  if (est > 0) {
    const double cap = std::floor(kMaxBatchSeconds / est);
    if (cap < static_cast<double>(p.limit))
      p.limit = static_cast<std::size_t>(std::max(cap, 1.0));
  }
  return p;
}

}  // namespace

GemmServer::GemmServer(std::vector<simcl::DeviceId> devices, ServeOptions opt)
    : devices_(std::move(devices)), opt_(std::move(opt)) {
  check(!devices_.empty(), "GemmServer: need at least one device");
  if (!opt_.tune_strategy.empty()) {
    strategy_ = tuner::strategy::parse_strategy_spec(opt_.tune_strategy);
    check(opt_.tune_candidates > 0,
          "GemmServer: tune_candidates must be > 0");
    search_engines_.reserve(devices_.size());
    for (simcl::DeviceId id : devices_)
      search_engines_.push_back(std::make_unique<tuner::SearchEngine>(id));
  }
}

GemmServer::~GemmServer() {
  blas::GemmEngine::settle_native_builds(engines_);
}

WarmupInfo GemmServer::warmup() {
  trace::Span span("serve.warmup");
  WarmupInfo info;
  tuner::TunedDatabase db;
  if (!opt_.cache_path.empty()) {
    if (std::ifstream probe(opt_.cache_path); probe.good()) {
      probe.close();
      try {
        db = tuner::TunedDatabase::load_file(opt_.cache_path);
      } catch (const Error& e) {
        // A serving process must survive a torn/corrupt cache: start cold
        // and overwrite it below.
        info.cache_ignored = true;
        info.cache_error = e.what();
        db = tuner::TunedDatabase();
      }
    }
  }
  struct Missing {
    simcl::DeviceId id;
    Precision prec;
  };
  std::vector<Missing> missing;
  for (simcl::DeviceId id : devices_) {
    for (Precision prec : {Precision::DP, Precision::SP}) {
      if (db.find(id, prec))
        ++info.loaded;
      else
        missing.push_back({id, prec});
    }
  }
  // Profile the gaps in parallel; TunedDatabase::put is thread-safe and
  // each (device, precision) key is written by exactly one chunk.
  pool_.parallel_for(
      static_cast<std::int64_t>(missing.size()),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i) {
          const Missing& m = missing[static_cast<std::size_t>(i)];
          db.put(m.id, m.prec,
                 tuner::profile_kernel(
                     m.id, codegen::table2_entry(m.id, m.prec).params,
                     kWarmupSweepN));
        }
      });
  info.profiled = missing.size();
  trace::counter_add("serve.warmup_profiled", info.profiled);
  if (!opt_.cache_path.empty() && (info.profiled > 0 || info.cache_ignored))
    db.save_file(opt_.cache_path);
  engines_.clear();
  engines_.reserve(devices_.size());
  for (simcl::DeviceId id : devices_) {
    tuner::TunedDatabase local;
    for (Precision prec : {Precision::DP, Precision::SP})
      local.put(id, prec, *db.find(id, prec));
    engines_.push_back(
        std::make_unique<blas::GemmEngine>(id, std::move(local)));
  }
  warmed_ = true;
  return info;
}

void GemmServer::ensure_estimates(
    const std::vector<GemmRequest>& requests) {
  std::vector<ShapeClass> shapes;
  for (const GemmRequest& r : requests) {
    const ShapeClass s = ShapeClass::of(r);
    if (!estimates_.contains(s)) shapes.push_back(s);
  }
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  if (shapes.empty()) return;
  trace::Span span("serve.precompute");
  try {
    if (strategy_) {
      // Guided warmup: tune a kernel per (device, shape class) with the
      // configured strategy. The outer loop stays serial — each strategy
      // parallelizes its own search internally, and every strategy is
      // bit-reproducible at any thread count, so the table is too.
      for (const ShapeClass& s : shapes) {
        std::vector<PathEstimate> per_dev(devices_.size());
        for (std::size_t d = 0; d < devices_.size(); ++d)
          per_dev[d] = price(d, s);
        estimates_[s] = std::move(per_dev);
      }
      return;
    }
    const std::int64_t nd = static_cast<std::int64_t>(devices_.size());
    const std::int64_t ns = static_cast<std::int64_t>(shapes.size());
    // Device-major flat index; GemmEngine::estimate is safe to call
    // concurrently once warmup populated every (device, precision) entry,
    // and PerfModel is pure, so this table is thread-count invariant.
    const auto flat = parallel_map<PathEstimate>(
        pool_, nd * ns, [&](std::int64_t i) {
          return price(static_cast<std::size_t>(i / ns),
                       shapes[static_cast<std::size_t>(i % ns)]);
        });
    for (std::int64_t si = 0; si < ns; ++si) {
      std::vector<PathEstimate>& per_dev =
          estimates_[shapes[static_cast<std::size_t>(si)]];
      per_dev.resize(static_cast<std::size_t>(nd));
      for (std::int64_t d = 0; d < nd; ++d)
        per_dev[static_cast<std::size_t>(d)] =
            flat[static_cast<std::size_t>(d * ns + si)];
    }
  } catch (const Error&) {
    fail_naming_request(requests);
    throw;
  }
}

PathEstimate GemmServer::price(std::size_t d, const ShapeClass& s) {
  if (strategy_) return class_estimate(d, s);
  const auto prof = engines_[d]->estimate(s.type, s.prec, s.Mc, s.Nc, s.Kc);
  return PathEstimate{prof.total_seconds, prof.used_direct, prof.gflops};
}

void GemmServer::fail_naming_request(
    const std::vector<GemmRequest>& requests) {
  // Pricing is pure, so pricing the classes again, serially and in the
  // order their first requests arrive, fails at the same class at any
  // thread count.
  std::set<ShapeClass> seen;
  for (const GemmRequest& r : requests) {
    const ShapeClass s = ShapeClass::of(r);
    if (!seen.insert(s).second) continue;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      try {
        (void)price(d, s);
      } catch (const Error& e) {
        fail("request " + std::to_string(r.id) + " (" + to_string(r.prec) +
             " " + to_string(r.type) + " " + std::to_string(r.M) + "x" +
             std::to_string(r.N) + "x" + std::to_string(r.K) +
             ") cannot be priced as shape class " + to_string(s) + ": " +
             e.what());
      }
    }
  }
}

const std::vector<PathEstimate>& GemmServer::estimates_for(
    const ShapeClass& s) const {
  const auto it = estimates_.find(s);
  if (it == estimates_.end())
    fail("GemmServer::estimates_for: no estimates for " + to_string(s) +
         " (call ensure_estimates first)");
  return it->second;
}

PathEstimate GemmServer::class_estimate(std::size_t d, const ShapeClass& s) {
  const simcl::DeviceId id = devices_[d];
  const tuner::TunedKernel& t = class_db_.get_or_tune(id, s.prec, s, [&] {
    trace::Span tune_span("serve.class_tune");
    tuner::SearchOptions sopt;
    sopt.enumeration.max_candidates = opt_.tune_candidates;
    sopt.shape = s;
    return tuner::strategy::run_strategy(*search_engines_[d], s.prec, sopt,
                                         *strategy_);
  });
  // Price the class kernel with the same cost model the classic path uses
  // (pack path vs guarded direct), so estimates stay comparable across
  // modes; the strategy can only improve on the Table II seed it includes.
  const tuner::ShapeCost c =
      tuner::shape_cost(engines_[d]->model(), t.params, s.Mc, s.Nc, s.Kc);
  if (!c.ok)
    fail("GemmServer::class_estimate: tuned kernel unusable for " +
         to_string(s));
  return PathEstimate{c.seconds, c.used_direct, c.gflops};
}

double GemmServer::dist_seconds(const GemmRequest& r) {
  const auto key = std::make_tuple(r.type, r.prec, r.M, r.N, r.K);
  const auto it = dist_cache_.find(key);
  if (it != dist_cache_.end()) return it->second;
  if (!dist_) {
    std::vector<blas::GemmEngine*> engines;
    engines.reserve(engines_.size());
    for (const auto& e : engines_) engines.push_back(e.get());
    dist_ = std::make_unique<dist::DistExecutor>(std::move(engines));
  }
  const double s = dist_->estimate_seconds(r.type, r.prec, r.M, r.N, r.K);
  dist_cache_.emplace(key, s);
  return s;
}

bool GemmServer::is_distributed(const GemmRequest& r) const {
  return std::max({r.M, r.N, r.K}) >= kDistThresholdN;
}

ServeOutcome GemmServer::run(const std::vector<GemmRequest>& requests,
                             int max_batch, int queue_capacity,
                             std::span<const char> shed_at_admission) {
  check(warmed_, "GemmServer::run: call warmup() first");
  ensure_estimates(requests);
  trace::Span span("serve.simulate");

  const std::size_t n = requests.size();
  check(shed_at_admission.empty() || shed_at_admission.size() == n,
        "GemmServer::run: the admission shed mask must cover every request");
  std::map<std::int64_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < n; ++i) {
    if (!slot_of.emplace(requests[i].id, i).second)
      fail("GemmServer::run: duplicate request id " +
           std::to_string(requests[i].id));
    check(i == 0 || requests[i - 1].arrival_seconds <=
                        requests[i].arrival_seconds,
          "GemmServer::run: requests must be sorted by arrival time");
  }

  ServeOutcome out;
  out.responses.resize(n);
  out.device_stats.resize(devices_.size());

  struct Running {
    PendingBatch batch;
    double start = 0;
    double finish = 0;
    bool used_direct = false;
    bool distributed = false;
    std::int64_t batch_id = 0;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::optional<Running>> running(devices_.size());
  std::vector<double> free_at(devices_.size());
  BatchQueue queue(max_batch, queue_capacity);
  const auto queue_depth_gauge = [&] {
    trace::gauge_set("serve.queue_depth", static_cast<double>(queue.depth()));
  };
  std::deque<GemmRequest> dist_queue;  // oversized requests, FIFO
  std::size_t next_arrival = 0;
  double last_finish = 0;

  const auto complete = [&](int d) {
    const Running& run = *running[static_cast<std::size_t>(d)];
    for (const GemmRequest& r : run.batch.requests) {
      GemmResponse& resp = out.responses[slot_of.at(r.id)];
      resp.request_id = r.id;
      resp.status = RequestStatus::Completed;
      resp.finish_seconds = run.finish;
      resp.latency_seconds = run.finish - r.arrival_seconds;
      resp.wait_seconds = run.start - r.arrival_seconds;
      resp.device_index = run.distributed ? -1 : d;
      resp.batch_id = run.batch_id;
      resp.batch_size = static_cast<int>(run.batch.requests.size());
      resp.used_direct = run.used_direct;
      out.completed_flops += r.flops();
      trace::counter_add(
          "serve.wait_us",
          static_cast<std::uint64_t>(resp.wait_seconds * 1e6));
    }
    DeviceStats& ds = out.device_stats[static_cast<std::size_t>(d)];
    // A distributed dispatch occupies every device but is one batch; only
    // the device carrying the request record counts it.
    if (!run.batch.requests.empty()) ds.batches += 1;
    ds.requests += static_cast<std::int64_t>(run.batch.requests.size());
    ds.busy_seconds += run.finish - run.start;
    last_finish = std::max(last_finish, run.finish);
    running[static_cast<std::size_t>(d)].reset();
  };

  const auto reject = [&](const GemmRequest& r, RequestStatus status,
                          double when) {
    GemmResponse& resp = out.responses[slot_of.at(r.id)];
    resp.request_id = r.id;
    resp.status = status;
    resp.finish_seconds = when;
    resp.wait_seconds = when - r.arrival_seconds;
    trace::counter_add(status == RequestStatus::RejectedQueueFull
                           ? "serve.rejects_queue_full"
                           : "serve.rejects_deadline",
                       1);
  };

  for (;;) {
    const double t_arrival =
        next_arrival < n ? requests[next_arrival].arrival_seconds : kInf;
    double t_device = kInf;
    for (const auto& r : running)
      if (r) t_device = std::min(t_device, r->finish);
    const double clock = std::min(t_arrival, t_device);
    if (!std::isfinite(clock)) break;  // drained: no arrivals, all idle

    // 1. Completions at `clock`, in device order.
    for (std::size_t d = 0; d < running.size(); ++d)
      if (running[d] && running[d]->finish <= clock)
        complete(static_cast<int>(d));

    // 2. Admissions at `clock` (bounded queue -> backpressure).
    while (next_arrival < n &&
           requests[next_arrival].arrival_seconds <= clock) {
      const std::size_t slot = next_arrival++;
      const GemmRequest& r = requests[slot];
      trace::counter_add("serve.requests", 1);
      if (is_distributed(r)) {
        dist_queue.push_back(r);
        trace::counter_add("serve.distributed_requests", 1);
      } else if (!shed_at_admission.empty() && shed_at_admission[slot]) {
        reject(r, RequestStatus::RejectedDeadline, r.arrival_seconds);
      } else if (!queue.admit(r)) {
        reject(r, RequestStatus::RejectedQueueFull, r.arrival_seconds);
      } else {
        queue_depth_gauge();
      }
    }

    // 3. Dispatch by earliest completion time (GemmServer::place). A group
    //    whose preferred device is busy waits for it: handing its work to
    //    a slower idle device just because it is idle is how a CPU ends up
    //    serialising 2048^3 GEMMs while the fast GPU sits at half load
    //    (the classic list-scheduling anomaly). Cheap shapes always find
    //    an idle device with a competitive completion time, so devices
    //    rarely idle while compatible work queues.
    for (;;) {
      std::size_t idle = 0;
      for (const auto& r : running) idle += r ? 0 : 1;
      if (idle == 0) break;
      // A pending distributed request is a fleet barrier: no new batch is
      // fed while it waits, so the devices drain; once every device is
      // idle the request occupies them all for the modeled tiled-fleet
      // makespan (src/dist), then normal dispatching resumes.
      if (!dist_queue.empty()) {
        if (idle < running.size()) break;
        const GemmRequest r = dist_queue.front();
        dist_queue.pop_front();
        if (r.expired_at(clock)) {
          reject(r, RequestStatus::RejectedDeadline, clock);
          continue;
        }
        trace::Span dist_span("serve.dist_batch");
        const double secs = dist_seconds(r);
        const double finish = clock + kDispatchOverheadSeconds + secs;
        const std::int64_t batch_id =
            static_cast<std::int64_t>(out.batches.size());
        for (std::size_t d = 0; d < running.size(); ++d) {
          Running run;
          run.batch.shape = ShapeClass::of(r);
          if (d == 0) run.batch.requests.push_back(r);
          run.start = clock;
          run.finish = finish;
          run.distributed = true;
          run.batch_id = batch_id;
          running[d] = std::move(run);
        }
        out.batches.push_back({batch_id, -1, ShapeClass::of(r), 1, clock,
                               finish, false, true});
        trace::counter_add("serve.batches", 1);
        trace::counter_add("serve.distributed_batches", 1);
        continue;  // all devices busy now; loop exits via idle == 0
      }
      std::vector<GemmRequest> expired;
      const auto views = queue.group_views(clock, expired);
      queue_depth_gauge();
      for (const GemmRequest& r : expired)
        reject(r, RequestStatus::RejectedDeadline, clock);
      expired.clear();
      for (std::size_t d = 0; d < running.size(); ++d)
        free_at[d] = running[d] ? running[d]->finish : clock;
      bool dispatched = false;
      for (const auto& view : views) {
        const std::vector<PathEstimate>& row = estimates_.at(view.shape);
        const Placement p = place(row, free_at, view.size, idle);
        if (running[p.device])
          continue;  // preferred device busy: this group waits for it
        const PathEstimate& est = row[p.device];
        auto batch = queue.pop_from(view.shape, clock, p.limit, expired);
        queue_depth_gauge();
        for (const GemmRequest& r : expired)
          reject(r, RequestStatus::RejectedDeadline, clock);
        expired.clear();
        if (!batch) continue;
        trace::Span batch_span("serve.batch");
        Running run;
        run.batch = std::move(*batch);
        run.start = clock;
        run.finish = clock + kDispatchOverheadSeconds +
                     est.seconds *
                         static_cast<double>(run.batch.requests.size());
        run.used_direct = est.used_direct;
        run.batch_id = static_cast<std::int64_t>(out.batches.size());
        out.batches.push_back({run.batch_id, static_cast<int>(p.device),
                               run.batch.shape,
                               static_cast<int>(run.batch.requests.size()),
                               run.start, run.finish, run.used_direct});
        trace::counter_add("serve.batches", 1);
        trace::counter_add("serve.batched_requests",
                           run.batch.requests.size());
        running[p.device] = std::move(run);
        dispatched = true;
        break;  // device set changed: recompute views and idle count
      }
      if (!dispatched) break;
    }
  }
  check(queue.empty(), "GemmServer::run: queue drained incompletely");
  check(dist_queue.empty(),
        "GemmServer::run: distributed queue drained incompletely");
  check_answered(requests, out.responses);

  out.peak_queue_depth = queue.peak_depth();
  const double first_arrival = n > 0 ? requests.front().arrival_seconds : 0;
  out.makespan_seconds = last_finish > first_arrival
                             ? last_finish - first_arrival
                             : 0;
  return out;
}

void check_answered(const std::vector<GemmRequest>& requests,
                    const std::vector<GemmResponse>& responses) {
  check(responses.size() == requests.size(),
        "serve: response count differs from the request count");
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (responses[i].request_id != requests[i].id)
      fail("serve: request " + std::to_string(requests[i].id) +
           " was never answered");
}

}  // namespace gemmtune::serve
