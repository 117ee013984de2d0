// The GEMM serving engine: warm cache, shape-aware scheduling across
// several simulated devices, and the shape-class estimate table the
// scheduler places batches by.
//
// Lifecycle:
//  1. warmup() — loads the persistent tuned-kernel cache (if configured),
//     profiles whatever device x precision entries are missing on the
//     worker pool, saves the cache back atomically, and builds one
//     GemmEngine per device. Cold-start tuning therefore never blocks a
//     request: no traffic is admitted before warmup returns.
//  2. run() — a deterministic discrete-event simulation of the service,
//     and the serving layer's one event loop. The serve pipeline
//     (AsyncServer in src/serve/core, which also builds the
//     "gemmtune-serve-v1" report) runs it as its scheduling step, then
//     executes the schedule it produced. Per-batch costs come from a
//     shape-class estimate table that is precomputed in parallel
//     (PerfModel is a pure function, so thread count cannot change any
//     value in it); the event loop itself is serial, so the same workload
//     yields the bit-identical outcome at any --threads /
//     GEMMTUNE_THREADS setting.
//
// Batch cost model: one dispatch pays a fixed enqueue overhead (the
// OpenCL-era kernel-launch cost) plus the per-request time of the batch's
// shape class on the chosen device — the PerfModel-backed choice between
// the pack path and the paper Section V copy-free direct path. Coalescing
// B same-class requests into one dispatch amortizes the overhead B-fold,
// which is exactly where the batched service beats the one-request-at-a-
// time baseline.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "common/thread_pool.hpp"
#include "dist/executor.hpp"
#include "serve/batch_queue.hpp"
#include "serve/workload.hpp"
#include "tuner/strategy/strategy.hpp"

namespace gemmtune::serve {

/// Per-dispatch enqueue overhead (seconds of simulated device time).
inline constexpr double kDispatchOverheadSeconds = 25e-6;
/// Cap on one batch's serial device time: a batch of B requests holds its
/// device for B * estimate seconds, so B is limited to
/// kMaxBatchSeconds / estimate. Cheap shapes (where the dispatch overhead
/// actually matters) batch up to max_batch; an expensive GEMM dispatches
/// alone, keeping load balancing as fine-grained as the unbatched
/// baseline.
inline constexpr double kMaxBatchSeconds = 2e-3;
/// Stage-2 sweep ceiling for warmup profiling of missing cache entries
/// (smaller than the tuner's 8192: serving needs the kernel parameters,
/// not the full paper curve).
inline constexpr std::int64_t kWarmupSweepN = 2048;

/// Problem-size threshold for the distributed path: a request whose
/// largest extent reaches this value bypasses batching and runs as a
/// tile-partitioned GEMM across the whole fleet (src/dist). Such a request
/// acts as a fleet barrier — no new batch is fed while it waits, so the
/// devices drain and then all execute it together. It sits above the
/// generated workload's largest shape (2048), so distribution only
/// triggers for explicitly oversized requests.
inline constexpr index_t kDistThresholdN = 4096;

/// Service configuration beyond what the workload spec carries. Warmup
/// and the estimate precompute run on the process-wide thread count
/// (--threads / GEMMTUNE_THREADS / hardware), like the tuner.
struct ServeOptions {
  /// Persistent warm-cache path (TunedDatabase JSON). Empty: in-memory
  /// only. A corrupt cache file is ignored (and rewritten), not fatal.
  std::string cache_path;
  /// Input-aware warmup: a --strategy spec (e.g. "model_topk,budget=64").
  /// When set, the estimate table is built from kernels tuned per observed
  /// shape class by the budgeted strategy instead of the size-agnostic
  /// Table II warmup kernel. Empty keeps the classic behavior.
  std::string tune_strategy;
  /// Enumeration budget for each per-class strategy tune (the candidate
  /// space the strategy searches within). Only used with tune_strategy.
  int tune_candidates = 1500;
};

/// What warmup did (surfaced by the CLI).
struct WarmupInfo {
  std::size_t loaded = 0;    ///< entries taken from the cache file
  std::size_t profiled = 0;  ///< entries profiled this run
  bool cache_ignored = false;  ///< cache file existed but was corrupt
  std::string cache_error;     ///< why it was ignored
};

/// One dispatched batch, in simulated time.
struct BatchRecord {
  std::int64_t id = 0;
  int device_index = 0;  ///< -1 for a distributed (whole-fleet) dispatch
  ShapeClass shape;
  int size = 0;
  double start_seconds = 0;
  double finish_seconds = 0;
  bool used_direct = false;
  bool distributed = false;  ///< ran tiled across every device (src/dist)
};

/// Per-device aggregates over one run.
struct DeviceStats {
  std::int64_t batches = 0;
  std::int64_t requests = 0;
  double busy_seconds = 0;
};

/// Everything one simulated run produced.
struct ServeOutcome {
  std::vector<GemmResponse> responses;  ///< parallel to the request vector
  std::vector<BatchRecord> batches;
  std::vector<DeviceStats> device_stats;  ///< parallel to the device list
  std::size_t peak_queue_depth = 0;
  double makespan_seconds = 0;  ///< first arrival -> last completion
  double completed_flops = 0;
};

/// Modeled cost of serving one request of a shape class on one device:
/// the PerfModel-backed choice between the pack path and the copy-free
/// direct path. The event loop places and times batches from these
/// numbers.
struct PathEstimate {
  double seconds = 0;       ///< per-request service time
  bool used_direct = false;
  double gflops = 0;
};

class GemmServer {
 public:
  GemmServer(std::vector<simcl::DeviceId> devices, ServeOptions opt);
  /// Settles every engine's native builds at once (see
  /// blas::GemmEngine::settle_native_builds()) before destroying them.
  ~GemmServer();
  GemmServer(const GemmServer&) = delete;
  GemmServer& operator=(const GemmServer&) = delete;

  const std::vector<simcl::DeviceId>& devices() const { return devices_; }
  const ServeOptions& options() const { return opt_; }
  bool warmed() const { return warmed_; }

  /// Prepares tuned kernels for every device x {DGEMM, SGEMM} before any
  /// traffic is admitted. Must be called once before run().
  WarmupInfo warmup();

  /// Serves `requests` (sorted by arrival; ids unique) with batches of up
  /// to `max_batch` and a bounded queue of `queue_capacity`. Deterministic
  /// for fixed inputs at any thread count. max_batch == 1 is the
  /// unbatched one-request-at-a-time baseline. `shed_at_admission`, when
  /// non-empty, is parallel to `requests`: a marked request that is not
  /// distributed is rejected on arrival as RejectedDeadline (the serve
  /// pipeline's infeasibility shed).
  ServeOutcome run(const std::vector<GemmRequest>& requests, int max_batch,
                   int queue_capacity,
                   std::span<const char> shed_at_admission = {});

  /// True when `r` bypasses batching and runs tiled across the whole
  /// fleet (largest extent >= kDistThresholdN).
  bool is_distributed(const GemmRequest& r) const;

  /// Fills the estimate table for every shape class in `requests` on every
  /// device (parallel; pure, so thread-count invariant). When a class
  /// cannot be priced, throws naming the first arriving request of the
  /// first such class (its id, precision, type and own extents), the
  /// class, and the pricing error.
  void ensure_estimates(const std::vector<GemmRequest>& requests);

  /// The estimate row (index parallel to devices()) for one shape class;
  /// throws if ensure_estimates has not covered it.
  const std::vector<PathEstimate>& estimates_for(const ShapeClass& s) const;

  /// The whole estimate table: shape class -> row parallel to devices().
  const std::map<ShapeClass, std::vector<PathEstimate>>& estimates() const {
    return estimates_;
  }

  /// Warmed per-device engines (parallel to devices()); valid after
  /// warmup(). GemmEngine::gemm/estimate are safe to call concurrently.
  const std::vector<std::unique_ptr<blas::GemmEngine>>& engines() const {
    return engines_;
  }

  /// Modeled fleet makespan of one distributed request (memoized; builds
  /// the executor over the warmed engines on first use).
  double dist_seconds(const GemmRequest& r);

  /// Distinct per-shape-class kernels tuned so far (guided mode only).
  std::size_t class_kernels() const { return class_db_.size(); }

 private:
  /// One device x shape-class estimate via the guided strategy: tunes a
  /// kernel for the class (memoized in class_db_) and prices it with
  /// shape_cost, the same cost model the classic path uses.
  PathEstimate class_estimate(std::size_t d, const ShapeClass& s);

  /// One device x shape-class estimate on the configured path: the
  /// guided strategy's class_estimate, or the device engine's estimate.
  PathEstimate price(std::size_t d, const ShapeClass& s);

  /// After a pricing failure: throws naming the first request, in
  /// `requests` order, whose class fails to price, or returns when none
  /// fails again.
  void fail_naming_request(const std::vector<GemmRequest>& requests);

  std::vector<simcl::DeviceId> devices_;
  ServeOptions opt_;
  /// Parsed opt_.tune_strategy (parsed eagerly so a bad spec fails at
  /// construction, not mid-warmup); empty = classic warmup.
  std::optional<tuner::strategy::StrategySpec> strategy_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<blas::GemmEngine>> engines_;
  /// Per-shape-class tuned kernels (guided mode); get_or_tune dedupes
  /// concurrent tunes of the same class.
  tuner::TunedDatabase class_db_;
  /// One SearchEngine per device (guided mode, built lazily): its
  /// candidate-space memo makes the enumeration walk a once-per-device
  /// cost instead of once per shape class.
  std::vector<std::unique_ptr<tuner::SearchEngine>> search_engines_;
  /// shape class -> per-device estimate (index parallel to devices_).
  std::map<ShapeClass, std::vector<PathEstimate>> estimates_;
  std::unique_ptr<dist::DistExecutor> dist_;
  std::map<std::tuple<GemmType, codegen::Precision, index_t, index_t,
                      index_t>,
           double>
      dist_cache_;
  bool warmed_ = false;
};

/// Drain check: throws unless every response slot carries its request's
/// id. A slot no code path answered keeps the default (request_id -1,
/// status Completed) and would count as a 0 ms completion.
void check_answered(const std::vector<GemmRequest>& requests,
                    const std::vector<GemmResponse>& responses);

}  // namespace gemmtune::serve
