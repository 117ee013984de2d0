// The serve pipeline that `serve` and `replay` run: request-granularity
// executors on the host's cores, overload shedding, tail-latency
// accounting (p50/p99/p999 per shape class), and the "gemmtune-serve-v1"
// report.
//
// AsyncServer::run is four steps. (1) The infeasibility shed builds an
// admission mask. (2) GemmServer::run — the one discrete-event loop of the
// serving layer — schedules the workload. (3) The completed requests small
// enough to execute are claimed one at a time, in request order, by one
// worker per hardware thread; each runs the real GEMM on the engine of the
// device that served it and checksums the C buffer into its own slot.
// (4) The responses are folded into per-class accounting and latency
// histograms. Execution never feeds back into scheduling, and a checksum
// depends only on (request, engine), so the whole outcome is deterministic
// at any thread and worker count.
//
// Shedding: queue-full rejection is always on (the bounded queue), and
// shed_infeasible additionally rejects at admission any request whose
// deadline cannot be met even by the best device starting immediately —
// refusing work that is already dead costs one estimate lookup and saves a
// queue slot.
//
// The report sets a run beside its unbatched baseline: the same pipeline
// at max_batch 1 with execution off, so both apply the same admission
// shed. Its requests.result_checksum folds the executed C checksums, so
// reports that agree byte for byte agree on the executed results too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "serve/server.hpp"

namespace gemmtune::serve {

/// Configuration of the pipeline, on top of ServeOptions.
struct AsyncOptions {
  /// Also shed requests whose deadline is infeasible at admission.
  bool shed_infeasible = false;
  /// Execute the real generated kernel (and checksum C) for requests whose
  /// largest extent is <= this; 0 disables execution. Keep it modest
  /// (e.g. 64): interpreted GEMM costs real host milliseconds.
  index_t execute_max_n = 0;
  /// Seed mixed with each request id to generate its operand data, so a
  /// re-execution through execute_checksum hashes identical inputs.
  std::uint64_t result_seed = 42;
};

/// Per-shape-class accounting over one run. generated ==
/// completed + shed_queue_full + shed_infeasible + expired at drain.
struct ClassAccounting {
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_infeasible = 0;
  std::int64_t expired = 0;  ///< admitted but dead by dispatch time
  LatencyHistogram latency;  ///< completed requests only (modeled seconds)
};

/// Everything one pipeline run produced.
struct AsyncOutcome {
  ServeOutcome base;  ///< the event loop's responses, batches, device stats
  /// FNV-1a checksum of the result matrix per request slot (parallel to
  /// the request vector); 0 when the request was not executed.
  std::vector<std::uint64_t> result_hash;
  std::map<ShapeClass, ClassAccounting> classes;
  LatencyHistogram latency;  ///< all completed requests
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_infeasible = 0;
  std::int64_t expired = 0;
  std::int64_t executed = 0;  ///< requests run through the real kernel
};

/// Deterministic operand checksum: fills op-shaped A and B from
/// Rng(seed ^ splitmix(id)), runs the engine's real kernel with alpha=1,
/// beta=0, and returns the FNV-1a hash of the C buffer bytes.
std::uint64_t execute_checksum(blas::GemmEngine& engine, const GemmRequest& r,
                               std::uint64_t result_seed);

/// The serve pipeline. Borrows a warmed GemmServer for its event loop,
/// engines and shape-class estimate table; the server must outlive the
/// AsyncServer.
class AsyncServer {
 public:
  AsyncServer(GemmServer& server, AsyncOptions opt);

  const AsyncOptions& options() const { return opt_; }

  /// Serves `requests` (sorted by arrival; ids unique). Deterministic at
  /// any thread count. When executed requests throw, rethrows the error of
  /// the lowest request index.
  AsyncOutcome run(const std::vector<GemmRequest>& requests, int max_batch,
                   int queue_capacity);

 private:
  GemmServer& server_;
  AsyncOptions opt_;
};

/// Builds the "gemmtune-serve-v1" report of one run: `served` is the
/// pipeline's outcome at the workload's max_batch, `baseline` the
/// unbatched (max_batch 1, nothing executed) run of the same requests.
/// The document is a pure function of its inputs (no wall clock), so
/// identical runs produce byte-identical reports; `scalars` is what
/// `gemmtune bench-db compare` and the trajectory gate read.
Json build_report(const WorkloadSpec& spec,
                  const std::vector<GemmRequest>& requests,
                  const AsyncOutcome& served, const ServeOutcome& baseline,
                  const ServeOptions& opt, const AsyncOptions& aopt);

}  // namespace gemmtune::serve
