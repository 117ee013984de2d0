// Distributed multi-device GEMM: one C <- alpha*op(A)*op(B) + beta*C
// executed as a 2D tile grid across the whole simulated fleet.
//
// Execution model (all simulated time, no wall clock anywhere):
//  * SUMMA-style decomposition: the output is cut into tile_m x tile_n
//    tiles carrying the full K extent (partition.hpp). The default tile
//    edge is 1024 rounded up to the LCM of every device's tuned Mwg/Nwg,
//    so interior tiles pack without padding waste on any device; per-tile
//    padded transfer sizes come from the same layout/ packing math the
//    kernels use.
//  * Static partition: tiles are apportioned proportionally to each
//    device's tuned throughput on an interior tile (largest-remainder
//    split, contiguous row-major runs to maximize panel reuse).
//  * Transfer/compute overlap: each device has one copy engine and one
//    compute engine. A tile's panels (A row panel + B column panel, each
//    cached once fetched, plus the C block down and up) ship as one DMA
//    paying the DeviceSpec transfer model (fixed latency + bytes/bandwidth).
//    With double-buffered tile staging, the copy of tile t may start as
//    soon as tile t-2's compute finished, so steady-state tile time is
//    max(transfer, compute), not their sum.
//  * Deterministic work stealing: when a device's own queue drains it
//    steals one tile from the tail of the longest remaining queue (ties to
//    the lowest device index) — but only when it would finish the tile
//    before the victim would even reach it; a device that cannot beat the
//    victim parks, so a slow device never becomes the straggler by
//    stealing in the endgame. The event loop is serial and orders pulls
//    by (ready time, device index); worker threads only precompute the
//    pure per-tile estimate table, so the outcome — and the
//    "gemmtune-dist-v1" report — is byte-identical at any --threads value.
//
// The speedup baseline runs the same tiled pipeline on each device alone
// (same grid, same transfer model, full panel reuse) and takes the best.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "dist/partition.hpp"

namespace gemmtune::dist {

/// Everything naming one distributed GEMM run (the `gemmtune dist` spec).
struct DistSpec {
  index_t M = 8192, N = 8192, K = 8192;
  codegen::Precision prec = codegen::Precision::SP;
  GemmType type = GemmType::NN;
  std::vector<simcl::DeviceId> devices;  ///< empty -> evaluation set
  index_t tile = 0;                      ///< 0 -> auto (LCM-aligned ~1024)

  std::vector<simcl::DeviceId> resolved_devices() const;
};

/// Parses a "key=value,key=value" dist spec. Keys: m, n, k, size (sets
/// m=n=k), prec (DGEMM|SGEMM), type (NN|NT|TN|TT), devices ('+'-separated
/// code names), tile. Unknown keys are rejected with an error naming the
/// key.
DistSpec parse_dist_spec(const std::string& text);

/// One executed tile, in simulated time.
struct TileRecord {
  std::int64_t index = 0;  ///< row-major tile index in the grid
  int device = -1;         ///< index into the executor's device list
  bool stolen = false;     ///< pulled from another device's queue
  double copy_start = 0, copy_done = 0;
  double compute_start = 0, compute_done = 0;
  std::int64_t bytes = 0;  ///< host<->device bytes this tile moved
};

/// Per-device aggregates over one distributed run.
struct DeviceTileStats {
  std::int64_t planned = 0;   ///< tiles from the static partition
  std::int64_t executed = 0;  ///< tiles actually computed
  std::int64_t stolen = 0;    ///< executed tiles taken from another queue
  double compute_seconds = 0;
  double transfer_seconds = 0;
  double finish_seconds = 0;  ///< when this device went idle for good
  std::int64_t bytes = 0;
  std::int64_t a_panel_fetches = 0, b_panel_fetches = 0;
};

/// Everything one distributed run produced.
struct DistOutcome {
  TileGrid grid;
  std::vector<TileRecord> tiles;             ///< in execution (pull) order
  std::vector<DeviceTileStats> device_stats; ///< parallel to device list
  double makespan_seconds = 0;
  double gflops = 0;
  /// The same tiled pipeline on each device alone (parallel to the device
  /// list), and the best of them — the speedup denominator's identity.
  std::vector<double> single_seconds;
  int best_single = -1;
  double best_single_seconds = 0;
  double speedup = 0;  ///< best_single_seconds / makespan_seconds
};

/// Distributed GEMM executor bound to a fleet of simulated devices.
class DistExecutor {
 public:
  explicit DistExecutor(std::vector<simcl::DeviceId> devices);
  /// Reuses engines owned by the caller (the serving layer's warmed
  /// engines); `engines` must outlive the executor.
  explicit DistExecutor(std::vector<blas::GemmEngine*> engines);

  const std::vector<simcl::DeviceId>& devices() const { return devices_; }

  /// The fleet tile edge for `prec`: 1024 rounded up to the LCM of every
  /// device's tuned Mwg and Nwg.
  index_t auto_tile(codegen::Precision prec);

  /// Runs the full distributed simulation (tile == 0 picks auto_tile).
  DistOutcome run(GemmType type, codegen::Precision prec, index_t M,
                  index_t N, index_t K, index_t tile = 0);

  /// Fleet makespan only — what the serving layer's router needs to price
  /// a distributed dispatch. Pure function of the inputs.
  double estimate_seconds(GemmType type, codegen::Precision prec, index_t M,
                          index_t N, index_t K);

 private:
  struct TileEstimate {
    double seconds = 0;  ///< per-tile device time (pack + kernel)
    index_t Mp = 0, Np = 0, Kp = 0;  ///< padded extents on this device
  };
  struct SimResult {
    std::vector<TileRecord> tiles;
    std::vector<DeviceTileStats> stats;  ///< parallel to `participants`
    double makespan = 0;
  };

  /// Per-device estimates for every distinct tile shape in the grid
  /// (interior/right/bottom/corner), device-major; pure, so the parallel
  /// precompute is thread-count invariant.
  std::map<std::pair<index_t, index_t>, std::vector<TileEstimate>>
  tile_estimates(const TileGrid& grid, GemmType type,
                 codegen::Precision prec);

  /// Serial discrete-event simulation over `participants` (indices into
  /// the device list) with `shares[i]` contiguous row-major tiles queued
  /// on participants[i].
  SimResult simulate(
      const TileGrid& grid, codegen::Precision prec,
      const std::map<std::pair<index_t, index_t>,
                     std::vector<TileEstimate>>& est,
      const std::vector<int>& participants,
      const std::vector<std::int64_t>& shares) const;

  std::vector<simcl::DeviceId> devices_;
  ThreadPool pool_;  ///< the process-wide thread count at construction
  std::vector<std::unique_ptr<blas::GemmEngine>> owned_;
  std::vector<blas::GemmEngine*> engines_;  ///< parallel to devices_
};

/// Builds the "gemmtune-dist-v1" report: per-device tile counts, transfer
/// vs compute seconds, speedup vs the best single device. A pure function
/// of its inputs — identical runs produce byte-identical documents; the
/// `scalars` section follows the convention tools/compare_bench.py gates.
Json build_dist_report(const DistSpec& spec, const DistOutcome& o);

}  // namespace gemmtune::dist
