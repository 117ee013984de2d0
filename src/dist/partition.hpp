// Tile partitioning for distributed GEMM (SUMMA-style 2D decomposition).
//
// One large C <- alpha*op(A)*op(B) + beta*C is cut into a 2D grid of
// (tile_m x tile_n) output tiles, each carrying the full K extent: tile
// (i, j) needs the i-th row panel of op(A), the j-th column panel of
// op(B), and its own C block — so a device that computes several tiles of
// one grid row re-uses the A panel it already holds, and the executor's
// panel cache rewards contiguous (row-major) tile runs.
//
// The static partitioner splits the grid proportionally to each device's
// demonstrated throughput (largest-remainder apportionment: shares sum to
// the grid exactly, deterministically), and assigns each device one
// contiguous row-major run of tiles. Imbalance left over — fringe tiles,
// model error, panel-cache effects — is absorbed at run time by the
// executor's deterministic work stealing, not by re-planning.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/intmath.hpp"
#include "layout/matrix.hpp"

namespace gemmtune::dist {

/// Most tiles one grid may hold. DistExecutor::simulate keeps a queue slot
/// and a TileRecord per tile, 64 bytes together (executor.cpp asserts
/// it), so this caps one simulated pass at 64 MiB. At the default tile
/// edge of about 1024 it admits square problems up to about 10^6 a side;
/// a smaller explicit tile edge lowers that bound (8192 in 4 x 4 tiles is
/// over it).
inline constexpr std::int64_t kMaxTiles = std::int64_t{1} << 20;

/// The 2D output-tile grid of one distributed GEMM. Interior tiles are
/// tile_m x tile_n; the last row/column carries the fringe.
struct TileGrid {
  index_t M = 0, N = 0, K = 0;
  index_t tile_m = 0, tile_n = 0;
  index_t rows = 0, cols = 0;

  TileGrid() = default;
  /// Throws for an empty problem or tile, and for a grid of more than
  /// kMaxTiles tiles — before anything is allocated per tile.
  TileGrid(index_t M_, index_t N_, index_t K_, index_t tm, index_t tn);

  std::int64_t total() const { return rows * cols; }
  index_t row_of(std::int64_t t) const { return t / cols; }
  index_t col_of(std::int64_t t) const { return t % cols; }

  /// Extents of tile (r, c): interior tiles are full-size, the last
  /// row/column holds the remainder.
  index_t tile_rows(index_t r) const {
    return r + 1 < rows ? tile_m : M - r * tile_m;
  }
  index_t tile_cols(index_t c) const {
    return c + 1 < cols ? tile_n : N - c * tile_n;
  }
};

/// Largest-remainder (Hamilton) apportionment of `total` indivisible units
/// over `weights`: shares are proportional to weight, sum to `total`
/// exactly, and are a pure function of the inputs (remainder ties break
/// toward the lower index). Non-positive and non-finite weights count as
/// zero; if every weight is zero the split is as even as possible.
std::vector<std::int64_t> proportional_split(
    const std::vector<double>& weights, std::int64_t total);

/// Contiguous row-major tile ranges from a split: device d owns tiles
/// [starts[d], starts[d] + shares[d]). starts.size() == shares.size().
std::vector<std::int64_t> partition_starts(
    const std::vector<std::int64_t>& shares);

}  // namespace gemmtune::dist
