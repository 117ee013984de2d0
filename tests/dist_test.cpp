// Distributed GEMM tests: tile-grid fringe math, largest-remainder
// partitioning (sums, degenerate fleets, tie order), thread-count
// invariance of the full report, steal-guard behavior, the spec parser's
// unknown-key rejection, and the mixed-fleet speedup the subsystem exists
// to deliver.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/report_version.hpp"
#include "dist/executor.hpp"
#include "dist/partition.hpp"
#include "scoped_threads.hpp"

namespace gemmtune {
namespace {

using codegen::Precision;
using dist::DistExecutor;
using dist::DistOutcome;
using dist::DistSpec;
using dist::TileGrid;
using simcl::DeviceId;

TEST(TileGridTest, FringeTilesCarryTheRemainder) {
  const TileGrid g(2500, 2048, 1000, 1024, 1024);
  EXPECT_EQ(g.rows, 3);
  EXPECT_EQ(g.cols, 2);
  EXPECT_EQ(g.total(), 6);
  EXPECT_EQ(g.tile_rows(0), 1024);
  EXPECT_EQ(g.tile_rows(2), 452);  // 2500 - 2*1024
  EXPECT_EQ(g.tile_cols(0), 1024);
  EXPECT_EQ(g.tile_cols(1), 1024);  // divides exactly: no fringe column
  // Row-major index round trip.
  EXPECT_EQ(g.row_of(5), 2);
  EXPECT_EQ(g.col_of(5), 1);
}

TEST(TileGridTest, HoldsAtMostMaxTiles) {
  // 1024 rows of 1024 columns is exactly the limit; one row more is over
  // it. The same holds for small tiles on a moderate problem: 8192 in
  // 4 x 4 tiles is a 2048 x 2048 grid.
  const TileGrid at(1024 * 8, 1024 * 8, 8, 8, 8);
  EXPECT_EQ(at.total(), dist::kMaxTiles);
  EXPECT_THROW(TileGrid(1025 * 8, 1024 * 8, 8, 8, 8), Error);
  EXPECT_THROW(TileGrid(1024 * 8, 1024 * 8 + 1, 8, 8, 8), Error);
  try {
    TileGrid(8192, 8192, 8192, 4, 4);
    FAIL() << "expected a 2048 x 2048 grid to be rejected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2048 x 2048 grid"), std::string::npos) << msg;
    EXPECT_NE(msg.find("over the limit of 1048576 tiles"), std::string::npos)
        << msg;
  }
  // Extents near the int64 range neither overflow nor pass the check.
  const index_t huge = std::numeric_limits<index_t>::max();
  EXPECT_THROW(TileGrid(huge, huge, 1, 1, 1), Error);
  EXPECT_THROW(TileGrid(huge, 1, 1, 1, 1), Error);
}

TEST(PartitionTest, SharesSumToTotalAndFollowWeights) {
  const auto shares = dist::proportional_split({3.0, 1.0, 2.0}, 60);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0] + shares[1] + shares[2], 60);
  EXPECT_EQ(shares[0], 30);
  EXPECT_EQ(shares[1], 10);
  EXPECT_EQ(shares[2], 20);
}

TEST(PartitionTest, RemaindersGoToLargestFraction) {
  // Quotas 3.5 / 3.5: one leftover unit, tie on the fractional part —
  // the lower index takes it, deterministically.
  const auto shares = dist::proportional_split({1.0, 1.0}, 7);
  EXPECT_EQ(shares[0], 4);
  EXPECT_EQ(shares[1], 3);
}

TEST(PartitionTest, DegenerateFleets) {
  // One device owns everything.
  EXPECT_EQ(dist::proportional_split({5.0}, 64),
            (std::vector<std::int64_t>{64}));
  // All-equal fleet splits evenly.
  EXPECT_EQ(dist::proportional_split({2.0, 2.0, 2.0, 2.0}, 64),
            (std::vector<std::int64_t>{16, 16, 16, 16}));
  // Unusable weights (zero, negative, non-finite) fall back to the even
  // split with earlier devices taking the extras.
  EXPECT_EQ(dist::proportional_split(
                {0.0, -1.0, std::numeric_limits<double>::infinity()}, 8),
            (std::vector<std::int64_t>{3, 3, 2}));
  // A single zero weight among finite ones gets nothing.
  const auto shares = dist::proportional_split({1.0, 0.0}, 10);
  EXPECT_EQ(shares[0], 10);
  EXPECT_EQ(shares[1], 0);
}

TEST(PartitionTest, StartsAreExclusivePrefixSums) {
  EXPECT_EQ(dist::partition_starts({3, 0, 5}),
            (std::vector<std::int64_t>{0, 3, 3}));
}

TEST(DistSpecTest, ParsesEveryKey) {
  const DistSpec spec = dist::parse_dist_spec(
      "m=4096,n=2048,k=1024,prec=DGEMM,type=NT,tile=512,"
      "devices=Tahiti+SandyBridge");
  EXPECT_EQ(spec.M, 4096);
  EXPECT_EQ(spec.N, 2048);
  EXPECT_EQ(spec.K, 1024);
  EXPECT_EQ(spec.prec, Precision::DP);
  EXPECT_EQ(spec.type, GemmType::NT);
  EXPECT_EQ(spec.tile, 512);
  ASSERT_EQ(spec.devices.size(), 2u);
  EXPECT_EQ(spec.devices[0], DeviceId::Tahiti);
  EXPECT_EQ(spec.devices[1], DeviceId::SandyBridge);
  // size= sets all three extents at once.
  const DistSpec cube = dist::parse_dist_spec("size=8192");
  EXPECT_EQ(cube.M, 8192);
  EXPECT_EQ(cube.N, 8192);
  EXPECT_EQ(cube.K, 8192);
}

TEST(DistSpecTest, RejectsUnknownKeysNamingTheKey) {
  try {
    dist::parse_dist_spec("size=1024,tle=512");
    FAIL() << "expected an error for the unknown key";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'tle'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile"), std::string::npos)
        << "error should list the accepted keys: " << msg;
  }
  EXPECT_THROW(dist::parse_dist_spec("size"), Error);
  EXPECT_THROW(dist::parse_dist_spec("=4"), Error);
  EXPECT_THROW(dist::parse_dist_spec("size=0"), Error);
}

TEST(DistExecutorTest, AutoTileAlignsToTheFleetBlocking) {
  DistExecutor ex({DeviceId::Tahiti, DeviceId::SandyBridge});
  const index_t tile = ex.auto_tile(Precision::SP);
  EXPECT_GE(tile, 1024);
  // Interior tiles must pack without padding on every device.
  for (simcl::DeviceId id : ex.devices()) {
    blas::GemmEngine e(id);
    const auto& p = e.kernel_for(Precision::SP).params;
    EXPECT_EQ(tile % p.Mwg, 0);
    EXPECT_EQ(tile % p.Nwg, 0);
  }
}

TEST(DistExecutorTest, SingleDeviceFleetHasUnitSpeedup) {
  DistExecutor ex({DeviceId::Cayman});
  const DistOutcome o =
      ex.run(GemmType::NN, Precision::SP, 4096, 4096, 4096);
  EXPECT_EQ(o.best_single, 0);
  EXPECT_DOUBLE_EQ(o.speedup, 1.0);
  EXPECT_EQ(o.device_stats[0].executed, o.grid.total());
  EXPECT_EQ(o.device_stats[0].stolen, 0);
}

TEST(DistExecutorTest, EveryTileExecutesExactlyOnce) {
  DistExecutor ex({DeviceId::Cypress, DeviceId::Cayman,
                   DeviceId::SandyBridge});
  const DistOutcome o =
      ex.run(GemmType::NN, Precision::SP, 8192, 8192, 8192);
  ASSERT_EQ(static_cast<std::int64_t>(o.tiles.size()), o.grid.total());
  std::vector<int> seen(static_cast<std::size_t>(o.grid.total()), 0);
  for (const auto& t : o.tiles) seen[static_cast<std::size_t>(t.index)]++;
  for (int c : seen) EXPECT_EQ(c, 1);
  std::int64_t executed = 0, planned = 0;
  for (const auto& ds : o.device_stats) {
    executed += ds.executed;
    planned += ds.planned;
  }
  EXPECT_EQ(executed, o.grid.total());
  EXPECT_EQ(planned, o.grid.total());
}

TEST(DistExecutorTest, TransferNeverOverlapsBadlyAndOrderIsCausal) {
  DistExecutor ex({DeviceId::Tahiti, DeviceId::Fermi});
  const DistOutcome o =
      ex.run(GemmType::NN, Precision::DP, 4096, 4096, 4096);
  for (const auto& t : o.tiles) {
    EXPECT_LE(t.copy_start, t.copy_done);
    EXPECT_LE(t.copy_done, t.compute_start);  // compute waits for its DMA
    EXPECT_LT(t.compute_start, t.compute_done);
    EXPECT_GT(t.bytes, 0);
  }
}

TEST(DistExecutorTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const DistSpec spec = dist::parse_dist_spec(
      "size=8192,prec=SGEMM,devices=Cypress+Cayman+SandyBridge");
  std::vector<std::string> dumps;
  for (int threads : {1, 4}) {
    const ScopedThreadOverride pin(threads);
    DistExecutor ex(spec.resolved_devices());
    const DistOutcome o =
        ex.run(spec.type, spec.prec, spec.M, spec.N, spec.K, spec.tile);
    Json report = dist::build_dist_report(spec, o);
    report.erase("meta");  // records the thread count by design
    dumps.push_back(report.dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(DistExecutorTest, MixedFleetBeatsBestSingleDevice) {
  // The acceptance fleet: two mid GPUs plus a CPU an order of magnitude
  // slower. The tiled fleet must clearly beat the best single device.
  DistExecutor ex({DeviceId::Cypress, DeviceId::Cayman,
                   DeviceId::SandyBridge});
  const DistOutcome o =
      ex.run(GemmType::NN, Precision::SP, 8192, 8192, 8192);
  EXPECT_GT(o.speedup, 1.5);
  EXPECT_GT(o.gflops, 0);
  // The slow CPU must not be the straggler that defines the makespan:
  // its share is proportional to its throughput.
  const auto& cpu = o.device_stats[2];
  EXPECT_LT(cpu.executed, o.device_stats[0].executed);
  EXPECT_LT(cpu.executed, o.device_stats[1].executed);
}

TEST(DistExecutorTest, EstimateMatchesRunMakespan) {
  DistExecutor ex({DeviceId::Tahiti, DeviceId::Cayman});
  const double est =
      ex.estimate_seconds(GemmType::NN, Precision::SP, 8192, 8192, 8192);
  const DistOutcome o =
      ex.run(GemmType::NN, Precision::SP, 8192, 8192, 8192);
  EXPECT_DOUBLE_EQ(est, o.makespan_seconds);
}

TEST(DistReportTest, CarriesSchemaAndPerDeviceTileCounts) {
  const DistSpec spec =
      dist::parse_dist_spec("size=4096,devices=Tahiti+Fermi");
  DistExecutor ex(spec.resolved_devices());
  const DistOutcome o =
      ex.run(spec.type, spec.prec, spec.M, spec.N, spec.K, spec.tile);
  const Json doc = dist::build_dist_report(spec, o);
  EXPECT_EQ(doc.at("schema").as_string(), kDistReportSchema);
  const Json& scalars = doc.at("scalars");
  EXPECT_EQ(scalars.at("tiles.total").as_int(), o.grid.total());
  EXPECT_EQ(scalars.at("tiles.dev.Tahiti").as_int(),
            o.device_stats[0].executed);
  EXPECT_EQ(scalars.at("tiles.dev.Fermi").as_int(),
            o.device_stats[1].executed);
  EXPECT_GT(scalars.at("transfer.seconds").as_number(), 0);
  EXPECT_GT(scalars.at("compute.seconds").as_number(), 0);
  EXPECT_EQ(scalars.at("speedup.vs_best_single").as_number(), o.speedup);
  const Json& per_device = doc.at("per_device");
  EXPECT_TRUE(per_device.contains("Tahiti"));
  EXPECT_TRUE(per_device.contains("Fermi"));
  // Small grid: the per-tile timeline is included.
  EXPECT_TRUE(doc.contains("tiles"));
  EXPECT_EQ(doc.at("tiles").size(),
            static_cast<std::size_t>(o.grid.total()));
}

}  // namespace
}  // namespace gemmtune
