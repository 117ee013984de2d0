#include "dist/executor.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/report_version.hpp"
#include "common/runmeta.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/interp.hpp"
#include "layout/packing.hpp"
#include "simcl/device_registry.hpp"
#include "trace/trace.hpp"

namespace gemmtune::dist {

using codegen::Precision;

namespace {

Precision parse_precision(const std::string& s) {
  if (s == to_string(Precision::DP)) return Precision::DP;
  if (s == to_string(Precision::SP)) return Precision::SP;
  fail("dist spec: unknown precision '" + s + "' (use DGEMM or SGEMM)");
}

GemmType parse_type(const std::string& s) {
  for (GemmType t : all_gemm_types())
    if (s == to_string(t)) return t;
  fail("dist spec: unknown GEMM type '" + s + "' (use NN, NT, TN or TT)");
}

index_t parse_extent(const std::string& key, const std::string& value) {
  std::int64_t n = 0;
  try {
    std::size_t used = 0;
    n = std::stoll(value, &used);
    check(used == value.size(),
          "dist spec: " + key + " expects an integer, got '" + value + "'");
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    fail("dist spec: " + key + " expects an integer, got '" + value + "'");
  }
  check(n > 0, "dist spec: " + key + " must be > 0");
  return n;
}

}  // namespace

std::vector<simcl::DeviceId> DistSpec::resolved_devices() const {
  return devices.empty() ? simcl::evaluation_devices() : devices;
}

DistSpec parse_dist_spec(const std::string& text) {
  DistSpec spec;
  for (const auto& [key, value] : parse_keyval_spec(text, "dist spec")) {
    if (key == "m") {
      spec.M = parse_extent(key, value);
    } else if (key == "n") {
      spec.N = parse_extent(key, value);
    } else if (key == "k") {
      spec.K = parse_extent(key, value);
    } else if (key == "size") {
      spec.M = spec.N = spec.K = parse_extent(key, value);
    } else if (key == "prec") {
      spec.prec = parse_precision(value);
    } else if (key == "type") {
      spec.type = parse_type(value);
    } else if (key == "tile") {
      spec.tile = parse_extent(key, value);
    } else if (key == "devices") {
      spec.devices.clear();
      std::istringstream ds(value);
      std::string name;
      while (std::getline(ds, name, '+'))
        spec.devices.push_back(simcl::device_by_name(name));
      check(!spec.devices.empty(), "dist spec: devices list is empty");
    } else {
      fail_unknown_key("dist spec", key,
                       {"m", "n", "k", "size", "prec", "type", "devices",
                        "tile"});
    }
  }
  return spec;
}

DistExecutor::DistExecutor(std::vector<simcl::DeviceId> devices)
    : devices_(std::move(devices)) {
  check(!devices_.empty(), "DistExecutor: need at least one device");
  owned_.reserve(devices_.size());
  for (simcl::DeviceId id : devices_) {
    owned_.push_back(std::make_unique<blas::GemmEngine>(id));
    engines_.push_back(owned_.back().get());
  }
}

DistExecutor::DistExecutor(std::vector<blas::GemmEngine*> engines)
    : engines_(std::move(engines)) {
  check(!engines_.empty(), "DistExecutor: need at least one engine");
  for (const blas::GemmEngine* e : engines_) {
    check(e != nullptr, "DistExecutor: null engine");
    devices_.push_back(e->device_id());
  }
}

index_t DistExecutor::auto_tile(Precision prec) {
  std::int64_t align = 1;
  for (blas::GemmEngine* e : engines_) {
    const codegen::KernelParams& p = e->kernel_for(prec).params;
    align = std::lcm(align, std::lcm<std::int64_t>(p.Mwg, p.Nwg));
  }
  return round_up(1024, align);
}

std::map<std::pair<index_t, index_t>,
         std::vector<DistExecutor::TileEstimate>>
DistExecutor::tile_estimates(const TileGrid& grid, GemmType type,
                             Precision prec) {
  // The grid has at most four distinct tile shapes: interior, right
  // fringe, bottom fringe, corner.
  std::set<std::pair<index_t, index_t>> shape_set;
  for (index_t r : {index_t{0}, grid.rows - 1})
    for (index_t c : {index_t{0}, grid.cols - 1})
      shape_set.insert({grid.tile_rows(r), grid.tile_cols(c)});
  const std::vector<std::pair<index_t, index_t>> shapes(shape_set.begin(),
                                                        shape_set.end());
  // Prewarm each engine's tuned kernel serially (kernel_for seeds its
  // database on first use), then fan the pure estimates out; the result
  // table is thread-count invariant because estimate() is a pure function
  // once the kernels exist.
  for (blas::GemmEngine* e : engines_) e->kernel_for(prec);
  const std::int64_t nd = static_cast<std::int64_t>(engines_.size());
  const std::int64_t ns = static_cast<std::int64_t>(shapes.size());
  const auto flat = parallel_map<TileEstimate>(
      pool_, nd * ns, [&](std::int64_t i) {
        const auto d = static_cast<std::size_t>(i / ns);
        const auto [mt, nt] = shapes[static_cast<std::size_t>(i % ns)];
        const auto prof = engines_[d]->estimate(type, prec, mt, nt, grid.K);
        const codegen::KernelParams& p = engines_[d]->kernel_for(prec).params;
        const PackedExtents ext =
            packed_extents(mt, nt, grid.K, p.Mwg, p.Nwg, p.Kwg);
        return TileEstimate{prof.total_seconds, ext.Mp, ext.Np, ext.Kp};
      });
  std::map<std::pair<index_t, index_t>, std::vector<TileEstimate>> out;
  for (std::int64_t si = 0; si < ns; ++si) {
    std::vector<TileEstimate>& per_dev =
        out[shapes[static_cast<std::size_t>(si)]];
    per_dev.resize(static_cast<std::size_t>(nd));
    for (std::int64_t d = 0; d < nd; ++d)
      per_dev[static_cast<std::size_t>(d)] =
          flat[static_cast<std::size_t>(d * ns + si)];
  }
  // A simulation ships each tile once: at most its C block down and up
  // and one A and one B panel. Bounding that by the costliest tile on any
  // device keeps every per-tile, per-device and report byte sum in int64.
  const std::int64_t es = element_bytes(prec);
  const auto block_bytes = [es](std::int64_t copies, index_t rows,
                                index_t cols, std::int64_t* bytes) {
    return mul_fits(copies * es, rows, bytes) &&
           mul_fits(*bytes, cols, bytes);
  };
  std::int64_t worst = 0;
  bool fits = true;
  for (const TileEstimate& te : flat) {
    std::int64_t c = 0, a = 0, b = 0;
    fits = fits && block_bytes(2, te.Mp, te.Np, &c) &&
           block_bytes(1, te.Kp, te.Mp, &a) &&
           block_bytes(1, te.Kp, te.Np, &b) && add_fits(c, a, &c) &&
           add_fits(c, b, &c);
    worst = std::max(worst, c);
  }
  if (!(fits && mul_fits(worst, grid.total(), &worst)))
    fail(strf("problem %lldx%lldx%lld: the tiles' transfers of %lld-byte "
              "elements are over the limit of %lld bytes",
              static_cast<long long>(grid.M), static_cast<long long>(grid.N),
              static_cast<long long>(grid.K), static_cast<long long>(es),
              static_cast<long long>(std::numeric_limits<index_t>::max())));
  return out;
}

// kMaxTiles (partition.hpp) budgets 64 bytes of simulation state per tile.
static_assert(sizeof(TileRecord) + sizeof(std::int64_t) <= 64);

DistExecutor::SimResult DistExecutor::simulate(
    const TileGrid& grid, Precision prec,
    const std::map<std::pair<index_t, index_t>,
                   std::vector<TileEstimate>>& est,
    const std::vector<int>& participants,
    const std::vector<std::int64_t>& shares) const {
  check(participants.size() == shares.size(),
        "DistExecutor::simulate: participants/shares mismatch");
  const std::size_t np = participants.size();
  const auto es = static_cast<std::int64_t>(element_bytes(prec));

  struct SimDevice {
    std::deque<std::int64_t> queue;
    double copy_free = 0;
    double compute_free = 0;
    /// Compute-finish history; with double-buffered tile staging the copy
    /// of tile t waits for tile t-2's compute (two buffers in flight).
    std::deque<double> in_flight;
    std::set<index_t> a_panels, b_panels;  ///< panels resident on device
    DeviceTileStats stats;
  };
  std::vector<SimDevice> devs(np);
  const auto starts = partition_starts(shares);
  for (std::size_t i = 0; i < np; ++i) {
    devs[i].stats.planned = shares[i];
    for (std::int64_t t = starts[i]; t < starts[i] + shares[i]; ++t)
      devs[i].queue.push_back(t);
  }

  // Per-tile seconds and transfer bytes on a given participant, from the
  // estimate table and the device's current panel caches (peek only).
  const auto tile_seconds = [&](std::size_t i, std::int64_t t) {
    const index_t r = grid.row_of(t);
    const index_t c = grid.col_of(t);
    return est.at({grid.tile_rows(r), grid.tile_cols(c)})[static_cast<
               std::size_t>(participants[i])]
        .seconds;
  };
  const auto tile_bytes = [&](std::size_t i, std::int64_t t) {
    const index_t r = grid.row_of(t);
    const index_t c = grid.col_of(t);
    const TileEstimate& te =
        est.at({grid.tile_rows(r), grid.tile_cols(c)})[static_cast<
            std::size_t>(participants[i])];
    std::int64_t bytes = 2 * es * te.Mp * te.Np;
    if (!devs[i].a_panels.count(r)) bytes += es * te.Kp * te.Mp;
    if (!devs[i].b_panels.count(c)) bytes += es * te.Kp * te.Np;
    return bytes;
  };

  SimResult out;
  std::vector<char> parked(np, 0);  // declined a steal; out of the run
  std::int64_t remaining = grid.total();
  while (remaining > 0) {
    // Next pull: the device whose copy engine (gated by the free tile
    // buffer) is ready first; ties break to the lower participant index.
    std::size_t d = np;
    double best_ready = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < np; ++i) {
      if (parked[i]) continue;
      SimDevice& sd = devs[i];
      const double gate =
          sd.in_flight.size() >= 2 ? sd.in_flight.front() : 0.0;
      const double ready = std::max(sd.copy_free, gate);
      if (ready < best_ready) {
        best_ready = ready;
        d = i;
      }
    }
    if (d == np) break;  // defensive; owners of remaining tiles never park
    SimDevice& sd = devs[d];
    bool stolen = false;
    std::int64_t tile;
    if (!sd.queue.empty()) {
      tile = sd.queue.front();
      sd.queue.pop_front();
    } else {
      // Deterministic steal: one tile off the tail of the longest
      // remaining queue (ties to the lowest index). The tail is the work
      // the victim would reach last, so the thief disturbs the victim's
      // panel locality least.
      std::size_t victim = np;
      std::size_t most = 0;
      for (std::size_t i = 0; i < np; ++i)
        if (devs[i].queue.size() > most) {
          most = devs[i].queue.size();
          victim = i;
        }
      if (victim == np) break;  // defensive; remaining > 0 implies a queue
      tile = devs[victim].queue.back();
      // Steal guard: take the tile only when the thief would finish it
      // before the victim would even reach it — otherwise a slow device
      // stealing in the endgame becomes the straggler that defines the
      // makespan. A device that declines parks for the rest of the run
      // (queues only shrink, so a declined steal never becomes a good one).
      double victim_finish = devs[victim].compute_free;
      for (std::int64_t t : devs[victim].queue)
        victim_finish += tile_seconds(victim, t);
      const double tr_est =
          simcl::device_spec(devices_[static_cast<std::size_t>(
                                 participants[d])])
              .transfer_seconds(static_cast<double>(tile_bytes(d, tile)));
      const double thief_finish =
          std::max(sd.compute_free, best_ready + tr_est) +
          tile_seconds(d, tile);
      if (thief_finish >= victim_finish) {
        parked[d] = 1;
        continue;
      }
      devs[victim].queue.pop_back();
      stolen = true;
    }
    --remaining;

    trace::Span tile_span("dist.tile");
    const index_t r = grid.row_of(tile);
    const index_t c = grid.col_of(tile);
    const TileEstimate& te =
        est.at({grid.tile_rows(r), grid.tile_cols(c)})[static_cast<
            std::size_t>(participants[d])];
    // Bytes this tile ships: the C block down and back up always; the A
    // row panel and B column panel only when not already resident from an
    // earlier tile (SUMMA reuse — contiguous row-major runs mostly re-fetch
    // just one new B panel per tile). Padded extents come from the
    // device's own tuned blocking, i.e. what its pack kernels materialize.
    std::int64_t bytes = 2 * es * te.Mp * te.Np;
    if (sd.a_panels.insert(r).second) {
      bytes += es * te.Kp * te.Mp;
      sd.stats.a_panel_fetches += 1;
      trace::counter_add("dist.panel_fetches", 1);
    }
    if (sd.b_panels.insert(c).second) {
      bytes += es * te.Kp * te.Np;
      sd.stats.b_panel_fetches += 1;
      trace::counter_add("dist.panel_fetches", 1);
    }
    const double tr = simcl::device_spec(devices_[static_cast<std::size_t>(
                                             participants[d])])
                          .transfer_seconds(static_cast<double>(bytes));

    TileRecord rec;
    rec.index = tile;
    rec.device = participants[d];
    rec.stolen = stolen;
    rec.bytes = bytes;
    const double gate = sd.in_flight.size() >= 2 ? sd.in_flight.front() : 0.0;
    if (sd.in_flight.size() >= 2) sd.in_flight.pop_front();
    rec.copy_start = std::max(sd.copy_free, gate);
    rec.copy_done = rec.copy_start + tr;
    sd.copy_free = rec.copy_done;
    rec.compute_start = std::max(sd.compute_free, rec.copy_done);
    rec.compute_done = rec.compute_start + te.seconds;
    sd.compute_free = rec.compute_done;
    sd.in_flight.push_back(rec.compute_done);

    sd.stats.executed += 1;
    if (stolen) {
      sd.stats.stolen += 1;
      trace::counter_add("dist.tiles_stolen", 1);
    }
    sd.stats.compute_seconds += te.seconds;
    sd.stats.transfer_seconds += tr;
    sd.stats.finish_seconds = rec.compute_done;
    sd.stats.bytes += bytes;
    trace::counter_add("dist.tiles", 1);
    trace::counter_add("dist.transfer_bytes",
                       static_cast<std::uint64_t>(bytes));
    out.tiles.push_back(rec);
    out.makespan = std::max(out.makespan, rec.compute_done);
  }
  out.stats.reserve(np);
  for (SimDevice& sd : devs) out.stats.push_back(sd.stats);
  return out;
}

DistOutcome DistExecutor::run(GemmType type, Precision prec, index_t M,
                              index_t N, index_t K, index_t tile) {
  trace::Span span("dist.run");
  if (tile == 0) tile = auto_tile(prec);
  DistOutcome out;
  out.grid = TileGrid(M, N, K, tile, tile);
  const auto est = tile_estimates(out.grid, type, prec);

  // Static shares from each device's tuned interior-tile throughput.
  const std::pair<index_t, index_t> interior{out.grid.tile_rows(0),
                                             out.grid.tile_cols(0)};
  std::vector<double> weights(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    const double s = est.at(interior)[d].seconds;
    weights[d] = s > 0 ? 1.0 / s : 0.0;
  }
  const auto shares = proportional_split(
      weights, out.grid.total());

  std::vector<int> all(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d)
    all[d] = static_cast<int>(d);
  SimResult fleet = simulate(out.grid, prec, est, all, shares);
  out.tiles = std::move(fleet.tiles);
  out.device_stats = std::move(fleet.stats);
  out.makespan_seconds = fleet.makespan;
  const double flops = 2.0 * static_cast<double>(M) *
                       static_cast<double>(N) * static_cast<double>(K);
  out.gflops = safe_gflops(flops, out.makespan_seconds);

  // Speedup baseline: the identical tiled pipeline on each device alone.
  out.single_seconds.resize(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    const SimResult solo = simulate(out.grid, prec, est,
                                    {static_cast<int>(d)},
                                    {out.grid.total()});
    out.single_seconds[d] = solo.makespan;
    if (out.best_single < 0 || solo.makespan < out.best_single_seconds) {
      out.best_single = static_cast<int>(d);
      out.best_single_seconds = solo.makespan;
    }
  }
  out.speedup = finite_or(out.best_single_seconds / out.makespan_seconds,
                          1.0);
  trace::gauge_set("dist.speedup", out.speedup);
  return out;
}

double DistExecutor::estimate_seconds(GemmType type, Precision prec,
                                      index_t M, index_t N, index_t K) {
  const index_t tile = auto_tile(prec);
  const TileGrid grid(M, N, K, tile, tile);
  const auto est = tile_estimates(grid, type, prec);
  const std::pair<index_t, index_t> interior{grid.tile_rows(0),
                                             grid.tile_cols(0)};
  std::vector<double> weights(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    const double s = est.at(interior)[d].seconds;
    weights[d] = s > 0 ? 1.0 / s : 0.0;
  }
  std::vector<int> all(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d)
    all[d] = static_cast<int>(d);
  return simulate(grid, prec, est, all,
                  proportional_split(weights, grid.total()))
      .makespan;
}

Json build_dist_report(const DistSpec& spec, const DistOutcome& o) {
  Json doc = Json::object();
  doc["schema"] = kDistReportSchema;
  doc["meta"] = run_meta_json(
      ir::to_string(ir::resolve_backend(ir::Backend::Auto)),
      configured_threads());

  Json problem = Json::object();
  problem["m"] = o.grid.M;
  problem["n"] = o.grid.N;
  problem["k"] = o.grid.K;
  problem["prec"] = to_string(spec.prec);
  problem["type"] = to_string(spec.type);
  problem["tile_m"] = o.grid.tile_m;
  problem["tile_n"] = o.grid.tile_n;
  problem["grid_rows"] = o.grid.rows;
  problem["grid_cols"] = o.grid.cols;
  Json devs = Json::array();
  for (simcl::DeviceId id : spec.resolved_devices())
    devs.push_back(simcl::to_string(id));
  problem["devices"] = std::move(devs);
  doc["problem"] = std::move(problem);

  const auto devices = spec.resolved_devices();
  double transfer_total = 0, compute_total = 0;
  std::int64_t bytes_total = 0, stolen_total = 0;
  for (const DeviceTileStats& ds : o.device_stats) {
    transfer_total += ds.transfer_seconds;
    compute_total += ds.compute_seconds;
    bytes_total += ds.bytes;
    stolen_total += ds.stolen;
  }

  Json scalars = Json::object();
  scalars["tiles.total"] = o.grid.total();
  scalars["tiles.stolen"] = stolen_total;
  scalars["makespan_seconds"] = o.makespan_seconds;
  scalars["throughput.gflops"] = o.gflops;
  scalars["transfer.seconds"] = transfer_total;
  scalars["compute.seconds"] = compute_total;
  scalars["transfer.bytes"] = bytes_total;
  scalars["single.best_seconds"] = o.best_single_seconds;
  scalars["single.best_gflops"] = safe_gflops(
      2.0 * static_cast<double>(o.grid.M) * static_cast<double>(o.grid.N) *
          static_cast<double>(o.grid.K),
      o.best_single_seconds);
  scalars["speedup.vs_best_single"] = o.speedup;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const DeviceTileStats& ds = o.device_stats[d];
    scalars["tiles.dev." + simcl::to_string(devices[d])] = ds.executed;
  }
  doc["scalars"] = std::move(scalars);

  Json per_device = Json::object();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const DeviceTileStats& ds = o.device_stats[d];
    Json j = Json::object();
    j["planned"] = ds.planned;
    j["executed"] = ds.executed;
    j["stolen"] = ds.stolen;
    j["compute_seconds"] = ds.compute_seconds;
    j["transfer_seconds"] = ds.transfer_seconds;
    j["finish_seconds"] = ds.finish_seconds;
    j["bytes"] = ds.bytes;
    j["a_panel_fetches"] = ds.a_panel_fetches;
    j["b_panel_fetches"] = ds.b_panel_fetches;
    j["utilization"] = finite_or(
        ds.compute_seconds / o.makespan_seconds, 0.0);
    j["single_device_seconds"] = o.single_seconds[d];
    per_device[simcl::to_string(devices[d])] = std::move(j);
  }
  doc["per_device"] = std::move(per_device);

  // The full per-tile timeline is only worth its bytes on small grids;
  // the cap depends on the grid alone, so the document stays a pure
  // function of the run's inputs.
  if (o.grid.total() <= 256) {
    Json tiles = Json::array();
    for (const TileRecord& t : o.tiles) {
      Json j = Json::object();
      j["tile"] = t.index;
      j["device"] = t.device;
      j["stolen"] = t.stolen;
      j["copy_start"] = t.copy_start;
      j["copy_done"] = t.copy_done;
      j["compute_start"] = t.compute_start;
      j["compute_done"] = t.compute_done;
      j["bytes"] = t.bytes;
      tiles.push_back(std::move(j));
    }
    doc["tiles"] = std::move(tiles);
  }
  return doc;
}

}  // namespace gemmtune::dist
