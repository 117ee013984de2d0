#include "perfmodel/model.hpp"

#include <algorithm>
#include <cmath>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/intmath.hpp"

namespace gemmtune::perfmodel {

using codegen::Algorithm;
using codegen::KernelParams;
using codegen::Precision;

PerfModel::EffFactors PerfModel::factors(const KernelParams& p) const {
  EffFactors f;
  // Instruction issue: staging loads from local memory when the matrix is
  // shared, straight from global memory otherwise (dearer on GPUs), plus
  // amortized local-fill instructions and the Kwi-controlled loop overhead.
  const double mads_per_kk =
      static_cast<double>(p.Mwi()) * p.Nwi() / p.vw;
  const double a_loads = static_cast<double>(p.Mwi()) / p.vw;
  const double b_loads = static_cast<double>(p.Nwi()) / p.vw;
  double load_cost =
      a_loads * (p.share_a ? cal_.issue_load_cost : cal_.issue_gload_cost) +
      b_loads * (p.share_b ? cal_.issue_load_cost : cal_.issue_gload_cost);
  if (p.share_a)
    load_cost += cal_.issue_load_cost * 2.0 * p.Mwg / p.wg_size();
  if (p.share_b)
    load_cost += cal_.issue_load_cost * 2.0 * p.Nwg / p.wg_size();
  f.issue = mads_per_kk /
            (mads_per_kk + load_cost + cal_.loop_overhead / p.Kwi);
  // Vector-width match to the device ALUs.
  f.vec = std::min(1.0, static_cast<double>(p.vw) / cal_.pref_vw(p.prec));
  // Per-thread register limit: spills slow issue in proportion to the
  // overflow; beyond the tolerance window the kernel fails outright.
  f.reg = 1.0;
  if (cal_.max_regs_per_thread > 0) {
    const double regs32 = static_cast<double>(p.private_elements()) *
                              (element_bytes(p.prec) / 4.0) +
                          16;  // addressing temporaries
    if (regs32 > cal_.max_regs_per_thread * cal_.spill_tolerance) {
      f.ok = false;
      return f;
    }
    if (regs32 > cal_.max_regs_per_thread)
      f.reg = cal_.max_regs_per_thread / regs32;
  }
  // Wavefront quantization of the work-group size.
  f.wg = p.wg_size() /
         static_cast<double>(round_up(p.wg_size(), dev_.simd_width));
  return f;
}

PerfModel::PerfModel(simcl::DeviceId id)
    : id_(id), dev_(simcl::device_spec(id)), cal_(device_calib(id)) {
  for (Precision prec : {Precision::DP, Precision::SP}) {
    const auto ref = codegen::table2_entry(id, prec);
    const std::size_t i = prec == Precision::DP ? 0 : 1;
    const double peak = dev_.peak_gflops(prec == Precision::DP);
    gflops_ceiling_[i] = std::min(peak, 1.05 * ref.max_gflops);
    const EffFactors f = factors(ref.params);
    check(f.ok, "PerfModel: Table II kernel fails register allocation");
    seed_goodness_[i] = f.goodness();
    // Solve the anchor now (ceiling and goodness for this precision are
    // already in place) so the model is immutable after construction.
    anchors_[i] = solve_anchor(prec);
  }
}

std::int64_t PerfModel::stage1_size(const KernelParams& p) const {
  const std::int64_t lcm = lcm3(p.Mwg, p.Nwg, p.Kwg);
  const std::int64_t cap = dev_.is_gpu() ? 4096 : 1536;
  return largest_multiple_le(cap, lcm);
}

double PerfModel::copy_seconds(std::uint64_t bytes_moved) const {
  const double bw = dev_.global_bw_gbs * 1e9;
  return dev_.kernel_launch_us * 1e-6 +
         2.0 * static_cast<double>(bytes_moved) / bw;
}

Estimate PerfModel::estimate_with_anchor(const KernelParams& p,
                                         std::int64_t Mp, std::int64_t Np,
                                         std::int64_t Kp,
                                         double anchor) const {
  Estimate e;
  // Device quirks first: some kernels fail at run time on real hardware.
  if (cal_.pl_dgemm_fails && p.algo == Algorithm::PL &&
      p.prec == Precision::DP) {
    e.reason = "PL DGEMM kernels fail to execute on this device";
    return e;
  }
  if (const char* why = codegen::validate(p, dev_)) {
    e.reason = why;
    return e;
  }
  if (Mp % p.Mwg != 0 || Np % p.Nwg != 0 || Kp % p.Kwg != 0) {
    e.reason = "problem size not padded to blocking factors";
    return e;
  }

  const KernelStatics st = analyze(p, Mp, Np, Kp);
  const auto es = static_cast<double>(element_bytes(p.prec));
  const bool dp = p.prec == Precision::DP;
  const double clock_hz = dev_.clock_ghz * 1e9 * dev_.boost_factor;

  const EffFactors f = factors(p);
  if (!f.ok) {
    e.reason = "register allocation failed (spill beyond tolerance)";
    return e;
  }
  e.issue_eff = f.issue;
  e.vec_eff = f.vec;
  e.wg_eff = f.wg;
  const double reg_eff = f.reg;
  const double wg = p.wg_size();

  // --- occupancy -------------------------------------------------------------
  // Live private data plus ~16 32-bit addressing temporaries per item.
  const double priv_bytes_wg =
      (static_cast<double>(p.private_elements()) * es + 64.0) * wg;
  double occ_reg = static_cast<double>(cal_.max_wgs_per_cu);
  if (dev_.is_gpu()) {
    occ_reg = std::floor(dev_.register_bytes_per_cu() / priv_bytes_wg);
    if (occ_reg < 1) {
      e.reason = "register file exceeded";
      return e;
    }
  }
  double occ_lds = static_cast<double>(cal_.max_wgs_per_cu);
  const double lds_bytes = static_cast<double>(p.local_mem_bytes());
  if (lds_bytes > 0)
    occ_lds = std::floor(dev_.local_mem_bytes() / lds_bytes);
  if (occ_lds < 1) {
    e.reason = "local memory exceeded";
    return e;
  }
  e.occupancy = std::max(
      1.0, std::min({occ_reg, occ_lds,
                     static_cast<double>(cal_.max_wgs_per_cu)}));

  // --- latency hiding ---------------------------------------------------------
  // Resident work-items hide memory latency; deep work-item blocking adds
  // instruction-level parallelism that multiplies the effective depth
  // (Volkov-style ILP hiding), with diminishing returns past a small factor.
  const double ilp = std::clamp(
      static_cast<double>(p.Mwi()) * p.Nwi() / 4.0, 1.0, 4.0);
  e.hide = std::min(1.0, e.occupancy * wg * ilp / cal_.threads_for_latency);

  // --- compute time -------------------------------------------------------------
  // The anchor rescales the efficiency product (solved against Table II).
  // The Table II kernel is treated as this toolchain's compute frontier:
  // no candidate's anchored product may exceed the anchor kernel's, so
  // search winners can only tie the frontier on compute and must then be
  // separated by the memory, barrier, and latency terms. Physics still
  // caps at the (boosted) peak.
  const double eff = std::min(
      1.0, anchor *
               std::min(f.goodness(), seed_goodness_[dp ? 0 : 1]) *
               e.vec_eff * reg_eff);
  e.t_compute =
      static_cast<double>(st.flops) / (dev_.peak_gflops(dp) * 1e9 * eff);

  // --- global-memory time ----------------------------------------------------
  const auto mnk = static_cast<double>(Mp) * static_cast<double>(Np) *
                   static_cast<double>(Kp);
  auto operand_bytes = [&](bool shared, std::uint64_t raw_bytes, int wg_blk) {
    if (shared) return static_cast<double>(raw_bytes);
    // Without local memory the program requests raw_bytes, but caches
    // capture a cal_.cache_eff fraction of the inter-item reuse; the floor
    // is the perfectly-shared traffic.
    const double ideal = es * mnk / wg_blk;
    return ideal + (static_cast<double>(raw_bytes) - ideal) *
                       (1.0 - cal_.cache_eff);
  };
  auto layout_eff = [&](BlockLayout l, std::int64_t pitch_elems) {
    if (l != BlockLayout::RowMajor) return 1.0;
    double f = cal_.rm_bw_eff;
    if (cal_.conflict_stride_bytes > 0 &&
        static_cast<std::int64_t>(pitch_elems * es) %
                cal_.conflict_stride_bytes ==
            0)
      f *= cal_.rm_conflict_eff;
    return f;
  };
  const double bytes_a = operand_bytes(p.share_a, st.a_global_load_bytes,
                                       p.Nwg);
  const double bytes_b = operand_bytes(p.share_b, st.b_global_load_bytes,
                                       p.Mwg);
  const double bytes_c = static_cast<double>(st.c_global_load_bytes +
                                             st.c_global_store_bytes);
  const double bw = dev_.global_bw_gbs * 1e9;
  e.t_global = (bytes_a / layout_eff(p.layout_a, Mp) +
                bytes_b / layout_eff(p.layout_b, Np) + bytes_c) /
               bw / std::max(e.hide, 0.05);

  // --- local-memory time --------------------------------------------------------
  const double lds_bw =
      dev_.compute_units * cal_.lds_bytes_per_clock * clock_hz;
  e.t_local = static_cast<double>(st.local_load_bytes +
                                  st.local_store_bytes) /
              lds_bw;
  // Unshared operands stream their full (pre-cache) request volume through
  // the L1 path instead; this is the bandwidth local memory buys back.
  const double l1_bw =
      dev_.compute_units * cal_.l1_bytes_per_clock * clock_hz;
  double cache_stream_bytes = 0;
  if (!p.share_a)
    cache_stream_bytes += static_cast<double>(st.a_global_load_bytes);
  if (!p.share_b)
    cache_stream_bytes += static_cast<double>(st.b_global_load_bytes);
  e.t_local += cache_stream_bytes / l1_bw;

  // --- barrier time ---------------------------------------------------------------
  e.t_barrier = static_cast<double>(st.barriers) * cal_.barrier_cycles /
                clock_hz / (dev_.compute_units * e.occupancy);

  // --- combine -----------------------------------------------------------------
  // Streaming loads overlap with computation up to the max() of the two;
  // a small leak term models imperfect pipelining.
  const double base = std::max({e.t_compute, e.t_global, e.t_local});
  const double rest = e.t_compute + e.t_global + e.t_local - base;
  // Local-memory *fills* are fenced by barriers: within a work-group they
  // serialize against computation. Overlap comes either from co-resident
  // work-groups (BA relies on this; needs occupancy >= 2) or from the
  // algorithm itself (PL stages through registers, DB through the second
  // buffer half) — the mechanism behind Fig. 8's per-device winners.
  double fill_bytes = 0;
  if (p.share_a) fill_bytes += static_cast<double>(st.a_global_load_bytes);
  if (p.share_b) fill_bytes += static_cast<double>(st.b_global_load_bytes);
  double t_fill = fill_bytes / bw;
  if (fill_bytes > 0) {
    // Each barrier-fenced fill pays one global round trip per tile; the
    // work-groups on a compute unit serialize these unless overlapped.
    const double wg_slots =
        static_cast<double>(st.work_groups) /
        (dev_.compute_units * e.occupancy);
    t_fill += wg_slots * static_cast<double>(st.tiles) *
              cal_.mem_latency_us * 1e-6;
  }
  double q_algo = 0.0;
  if (p.algo == Algorithm::PL) q_algo = cal_.pl_overlap;
  if (p.algo == Algorithm::DB) q_algo = cal_.db_overlap;
  // Each extra co-resident work-group covers a stalled one's fill with its
  // own compute phase, so coverage grows faster than 1 - 1/occ.
  const double q_cross =
      std::min(0.97, 1.0 - 1.0 / (1.0 + 2.0 * (e.occupancy - 1.0)));
  const double q = std::max(q_cross, q_algo);
  double t = base + 0.03 * rest + (1.0 - q) * t_fill + e.t_barrier;

  // --- wave quantization --------------------------------------------------------
  const double slots = dev_.compute_units * e.occupancy;
  const double waves =
      std::ceil(static_cast<double>(st.work_groups) / slots);
  e.quant = static_cast<double>(st.work_groups) / (waves * slots);
  t /= e.quant;

  t += dev_.kernel_launch_us * 1e-6;

  // Reported-performance ceiling: nothing on this hardware/compiler stack
  // demonstrably exceeded the Table II maximum by more than a few percent.
  t = std::max(t, 2.0 * mnk / (gflops_ceiling_[dp ? 0 : 1] * 1e9));

  e.ok = true;
  e.seconds = t;
  e.gflops = 2.0 * mnk / t / 1e9;
  return e;
}

double PerfModel::solve_anchor(Precision prec) const {
  const codegen::PaperKernelResult ref = codegen::table2_entry(id_, prec);
  const std::int64_t n = stage1_size(ref.params);
  // gflops is monotonically increasing in the anchor; bisect.
  double lo = 0.005, hi = 1.8;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    const Estimate e = estimate_with_anchor(ref.params, n, n, n, mid);
    if (!e.ok)
      fail("solve_anchor: Table II kernel rejected: " + e.reason + " [" +
           ref.params.summary() + "]");
    if (e.gflops < ref.max_gflops) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double PerfModel::alu_anchor(Precision prec) const {
  return anchors_[prec == Precision::DP ? 0 : 1];
}

void PerfModel::clear_thread_cache() {}

Estimate PerfModel::kernel_estimate(const KernelParams& p, std::int64_t Mp,
                                    std::int64_t Np, std::int64_t Kp) const {
  return estimate_with_anchor(p, Mp, Np, Kp, alu_anchor(p.prec));
}

double PerfModel::kernel_gflops(const KernelParams& p,
                                std::int64_t n) const {
  const Estimate e = kernel_estimate(p, n, n, n);
  return e.ok ? e.gflops : 0.0;
}

}  // namespace gemmtune::perfmodel
