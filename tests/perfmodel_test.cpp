// Performance-model tests:
//  * every Table II parameter set validates on its device,
//  * static work analysis exactly matches the interpreter's dynamic
//    counters (so the model times the kernels the generator emits),
//  * the solved anchors reproduce the paper's Table II GFlop/s,
//  * the qualitative findings of Section IV-A hold in the model.
#include <gtest/gtest.h>

#include <cstring>

#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "kernelir/interp.hpp"
#include "perfmodel/model.hpp"
#include "perfmodel/statics.hpp"
#include "simcl/device_registry.hpp"

namespace gemmtune {
namespace {

using codegen::Algorithm;
using codegen::GemmKernelArgs;
using codegen::KernelParams;
using codegen::Precision;
using perfmodel::PerfModel;
using simcl::DeviceId;

TEST(PaperKernels, AllTableIIEntriesValidateOnTheirDevice) {
  for (DeviceId id : simcl::all_devices()) {
    for (Precision prec : {Precision::DP, Precision::SP}) {
      const auto entry = codegen::table2_entry(id, prec);
      const char* why = validate(entry.params, simcl::device_spec(id));
      EXPECT_EQ(why, nullptr)
          << simcl::to_string(id) << " " << to_string(prec) << ": "
          << (why ? why : "") << "\n  " << entry.params.summary();
      EXPECT_GT(entry.max_gflops, 0);
    }
  }
}

// ---- statics vs. interpreter ------------------------------------------------

ir::Counters interpret_counts(const KernelParams& p, std::int64_t Mp,
                              std::int64_t Np, std::int64_t Kp) {
  simcl::Context ctx(simcl::device_spec(DeviceId::Tahiti));
  const int es = element_bytes(p.prec);
  auto dA = ctx.create_buffer(static_cast<std::size_t>(Mp * Kp * es));
  auto dB = ctx.create_buffer(static_cast<std::size_t>(Kp * Np * es));
  auto dC = ctx.create_buffer(static_cast<std::size_t>(Mp * Np * es));
  ir::Kernel k = codegen::generate_gemm_kernel(p);
  const auto geo = codegen::launch_geometry(p, Mp, Np);
  std::vector<ir::ArgValue> args(8);
  args[GemmKernelArgs::C] = ir::ArgValue::of(dC);
  args[GemmKernelArgs::A] = ir::ArgValue::of(dA);
  args[GemmKernelArgs::B] = ir::ArgValue::of(dB);
  args[GemmKernelArgs::M] = ir::ArgValue::of_int(Mp);
  args[GemmKernelArgs::N] = ir::ArgValue::of_int(Np);
  args[GemmKernelArgs::K] = ir::ArgValue::of_int(Kp);
  args[GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.0);
  args[GemmKernelArgs::beta] = ir::ArgValue::of_float(0.0);
  return ir::launch(k, geo.global, geo.local, args);
}

class StaticsMatch : public ::testing::TestWithParam<KernelParams> {};

TEST_P(StaticsMatch, CountersAgree) {
  const KernelParams p = GetParam();
  const std::int64_t Mp = 2 * p.Mwg, Np = 2 * p.Nwg, Kp = 3 * p.Kwg;
  const auto st = perfmodel::analyze(p, Mp, Np, Kp);
  const auto dyn = interpret_counts(p, Mp, Np, Kp);
  EXPECT_EQ(st.flops, dyn.flops) << p.summary();
  EXPECT_EQ(st.mads, dyn.mads) << p.summary();
  EXPECT_EQ(st.global_load_bytes(),
            dyn.global_load_bytes) << p.summary();
  EXPECT_EQ(st.c_global_store_bytes, dyn.global_store_bytes) << p.summary();
  EXPECT_EQ(st.local_load_bytes, dyn.local_load_bytes) << p.summary();
  EXPECT_EQ(st.local_store_bytes, dyn.local_store_bytes) << p.summary();
  EXPECT_EQ(st.barriers, dyn.barriers) << p.summary();
  EXPECT_EQ(static_cast<std::uint64_t>(st.work_groups), dyn.work_groups);
}

std::vector<KernelParams> statics_cases() {
  std::vector<KernelParams> v;
  for (Algorithm algo : {Algorithm::BA, Algorithm::PL, Algorithm::DB}) {
    for (int share = 0; share < 4; ++share) {
      if (algo != Algorithm::BA && share == 0) continue;
      KernelParams p;
      p.prec = share % 2 ? Precision::SP : Precision::DP;
      p.Mwg = 8;
      p.Nwg = 8;
      p.Kwg = 4;
      p.MdimC = p.NdimC = 4;
      p.MdimA = p.NdimB = 8;
      p.Kwi = 2;
      p.vw = 2;
      p.algo = algo;
      p.share_a = (share & 1) != 0;
      p.share_b = (share & 2) != 0;
      v.push_back(p);
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StaticsMatch,
                         ::testing::ValuesIn(statics_cases()));

// ---- anchors reproduce Table II ------------------------------------------------

TEST(PerfModel, AnchorsReproduceTableII) {
  for (DeviceId id : simcl::evaluation_devices()) {
    PerfModel model(id);
    for (Precision prec : {Precision::DP, Precision::SP}) {
      const auto entry = codegen::table2_entry(id, prec);
      const std::int64_t n = model.stage1_size(entry.params);
      const auto e = model.kernel_estimate(entry.params, n, n, n);
      ASSERT_TRUE(e.ok) << simcl::to_string(id) << ": " << e.reason;
      EXPECT_NEAR(e.gflops, entry.max_gflops, 0.02 * entry.max_gflops)
          << simcl::to_string(id) << " " << to_string(prec);
    }
  }
}

TEST(PerfModel, EfficiencyBelowBoostedPeak) {
  for (DeviceId id : simcl::evaluation_devices()) {
    PerfModel model(id);
    for (Precision prec : {Precision::DP, Precision::SP}) {
      const auto entry = codegen::table2_entry(id, prec);
      const std::int64_t n = model.stage1_size(entry.params);
      const auto e = model.kernel_estimate(entry.params, n, n, n);
      const bool dp = prec == Precision::DP;
      EXPECT_LE(e.gflops,
                model.spec().peak_gflops(dp) * 1.001)
          << simcl::to_string(id);
    }
  }
}

// ---- qualitative paper findings -------------------------------------------------

TEST(PerfModel, PerformanceGrowsWithProblemSizeToSaturation) {
  PerfModel model(DeviceId::Tahiti);
  const auto p = codegen::table2_entry(DeviceId::Tahiti, Precision::DP).params;
  const std::int64_t lcm = lcm3(p.Mwg, p.Nwg, p.Kwg);
  double prev = 0;
  for (std::int64_t n = lcm; n <= 8 * lcm; n += lcm) {
    const double g = model.kernel_gflops(p, n);
    EXPECT_GT(g, 0.65 * prev) << n;  // roughly monotone ramp
    prev = g;
  }
  // Small problems far below the plateau.
  EXPECT_LT(model.kernel_gflops(p, lcm), 0.9 * prev);
}

TEST(PerfModel, KeplerSgemmLosesWithoutLocalMemory) {
  // Section IV-A: Kepler SGEMM drops from 1440 to ~1150 GFlop/s when local
  // memory is not used for both matrices. The paper's 1150 is the best
  // no-local kernel the tuner can find, so compare against a small
  // hand-picked set of strong no-local candidates (big register tiles that
  // minimize the L1 stream).
  PerfModel model(DeviceId::Kepler);
  const auto seed = codegen::table2_entry(DeviceId::Kepler, Precision::SP);
  const std::int64_t n = model.stage1_size(seed.params);
  const double with_local =
      model.kernel_estimate(seed.params, n, n, n).gflops;
  double without = 0;
  for (int mwi : {4, 8}) {
    for (int nwi : {4, 8, 12}) {
      KernelParams p = seed.params;
      p.share_a = p.share_b = false;
      p.algo = Algorithm::BA;
      p.Mwg = 8 * mwi;
      p.Nwg = 16 * nwi;  // keep MdimC=8, NdimC=16
      p.Kwi = 8;
      if (validate(p, model.spec())) continue;
      const auto e = model.kernel_estimate(p, n, n, n);
      if (e.ok) without = std::max(without, e.gflops);
    }
  }
  // The paper's ratio is ~0.80; the full search-based ablation
  // (bench_ablation_localmem) lands at ~0.73, and this reduced candidate
  // set sits a little lower still.
  EXPECT_LT(without, 0.92 * with_local);
  EXPECT_GT(without, 0.55 * with_local);
}

TEST(PerfModel, CaymanPaysForBarriers) {
  // Section IV-A: "The Cayman runs slower when the local memory is
  // utilized, probably because the cost for barrier synchronizations is
  // too large."
  PerfModel model(DeviceId::Cayman);
  auto p = codegen::table2_entry(DeviceId::Cayman, Precision::DP).params;
  const std::int64_t n = model.stage1_size(p);
  const double no_local = model.kernel_estimate(p, n, n, n).gflops;
  auto q = p;
  q.share_b = true;  // sharing both at Kwg=48 would exceed Cayman's 32 KB
  q.NdimB = 8;
  ASSERT_EQ(validate(q, model.spec()), nullptr);
  const double with_local = model.kernel_estimate(q, n, n, n).gflops;
  EXPECT_LT(with_local, no_local);
}

TEST(PerfModel, RowMajorCollapsesAtConflictStride) {
  // Section IV-A: the fastest row-major Tahiti DGEMM kernel reaches 837
  // GFlop/s but is "drastically deteriorated" at sizes that are multiples
  // of 2048 because of memory bank conflicts.
  PerfModel model(DeviceId::Tahiti);
  auto p = codegen::table2_entry(DeviceId::Tahiti, Precision::DP).params;
  p.layout_a = BlockLayout::RowMajor;
  p.layout_b = BlockLayout::RowMajor;
  // Conflicts hit when the row pitch in bytes is a multiple of 16 KB, i.e.
  // N a multiple of 2048 doubles; 6144 is also a multiple of the blocking.
  const std::int64_t bad = 6144;
  const std::int64_t good = bad - lcm3(p.Mwg, p.Nwg, p.Kwg);
  ASSERT_EQ(bad % p.Mwg, 0);
  ASSERT_EQ(good % p.Mwg, 0);
  const double at_bad = model.kernel_gflops(p, bad);
  const double at_good = model.kernel_gflops(p, good);
  EXPECT_LT(at_bad, 0.7 * at_good);
}

TEST(PerfModel, BlockLayoutBeatsRowMajorEverywhere) {
  // "GEMM kernels using block-major matrix layouts show the highest
  // performance on all tested processors."
  for (DeviceId id : simcl::evaluation_devices()) {
    PerfModel model(id);
    auto p = codegen::table2_entry(id, Precision::DP).params;
    const std::int64_t n = model.stage1_size(p);
    const double block = model.kernel_estimate(p, n, n, n).gflops;
    auto q = p;
    q.layout_a = q.layout_b = BlockLayout::RowMajor;
    const double rm = model.kernel_estimate(q, n, n, n).gflops;
    EXPECT_LE(rm, block * 1.0001) << simcl::to_string(id);
  }
}

TEST(PerfModel, FermiDgemmPrefersPipelining) {
  // Fig. 8: the PL algorithm wins DGEMM on Fermi.
  PerfModel model(DeviceId::Fermi);
  auto p = codegen::table2_entry(DeviceId::Fermi, Precision::DP).params;
  const std::int64_t n = model.stage1_size(p);
  ASSERT_EQ(p.algo, Algorithm::PL);
  const double pl = model.kernel_estimate(p, n, n, n).gflops;
  auto q = p;
  q.algo = Algorithm::BA;
  const double ba = model.kernel_estimate(q, n, n, n).gflops;
  EXPECT_GT(pl, ba);
}

TEST(PerfModel, BulldozerPlDgemmFails) {
  PerfModel model(DeviceId::Bulldozer);
  auto p = codegen::table2_entry(DeviceId::Bulldozer, Precision::DP).params;
  p.algo = Algorithm::PL;
  const auto e = model.kernel_estimate(p, 96, 96, 96 * 2);
  EXPECT_FALSE(e.ok);
}

TEST(PerfModel, CopyOverheadQuadratic) {
  PerfModel model(DeviceId::Tahiti);
  const double t1 = model.copy_seconds(1 << 20);
  const double t2 = model.copy_seconds(1 << 22);
  EXPECT_GT(t2, t1);
  EXPECT_LT(t2, 4.5 * t1);
}

}  // namespace
}  // namespace gemmtune
