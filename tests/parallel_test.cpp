// Parallel-execution tests: the thread pool itself, bit-identical tuning
// across thread counts, serial-vs-parallel interpreter equivalence, the
// stage-2 fallback path, concurrent TunedDatabase access, and the CLI
// --threads flag. This binary is also the main ThreadSanitizer target
// (tools/check.sh runs it under -DGEMMTUNE_TSAN=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>
#include <thread>

#include "cli/cli.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/interp.hpp"
#include "tuner/results_db.hpp"
#include "tuner/search.hpp"
#include "tuner/strategy/strategy.hpp"

namespace gemmtune {
namespace {

using codegen::Algorithm;
using codegen::KernelParams;
using codegen::Precision;
using simcl::DeviceId;

// ---- thread pool ------------------------------------------------------------

TEST(ThreadPool, ParallelMapPreservesOrder) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const auto out = parallel_map<std::int64_t>(
        pool, 1000, [](std::int64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::int64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(777);
  pool.parallel_for(777, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) sum += static_cast<int>(i) + 1;
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPool, PropagatesTheLowestChunkException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i)
        if (i == 37) throw std::runtime_error("chunk failed at 37");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failed at 37");
  }
  // The pool stays usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::int64_t b, std::int64_t e, int) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, NestedDispatchRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(10, [&](std::int64_t b2, std::int64_t e2, int) {
        total += static_cast<int>(e2 - b2);
      });
    }
  });
  EXPECT_EQ(total.load(), 40);
}

TEST(ThreadPool, ConfigurationPrecedence) {
  set_thread_override(0);
  ASSERT_EQ(setenv("GEMMTUNE_THREADS", "3", 1), 0);
  EXPECT_EQ(configured_threads(), 3);
  set_thread_override(5);  // the CLI flag wins over the environment
  EXPECT_EQ(configured_threads(), 5);
  set_thread_override(0);
  ASSERT_EQ(unsetenv("GEMMTUNE_THREADS"), 0);
  EXPECT_GE(configured_threads(), 1);
}

// ---- tuner determinism ------------------------------------------------------

tuner::SearchOptions fast_opt(int threads) {
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = 400;
  opt.stage2_max_n = 4096;
  opt.threads = threads;
  return opt;
}

TEST(ParallelTune, BitIdenticalAcrossThreadCounts) {
  for (DeviceId id : {DeviceId::Tahiti, DeviceId::SandyBridge}) {
    for (Precision prec : {Precision::SP, Precision::DP}) {
      tuner::SearchEngine engine(id);
      tuner::SearchStats st1;
      const auto base = engine.tune(prec, fast_opt(1), &st1);
      for (int threads : {2, 8}) {
        tuner::SearchStats st;
        const auto got = engine.tune(prec, fast_opt(threads), &st);
        SCOPED_TRACE(std::string(simcl::to_string(id)) + " " +
                     to_string(prec) + " threads=" + std::to_string(threads));
        EXPECT_EQ(got.params, base.params);
        EXPECT_EQ(got.stage1_gflops, base.stage1_gflops);  // bit-identical
        EXPECT_EQ(got.best_gflops, base.best_gflops);
        EXPECT_EQ(got.best_n, base.best_n);
        ASSERT_EQ(got.curve.size(), base.curve.size());
        for (std::size_t i = 0; i < got.curve.size(); ++i) {
          EXPECT_EQ(got.curve[i].first, base.curve[i].first);
          EXPECT_EQ(got.curve[i].second, base.curve[i].second);
        }
        EXPECT_EQ(st.stage1_evaluated, st1.stage1_evaluated);
        EXPECT_EQ(st.stage1_failed, st1.stage1_failed);
        EXPECT_EQ(st.stage2_points, st1.stage2_points);
      }
    }
  }
}

// SearchEngine memoizes its candidate space across thread counts, so the
// tunes above enumerate once; this runs the enumeration itself (validity
// pass, reservoir draws, decoding and the key sort) on several workers,
// including a count that divides none of its ranges evenly.
TEST(ParallelTune, EnumerationIdenticalAcrossThreadCounts) {
  tuner::EnumOptions opt;
  opt.max_candidates = 400;
  opt.threads = 1;
  tuner::EnumStats st1;
  const auto base =
      tuner::enumerate_candidates(DeviceId::Tahiti, Precision::SP, opt, &st1);
  for (int threads : {3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    opt.threads = threads;
    tuner::EnumStats st;
    const auto got = tuner::enumerate_candidates(DeviceId::Tahiti,
                                                 Precision::SP, opt, &st);
    EXPECT_EQ(got, base);
    EXPECT_EQ(st.raw_combinations, st1.raw_combinations);
    EXPECT_EQ(st.invalid, st1.invalid);
    EXPECT_EQ(st.valid, st1.valid);
  }
}

// A guided shape-class tune on a fresh engine per thread count: the
// enumeration and the model's ranking both fan out, and the winner and
// every statistic must not move.
TEST(ParallelTune, ModelTopKShapeTuneIdenticalAcrossThreadCounts) {
  tuner::strategy::StrategySpec spec;
  spec.kind = tuner::strategy::StrategyKind::ModelTopK;
  spec.budget = 64;
  const auto run = [&](int threads, tuner::strategy::StrategyStats* st) {
    tuner::SearchEngine engine(DeviceId::Tahiti);
    tuner::SearchOptions opt;
    opt.enumeration.max_candidates = 3000;
    opt.threads = threads;
    opt.shape = tuner::ShapeClass{Precision::DP, GemmType::NN, 64, 64, 64};
    return tuner::strategy::run_strategy(engine, Precision::DP, opt, spec,
                                         st);
  };
  tuner::strategy::StrategyStats st1, st4;
  const auto base = run(1, &st1);
  const auto got = run(4, &st4);
  EXPECT_EQ(got.params, base.params);
  EXPECT_EQ(got.stage1_gflops, base.stage1_gflops);  // bit-identical
  EXPECT_EQ(got.best_gflops, base.best_gflops);
  EXPECT_EQ(got.best_n, base.best_n);
  EXPECT_EQ(got.curve, base.curve);
  EXPECT_EQ(st4.space, st1.space);
  EXPECT_EQ(st4.measured, st1.measured);
  EXPECT_EQ(st4.model_ranked, st1.model_ranked);
  EXPECT_EQ(st4.proposals, st1.proposals);
  EXPECT_EQ(st4.proposals_invalid, st1.proposals_invalid);
  EXPECT_EQ(st4.fraction_measured, st1.fraction_measured);
  const tuner::SearchStats& s1 = st1.search;
  const tuner::SearchStats& s4 = st4.search;
  EXPECT_EQ(s4.enumeration.raw_combinations,
            s1.enumeration.raw_combinations);
  EXPECT_EQ(s4.enumeration.invalid, s1.enumeration.invalid);
  EXPECT_EQ(s4.enumeration.valid, s1.enumeration.valid);
  EXPECT_EQ(s4.stage1_evaluated, s1.stage1_evaluated);
  EXPECT_EQ(s4.stage1_failed, s1.stage1_failed);
  EXPECT_EQ(s4.stage2_points, s1.stage2_points);
  EXPECT_EQ(s4.stage2_empty, s1.stage2_empty);
  EXPECT_EQ(s4.stage2_failed, s1.stage2_failed);
  EXPECT_EQ(s4.used_stage1_fallback, s1.used_stage1_fallback);
}

TEST(ParallelTune, FallsBackToStage1WhenEverySweepIsEmpty) {
  tuner::SearchEngine engine(DeviceId::Tahiti);
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = 200;
  opt.stage2_max_n = 4;  // below every blocking LCM: all sweeps are empty
  tuner::SearchStats st;
  const auto best = engine.tune(Precision::DP, opt, &st);
  EXPECT_TRUE(st.used_stage1_fallback);
  EXPECT_GT(st.stage2_empty, 0);
  EXPECT_EQ(st.stage2_failed.size(), static_cast<std::size_t>(st.stage2_empty));
  EXPECT_GT(best.best_gflops, 0);
  EXPECT_EQ(best.best_gflops, best.stage1_gflops);
  ASSERT_EQ(best.curve.size(), 1u);
  EXPECT_EQ(best.curve[0].first, best.best_n);
}

// ---- interpreter serial vs. parallel ---------------------------------------

struct LaunchResult {
  std::vector<std::byte> c_bytes;
  ir::Counters counters;
};

/// Packs nothing — runs a generated kernel on synthetic pre-padded data so
/// the comparison covers exactly the interpreter, not the pack pipeline.
LaunchResult run_generated(const KernelParams& p, std::int64_t Mp,
                           std::int64_t Np, std::int64_t Kp, int threads) {
  simcl::Context ctx(simcl::device_spec(DeviceId::Tahiti));
  const std::size_t es = static_cast<std::size_t>(element_bytes(p.prec));
  auto dA = ctx.create_buffer(static_cast<std::size_t>(Mp * Kp) * es);
  auto dB = ctx.create_buffer(static_cast<std::size_t>(Kp * Np) * es);
  auto dC = ctx.create_buffer(static_cast<std::size_t>(Mp * Np) * es);
  // Deterministic non-trivial fill.
  auto fill = [&](simcl::Buffer& buf, double scale) {
    const std::size_t n = buf.size() / es;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = scale * (static_cast<double>(i % 97) - 48.0) / 31.0;
      if (p.prec == Precision::DP) {
        buf.as<double>()[i] = v;
      } else {
        buf.as<float>()[i] = static_cast<float>(v);
      }
    }
  };
  fill(*dA, 1.0);
  fill(*dB, 0.75);
  fill(*dC, -0.5);

  ir::Kernel k = codegen::generate_gemm_kernel(p);
  const auto geo = codegen::launch_geometry(p, Mp, Np);
  std::vector<ir::ArgValue> args(8);
  args[codegen::GemmKernelArgs::C] = ir::ArgValue::of(dC);
  args[codegen::GemmKernelArgs::A] = ir::ArgValue::of(dA);
  args[codegen::GemmKernelArgs::B] = ir::ArgValue::of(dB);
  args[codegen::GemmKernelArgs::M] = ir::ArgValue::of_int(Mp);
  args[codegen::GemmKernelArgs::N] = ir::ArgValue::of_int(Np);
  args[codegen::GemmKernelArgs::K] = ir::ArgValue::of_int(Kp);
  args[codegen::GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.25);
  args[codegen::GemmKernelArgs::beta] = ir::ArgValue::of_float(-0.75);
  LaunchResult r;
  r.counters = ir::launch(k, geo.global, geo.local, args, threads);
  r.c_bytes.assign(dC->data(), dC->data() + dC->size());
  return r;
}

KernelParams interp_params(Algorithm algo) {
  KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 8;
  p.Nwg = 8;
  p.Kwg = 4;
  p.MdimC = 4;
  p.NdimC = 4;
  p.MdimA = algo == Algorithm::DB ? 8 : 4;
  p.NdimB = algo == Algorithm::DB ? 8 : 4;
  p.share_a = p.share_b = true;
  p.algo = algo;
  return p;
}

TEST(ParallelInterp, BuffersAndCountersMatchSerialOnBaAndDb) {
  for (Algorithm algo : {Algorithm::BA, Algorithm::DB}) {
    const KernelParams p = interp_params(algo);
    ASSERT_EQ(validate(p, simcl::device_spec(DeviceId::Tahiti)), nullptr);
    // 4 x 6 = 24 work-groups, so every thread count gets several groups.
    const auto serial = run_generated(p, 32, 48, 12, 1);
    for (int threads : {2, 8}) {
      const auto par = run_generated(p, 32, 48, 12, threads);
      SCOPED_TRACE(std::string(codegen::to_string(algo)) +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(par.counters == serial.counters);
      ASSERT_EQ(par.c_bytes.size(), serial.c_bytes.size());
      EXPECT_EQ(std::memcmp(par.c_bytes.data(), serial.c_bytes.data(),
                            serial.c_bytes.size()),
                0);
    }
  }
}

TEST(ParallelInterp, SingleGroupLaunchStaysSerial) {
  const KernelParams p = interp_params(Algorithm::BA);
  const auto serial = run_generated(p, 8, 8, 4, 1);
  const auto par = run_generated(p, 8, 8, 4, 8);
  EXPECT_TRUE(par.counters == serial.counters);
  EXPECT_EQ(std::memcmp(par.c_bytes.data(), serial.c_bytes.data(),
                        serial.c_bytes.size()),
            0);
}

// ---- TunedDatabase concurrency ---------------------------------------------

TEST(ParallelDb, ConcurrentGetOrTuneDedupesSameKey) {
  tuner::TunedDatabase db;
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = 150;
  std::vector<const tuner::TunedKernel*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] =
          &db.get_or_tune(DeviceId::Kepler, Precision::DP, opt);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.size(), 1u);
  for (int t = 1; t < 4; ++t) EXPECT_EQ(got[static_cast<std::size_t>(t)],
                                        got[0]);
}

TEST(ParallelDb, ConcurrentDistinctKeysAllLand) {
  tuner::TunedDatabase db;
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = 150;
  const DeviceId ids[] = {DeviceId::Tahiti, DeviceId::Cayman,
                          DeviceId::Kepler, DeviceId::Fermi};
  std::vector<std::thread> threads;
  for (DeviceId id : ids) {
    threads.emplace_back(
        [&db, &opt, id] { db.get_or_tune(id, Precision::SP, opt); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.size(), 4u);
  for (DeviceId id : ids)
    EXPECT_TRUE(db.find(id, Precision::SP).has_value());
}

// ---- CLI flag ---------------------------------------------------------------

TEST(ParallelCli, ThreadsFlagIsAcceptedEverywhere) {
  std::ostringstream out;
  EXPECT_EQ(cli::run({"--threads", "2", "devices"}, out), 0);
  EXPECT_NE(out.str().find("Tahiti"), std::string::npos);
  std::ostringstream out2;
  EXPECT_EQ(cli::run({"--threads=3", "tune", "Cayman", "SGEMM", "200"}, out2),
            0);
  EXPECT_NE(out2.str().find("best:"), std::string::npos);
  std::ostringstream bad;
  EXPECT_EQ(cli::run({"--threads", "0", "devices"}, bad), 1);
  EXPECT_NE(bad.str().find("error:"), std::string::npos);
  set_thread_override(0);  // don't leak the override into other tests
}

}  // namespace
}  // namespace gemmtune
