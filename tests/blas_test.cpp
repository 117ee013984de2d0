// BLAS-level tests: host reference implementations against each other, and
// the GemmEngine's four multiplication types executed functionally through
// the generated kernels (paper Section IV-B pipeline).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "simcl/device_registry.hpp"
#include "trace/trace.hpp"

namespace gemmtune {
namespace {

using blas::GemmEngine;
using codegen::Precision;
using simcl::DeviceId;

template <typename T>
void check_host_variants(Transpose ta, Transpose tb) {
  const index_t M = 17, N = 13, K = 9;
  Rng rng(11);
  Matrix<T> A(ta == Transpose::No ? M : K, ta == Transpose::No ? K : M);
  Matrix<T> B(tb == Transpose::No ? K : N, tb == Transpose::No ? N : K);
  Matrix<T> C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  Matrix<T> Cnaive = C, Cserial = C, Cparallel = C;
  const T alpha = T(1.5), beta = T(-0.5);
  hostblas::gemm_naive(ta, tb, M, N, K, alpha, A, B, beta, Cnaive);
  hostblas::gemm_parallel(ta, tb, M, N, K, alpha, A, B, beta, Cserial, 1);
  hostblas::gemm_parallel(ta, tb, M, N, K, alpha, A, B, beta, Cparallel, 3);
  const double tol = hostblas::gemm_tolerance<T>(K);
  EXPECT_LE(max_abs_diff(Cnaive, Cserial), tol);
  EXPECT_LE(max_abs_diff(Cnaive, Cparallel), tol);
}

TEST(HostBlas, VariantsAgreeDouble) {
  for (GemmType t : all_gemm_types())
    check_host_variants<double>(trans_a(t), trans_b(t));
}

TEST(HostBlas, VariantsAgreeFloat) {
  for (GemmType t : all_gemm_types())
    check_host_variants<float>(trans_a(t), trans_b(t));
}

// The blocked reference, on one thread and on three, accumulates every
// element as c = beta * c, then c += (alpha * a) * b over ascending k: the
// rounding sequence of this plain loop, so it must match it bit for bit in
// both storage orders, all four transposes, and ragged sizes that leave
// partial 64-element blocks (M and K cross a block edge) and uneven thread
// chunks.
template <typename T>
void check_host_order(StorageOrder order) {
  const index_t M = 67, N = 45, K = 131;
  const T alpha = T(1.5), beta = T(-0.5);
  for (GemmType type : all_gemm_types()) {
    const Transpose ta = trans_a(type), tb = trans_b(type);
    Rng rng(23);
    Matrix<T> A(ta == Transpose::No ? M : K, ta == Transpose::No ? K : M,
                order);
    Matrix<T> B(tb == Transpose::No ? K : N, tb == Transpose::No ? N : K,
                order);
    Matrix<T> C(M, N, order);
    A.fill_random(rng);
    B.fill_random(rng);
    C.fill_random(rng);
    Matrix<T> want = C;
    for (index_t m = 0; m < M; ++m) {
      for (index_t n = 0; n < N; ++n) {
        T c = beta * want.at(m, n);
        for (index_t k = 0; k < K; ++k) {
          const T a = ta == Transpose::No ? A.at(m, k) : A.at(k, m);
          const T b = tb == Transpose::No ? B.at(k, n) : B.at(n, k);
          c += (alpha * a) * b;
        }
        want.at(m, n) = c;
      }
    }
    Matrix<T> serial = C, parallel = C;
    hostblas::gemm_parallel(ta, tb, M, N, K, alpha, A, B, beta, serial, 1);
    hostblas::gemm_parallel(ta, tb, M, N, K, alpha, A, B, beta, parallel, 3);
    const std::size_t bytes = want.size() * sizeof(T);
    EXPECT_EQ(std::memcmp(want.data(), serial.data(), bytes), 0)
        << to_string(type);
    EXPECT_EQ(std::memcmp(want.data(), parallel.data(), bytes), 0)
        << to_string(type);
  }
}

TEST(HostBlas, BlockedAndParallelMatchPlainLoopBitForBit) {
  for (StorageOrder order : {StorageOrder::ColMajor, StorageOrder::RowMajor}) {
    check_host_order<double>(order);
    check_host_order<float>(order);
  }
}

TEST(HostBlas, ShapeChecks) {
  Matrix<double> A(2, 3), B(3, 2), C(2, 2), Bad(1, 1);
  EXPECT_NO_THROW(hostblas::gemm_naive(Transpose::No, Transpose::No, 2, 2, 3,
                                       1.0, A, B, 0.0, C));
  EXPECT_THROW(hostblas::gemm_naive(Transpose::No, Transpose::No, 2, 2, 3,
                                    1.0, Bad, B, 0.0, C),
               Error);
}

// ---- GemmEngine functional path ------------------------------------------------

template <typename T>
void run_engine_type(DeviceId dev, GemmType type, index_t M, index_t N,
                     index_t K, std::uint64_t seed) {
  GemmEngine engine(dev);
  const Transpose ta = trans_a(type), tb = trans_b(type);
  Rng rng(seed);
  Matrix<T> A(ta == Transpose::No ? M : K, ta == Transpose::No ? K : M);
  Matrix<T> B(tb == Transpose::No ? K : N, tb == Transpose::No ? N : K);
  Matrix<T> C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  const auto prof = engine.gemm(ta, tb, M, N, K, T(1.25), A, B, T(0.5), C,
                                /*verify=*/true);
  EXPECT_GE(prof.max_error, 0);
  EXPECT_LE(prof.max_error, hostblas::gemm_tolerance<T>(K))
      << simcl::to_string(dev) << " " << to_string(type);
  EXPECT_GT(prof.total_seconds, 0);
  EXPECT_GT(prof.kernel_seconds, 0);
  if (prof.used_direct) {
    // The copy-free path has no pack/unpack time at all.
    EXPECT_DOUBLE_EQ(prof.copy_seconds, 0.0);
  } else {
    EXPECT_GT(prof.copy_seconds, 0);
  }
  EXPECT_NEAR(prof.total_seconds, prof.kernel_seconds + prof.copy_seconds,
              1e-12);
  EXPECT_GT(prof.gflops, 0);
}

TEST(GemmEngine, AllFourTypesDoubleOnTahiti) {
  for (GemmType t : all_gemm_types())
    run_engine_type<double>(DeviceId::Tahiti, t, 100, 37, 50, 21);
}

TEST(GemmEngine, AllFourTypesFloatOnTahiti) {
  for (GemmType t : all_gemm_types())
    run_engine_type<float>(DeviceId::Tahiti, t, 100, 37, 50, 22);
}

TEST(GemmEngine, FunctionalOnEveryDevice) {
  // Every device's tuned kernel must produce correct results for an
  // awkward (padded) problem shape.
  for (DeviceId dev : simcl::evaluation_devices()) {
    run_engine_type<double>(dev, GemmType::NN, 70, 41, 33, 23);
    run_engine_type<float>(dev, GemmType::TN, 70, 41, 33, 24);
  }
}

TEST(GemmEngine, EstimateMatchesPaperScaleOnTahiti) {
  GemmEngine engine(DeviceId::Tahiti);
  // Table III: our DGEMM implementation reaches ~852 GFlop/s on Tahiti at
  // large sizes (column-major, including copy overhead).
  const double g = engine.estimate_gflops(GemmType::NN, Precision::DP, 5760);
  EXPECT_GT(g, 780);
  EXPECT_LT(g, 960);
}

TEST(GemmEngine, CopyOverheadDominatesSmallSizes) {
  // Paper Section IV-B: "the current implementation is not fast for small
  // sizes because the ratio of copying time to total time is relatively
  // big", amortized as O(N^2)/O(N^3) at larger sizes.
  GemmEngine engine(DeviceId::Tahiti);
  const auto small = engine.estimate(GemmType::NN, Precision::DP, 256, 256,
                                     256);
  const auto large = engine.estimate(GemmType::NN, Precision::DP, 4096, 4096,
                                     4096);
  EXPECT_GT(small.copy_seconds / small.total_seconds,
            large.copy_seconds / large.total_seconds);
  EXPECT_LT(large.copy_seconds / large.total_seconds, 0.2);
  EXPECT_LT(small.gflops, large.gflops);
}

TEST(GemmEngine, TypeInsensitivity) {
  // Table III: our implementation's performance "does not highly depend on
  // GEMM types" — all four types pack into the same A^T*B kernel.
  GemmEngine engine(DeviceId::Cayman);
  double lo = 1e30, hi = 0;
  for (GemmType t : all_gemm_types()) {
    const double g = engine.estimate_gflops(t, Precision::SP, 3840);
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_LT((hi - lo) / hi, 0.02);
}

}  // namespace
}  // namespace gemmtune

namespace gemmtune {
namespace {

TEST(GemmEngine, HonorsAnInjectedTuningDatabase) {
  // A database tuned elsewhere (e.g. by the CLI) drives the engine: inject
  // a deliberately different kernel and observe it being used.
  codegen::KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 16;
  p.Nwg = 16;
  p.Kwg = 8;
  p.MdimC = p.NdimC = 8;
  p.MdimA = p.NdimB = 8;
  p.Kwi = 2;
  p.vw = 1;
  p.share_a = p.share_b = true;
  tuner::TunedDatabase db;
  db.put(DeviceId::Tahiti, Precision::DP,
         tuner::profile_kernel(DeviceId::Tahiti, p, 1024));
  GemmEngine engine(DeviceId::Tahiti, std::move(db));
  EXPECT_EQ(engine.kernel_for(Precision::DP).params, p);
  // And the functional path runs correctly with it.
  run_engine_type<double>(DeviceId::Tahiti, GemmType::NT, 40, 24, 20, 77);
}

TEST(GemmEngine, RectangularProblemsAllDevices) {
  for (DeviceId dev : {DeviceId::Cayman, DeviceId::SandyBridge}) {
    run_engine_type<double>(dev, GemmType::TT, 90, 30, 55, 88);
    run_engine_type<float>(dev, GemmType::NT, 33, 120, 47, 89);
  }
}

// ---- concurrent calls on one engine -----------------------------------------

/// One gemm() call of the concurrency test; `direct` is the path Tahiti's
/// tuned kernels take at this size.
struct EngineCall {
  Precision prec;
  GemmType type;
  index_t M, N, K;
  bool direct;
};

/// DP/SP x the four types x one direct-path and one packed-path size.
std::vector<EngineCall> engine_calls() {
  std::vector<EngineCall> calls;
  for (Precision prec : {Precision::DP, Precision::SP})
    for (GemmType type : all_gemm_types()) {
      calls.push_back({prec, type, 40, 24, 16, true});
      calls.push_back({prec, type, 64, 64, 256, false});
    }
  return calls;
}

template <typename T>
std::vector<std::uint8_t> call_bytes(GemmEngine& engine, const EngineCall& c,
                                     std::uint64_t seed, bool* direct) {
  const Transpose ta = trans_a(c.type), tb = trans_b(c.type);
  const bool at = ta == Transpose::Yes, bt = tb == Transpose::Yes;
  Rng rng(seed);
  Matrix<T> A(at ? c.K : c.M, at ? c.M : c.K);
  Matrix<T> B(bt ? c.N : c.K, bt ? c.K : c.N);
  Matrix<T> C(c.M, c.N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  *direct = engine.gemm(ta, tb, c.M, c.N, c.K, T(1.25), A, B, T(-0.5), C)
                .used_direct;
  const auto* p = reinterpret_cast<const std::uint8_t*>(C.data());
  return std::vector<std::uint8_t>(p, p + C.size() * sizeof(T));
}

std::vector<std::uint8_t> run_call(GemmEngine& engine, const EngineCall& c,
                                   std::uint64_t seed, bool* direct) {
  return c.prec == Precision::DP ? call_bytes<double>(engine, c, seed, direct)
                                 : call_bytes<float>(engine, c, seed, direct);
}

TEST(GemmEngine, ConcurrentCallsOnOneEngineMatchSerial) {
  // Four threads share one engine from its first call, so they race to
  // create its kernel handles and then launch them concurrently. Every C
  // must equal the same call run alone on a fresh engine, bit for bit, and
  // the shared engine lowers each distinct kernel once: the packed kernel
  // of each precision, and a direct one per precision and type.
  const std::vector<EngineCall> calls = engine_calls();
  std::set<std::tuple<Precision, bool, GemmType>> kernels;
  for (const EngineCall& c : calls)
    kernels.insert({c.prec, c.direct, c.direct ? c.type : GemmType::NN});
  std::vector<std::vector<std::uint8_t>> want(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    GemmEngine fresh(DeviceId::Tahiti);
    bool direct = false;
    want[i] = run_call(fresh, calls[i], 500 + i, &direct);
    EXPECT_EQ(direct, calls[i].direct) << "call " << i;
  }

  constexpr int kThreads = 4;
  trace::reset();
  trace::set_enabled(true);
  GemmEngine shared(DeviceId::Tahiti);
  std::vector<std::vector<std::vector<std::uint8_t>>> got(
      kThreads, std::vector<std::vector<std::uint8_t>>(calls.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread walks the list from a different offset, so different
      // kernels are in flight at once.
      for (std::size_t k = 0; k < calls.size(); ++k) {
        const std::size_t i = (k + 4 * static_cast<std::size_t>(t)) %
                              calls.size();
        bool direct = false;
        got[t][i] = run_call(shared, calls[i], 500 + i, &direct);
      }
    });
  for (auto& th : threads) th.join();
  const Json counters = trace::metrics_json().at("counters");
  trace::set_enabled(false);
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < calls.size(); ++i)
      EXPECT_EQ(got[t][i], want[i]) << "thread " << t << " call " << i;
  EXPECT_EQ(counters.at("interp.compiles").as_int(),
            static_cast<std::int64_t>(kernels.size()));
}

}  // namespace
}  // namespace gemmtune
