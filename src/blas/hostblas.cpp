#include "blas/hostblas.hpp"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/intmath.hpp"

namespace gemmtune::hostblas {

namespace {

template <typename T>
T op_at(const Matrix<T>& X, Transpose t, index_t r, index_t c) {
  return t == Transpose::No ? X.at(r, c) : X.at(c, r);
}

template <typename T>
void check_shapes(Transpose ta, Transpose tb, index_t M, index_t N,
                  index_t K, const Matrix<T>& A, const Matrix<T>& B,
                  const Matrix<T>& C) {
  const index_t ar = ta == Transpose::No ? M : K;
  const index_t ac = ta == Transpose::No ? K : M;
  const index_t br = tb == Transpose::No ? K : N;
  const index_t bc = tb == Transpose::No ? N : K;
  check(A.rows() >= ar && A.cols() >= ac, "gemm: A too small");
  check(B.rows() >= br && B.cols() >= bc, "gemm: B too small");
  check(C.rows() >= M && C.cols() >= N, "gemm: C too small");
}

/// Element strides of op(X)(i, j) in X's storage: {along i, along j}.
template <typename T>
std::pair<index_t, index_t> op_strides(const Matrix<T>& X, Transpose t) {
  const bool col = X.order() == StorageOrder::ColMajor;
  const index_t rs = col ? 1 : X.ld(), cs = col ? X.ld() : 1;
  return t == Transpose::No ? std::pair{rs, cs} : std::pair{cs, rs};
}

constexpr index_t kBlock = 64;

// Computes rows [m0, m1) of C for the blocked algorithm, in blocks of
// kBlock along k, m and n. Every element is scaled by beta, then
// accumulates (alpha * a) * b over ascending k; the innermost loop runs
// along C's unit stride over raw pointers (the extents were validated by
// check_shapes).
template <typename T>
void blocked_rows(Transpose ta, Transpose tb, index_t m0, index_t m1,
                  index_t N, index_t K, T alpha, const Matrix<T>& A,
                  const Matrix<T>& B, T beta, Matrix<T>& C) {
  const auto [am, ak] = op_strides(A, ta);
  const auto [bk, bn] = op_strides(B, tb);
  const auto [cm, cn] = op_strides(C, Transpose::No);
  const T* const a = A.data();
  const T* const b = B.data();
  T* const c = C.data();
  for (index_t n = 0; n < N; ++n)
    for (index_t m = m0; m < m1; ++m)
      c[m * cm + n * cn] = beta * c[m * cm + n * cn];
  for (index_t kb = 0; kb < K; kb += kBlock) {
    const index_t ke = std::min(K, kb + kBlock);
    for (index_t mb = m0; mb < m1; mb += kBlock) {
      const index_t me = std::min(m1, mb + kBlock);
      for (index_t nb = 0; nb < N; nb += kBlock) {
        const index_t ne = std::min(N, nb + kBlock);
        if (cm == 1) {  // column-major C: run down each column
          for (index_t n = nb; n < ne; ++n) {
            T* const col = c + n * cn;
            for (index_t k = kb; k < ke; ++k) {
              const T bkn = b[k * bk + n * bn];
              for (index_t m = mb; m < me; ++m)
                col[m] += (alpha * a[m * am + k * ak]) * bkn;
            }
          }
        } else {  // row-major C: run along each row
          for (index_t m = mb; m < me; ++m) {
            T* const row = c + m * cm;
            for (index_t k = kb; k < ke; ++k) {
              const T amk = alpha * a[m * am + k * ak];
              for (index_t n = nb; n < ne; ++n)
                row[n] += amk * b[k * bk + n * bn];
            }
          }
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void gemm_naive(Transpose ta, Transpose tb, index_t M, index_t N, index_t K,
                T alpha, const Matrix<T>& A, const Matrix<T>& B, T beta,
                Matrix<T>& C) {
  check_shapes(ta, tb, M, N, K, A, B, C);
  for (index_t m = 0; m < M; ++m) {
    for (index_t n = 0; n < N; ++n) {
      T acc{};
      for (index_t k = 0; k < K; ++k)
        acc += op_at(A, ta, m, k) * op_at(B, tb, k, n);
      C.at(m, n) = alpha * acc + beta * C.at(m, n);
    }
  }
}

template <typename T>
void gemm_parallel(Transpose ta, Transpose tb, index_t M, index_t N,
                   index_t K, T alpha, const Matrix<T>& A,
                   const Matrix<T>& B, T beta, Matrix<T>& C, int threads) {
  check_shapes(ta, tb, M, N, K, A, B, C);
  int nt = threads > 0
               ? threads
               : static_cast<int>(std::thread::hardware_concurrency());
  if (nt < 1) nt = 1;
  nt = static_cast<int>(std::min<index_t>(nt, M));
  if (nt <= 1) {
    blocked_rows(ta, tb, index_t{0}, M, N, K, alpha, A, B, beta, C);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nt));
  const index_t chunk = ceil_div(M, nt);
  for (int t = 0; t < nt; ++t) {
    const index_t m0 = t * chunk;
    const index_t m1 = std::min(M, m0 + chunk);
    if (m0 >= m1) break;
    pool.emplace_back([&, m0, m1] {
      blocked_rows(ta, tb, m0, m1, N, K, alpha, A, B, beta, C);
    });
  }
  for (auto& th : pool) th.join();
}

template void gemm_naive(Transpose, Transpose, index_t, index_t, index_t,
                         float, const Matrix<float>&, const Matrix<float>&,
                         float, Matrix<float>&);
template void gemm_naive(Transpose, Transpose, index_t, index_t, index_t,
                         double, const Matrix<double>&,
                         const Matrix<double>&, double, Matrix<double>&);
template void gemm_parallel(Transpose, Transpose, index_t, index_t, index_t,
                            float, const Matrix<float>&,
                            const Matrix<float>&, float, Matrix<float>&,
                            int);
template void gemm_parallel(Transpose, Transpose, index_t, index_t, index_t,
                            double, const Matrix<double>&,
                            const Matrix<double>&, double, Matrix<double>&,
                            int);

}  // namespace gemmtune::hostblas
