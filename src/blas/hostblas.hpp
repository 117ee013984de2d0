// Host reference GEMM implementations.
//
// Two tiers: a naive triple loop (ground truth in tests) and a cache-blocked
// variant that splits C's rows over threads (one thread included). These play
// the role the authors' host-side verification code plays — every device
// kernel result is checked against them — and serve as the CPU fallback in
// the examples.
#pragma once

#include "layout/matrix.hpp"

namespace gemmtune::hostblas {

/// C <- alpha * op(A) * op(B) + beta * C, naive triple loop.
/// op(A) is M x K and op(B) is K x N; C is M x N.
template <typename T>
void gemm_naive(Transpose ta, Transpose tb, index_t M, index_t N, index_t K,
                T alpha, const Matrix<T>& A, const Matrix<T>& B, T beta,
                Matrix<T>& C);

/// Cache-blocked GEMM (same contract as gemm_naive), its rows split over
/// `threads` threads; `threads` <= 0 uses the hardware count.
template <typename T>
void gemm_parallel(Transpose ta, Transpose tb, index_t M, index_t N,
                   index_t K, T alpha, const Matrix<T>& A,
                   const Matrix<T>& B, T beta, Matrix<T>& C,
                   int threads = 0);

/// Acceptable elementwise tolerance for comparing a K-term accumulation in
/// precision T against the reference (forward-error style bound).
template <typename T>
double gemm_tolerance(index_t K) {
  const double eps = std::is_same_v<T, float> ? 1.2e-7 : 2.3e-16;
  return 8.0 * eps * static_cast<double>(K > 4 ? K : 4);
}

}  // namespace gemmtune::hostblas
