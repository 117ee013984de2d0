// Roofline anchors measured on one core of this host, like the
// single-threaded kernel launches they bound: an FMA-peak loop and a
// STREAM-triad loop. Built with -march=native -ffp-contract=fast (see
// CMakeLists.txt) so the peak loop uses the widest FMA the host has, as
// the native JIT does.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

namespace {

typedef double Vec __attribute__((vector_size(64)));  // 8 doubles
constexpr int kLanes = 8;
// Independent accumulator chains: enough to cover FMA latency on two
// ports, few enough to stay in registers.
constexpr int kChains = 12;

double fma_chains(std::int64_t iters, double seed) {
  Vec acc[kChains];
  for (int c = 0; c < kChains; ++c)
    for (int l = 0; l < kLanes; ++l) acc[c][l] = seed + c + 0.01 * l;
  Vec x, y;
  for (int l = 0; l < kLanes; ++l) {
    x[l] = 0.999999999;
    y[l] = 1e-9;
  }
  for (std::int64_t i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * x + y;
  double s = 0;
  for (int c = 0; c < kChains; ++c)
    for (int l = 0; l < kLanes; ++l) s += acc[c][l];
  return s;
}

}  // namespace

double fma_peak_gflops(double seconds) {
  // Calibrate the iteration count to roughly `seconds` per repetition.
  std::int64_t iters = 1 << 16;
  for (;;) {
    const double t0 = now_s();
    const double s = fma_chains(iters, 1.0);
    const double dt = now_s() - t0;
    if (!(s > 0)) throw std::runtime_error("fma loop produced no result");
    if (dt > seconds / 4) {
      iters = static_cast<std::int64_t>(double(iters) * seconds / dt) + 1;
      break;
    }
    iters *= 4;
  }
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    const double s = fma_chains(iters, 2.0 + rep);
    const double dt = now_s() - t0;
    if (!(s > 0)) throw std::runtime_error("fma loop produced no result");
    best = std::max(best, 2.0 * kLanes * kChains * double(iters) / dt / 1e9);
  }
  return best;
}

double triad_gbs(std::size_t array_bytes, int passes) {
  const std::size_t n = array_bytes / sizeof(double);
  const std::size_t bytes = (n * sizeof(double) + 63) / 64 * 64;
  double* a = static_cast<double*>(std::aligned_alloc(64, bytes));
  double* b = static_cast<double*>(std::aligned_alloc(64, bytes));
  double* c = static_cast<double*>(std::aligned_alloc(64, bytes));
  if (!a || !b || !c) {
    std::free(a);
    std::free(b);
    std::free(c);
    throw std::runtime_error("triad: cannot allocate arrays");
  }
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0;
    b[i] = 1.0 + double(i % 7);
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0;
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = now_s() - t0;
    // STREAM convention: two arrays read, one written (computed bytes,
    // not counting write-allocate traffic).
    best = std::max(best, 3.0 * double(n) * sizeof(double) / dt / 1e9);
  }
  const bool ok = n == 0 || a[n - 1] == b[n - 1] + s * c[n - 1];
  std::free(a);
  std::free(b);
  std::free(c);
  if (!ok) throw std::runtime_error("triad produced a wrong result");
  return best;
}

}  // namespace perfbench
