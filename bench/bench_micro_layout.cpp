// Micro bench of host packing, run as a deterministic check gated against
// bench/baselines/micro_layout.json: every layout's packed A buffer must
// match the PackedIndexer ground truth element by element and be
// byte-identical whether packed with 1 or 4 threads (the packing loops are
// tiled and parallel), and the exact element sums are gated too. Host
// wall-clock packing and reference-GEMM throughput are perfbench's
// layout.pack_gbs and hostblas.gflops (BENCHMARK.json). Any argument
// besides bench::init's flags is refused (exit 1).
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "layout/packing.hpp"

using namespace gemmtune;

namespace {

void packing_check() {
  bench::section("Packing determinism (all layouts, 1 vs 4 threads)");
  const index_t M = 200, K = 150;  // deliberately not blocking multiples
  Rng rng(11);
  // Transpose::Yes, so the stored matrix is K x M and the pack reads it
  // transposed: buffer element (k, m) = A.at(k, m).
  Matrix<double> A(K, M, StorageOrder::RowMajor);
  A.fill_random(rng);
  const auto e = packed_extents(M, 8, K, 32, 8, 16);
  bool identical = true, correct = true;
  for (const BlockLayout layout :
       {BlockLayout::RowMajor, BlockLayout::CBL, BlockLayout::RBL}) {
    set_thread_override(1);
    const auto one =
        pack_a(A, Transpose::Yes, M, K, e.Mp, e.Kp, layout, 32, 16);
    set_thread_override(4);
    const auto four =
        pack_a(A, Transpose::Yes, M, K, e.Mp, e.Kp, layout, 32, 16);
    identical = identical && one == four;
    // Ground truth: the (checked, per-element) PackedIndexer.
    const PackedIndexer idx(layout, e.Kp, e.Mp, 16, 32);
    double sum = 0;
    for (index_t m = 0; m < M && correct; ++m)
      for (index_t k = 0; k < K; ++k) {
        if (packed_at(one, idx, k, m) != A.at(k, m)) {
          correct = false;
          break;
        }
      }
    for (const double v : one) sum += v;
    bench::scalar(std::string("pack_a.sum.") + to_string(layout), sum);
  }
  set_thread_override(1);
  bench::scalar("pack_a.thread_invariant", identical ? 1 : 0);
  bench::scalar("pack_a.matches_indexer", correct ? 1 : 0);
  bench::note(strf("thread_invariant=%d matches_indexer=%d", identical ? 1 : 0,
                   correct ? 1 : 0));
}

}  // namespace

int main(int argc, char** argv) {
  gemmtune::bench::init("micro_layout", &argc, argv);
  if (gemmtune::bench::reject_unknown_arguments(argc, argv)) return 1;
  packing_check();
  return 0;
}
