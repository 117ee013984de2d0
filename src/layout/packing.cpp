#include "layout/packing.hpp"

#include <algorithm>
#include <limits>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace gemmtune {

PackedExtents packed_extents(index_t M, index_t N, index_t K, index_t Mwg,
                             index_t Nwg, index_t Kwg) {
  check(M > 0 && N > 0 && K > 0, "packed_extents: empty problem");
  check(Mwg > 0 && Nwg > 0 && Kwg > 0, "packed_extents: bad blocking");
  return PackedExtents{round_up(M, Mwg), round_up(N, Nwg), round_up(K, Kwg)};
}

PackedExtents checked_packed_extents(index_t M, index_t N, index_t K,
                                     index_t Mwg, index_t Nwg, index_t Kwg,
                                     index_t elem_bytes) {
  check(M > 0 && N > 0 && K > 0, "packed_extents: empty problem");
  check(Mwg > 0 && Nwg > 0 && Kwg > 0, "packed_extents: bad blocking");
  const auto pad = [](index_t x, index_t block, index_t* padded) {
    index_t up = 0;
    if (!add_fits(x, block - 1, &up)) return false;
    *padded = up / block * block;
    return true;
  };
  const auto bytes_fit = [elem_bytes](index_t rows, index_t cols) {
    index_t bytes = 0;
    return mul_fits(elem_bytes, rows, &bytes) && mul_fits(bytes, cols, &bytes);
  };
  PackedExtents e;
  if (!(pad(M, Mwg, &e.Mp) && pad(N, Nwg, &e.Np) && pad(K, Kwg, &e.Kp) &&
        bytes_fit(e.Mp, e.Kp) && bytes_fit(e.Kp, e.Np) &&
        bytes_fit(e.Mp, e.Np)))
    fail(strf("problem %lldx%lldx%lld: a padded operand of %lld-byte "
              "elements is over the limit of %lld bytes",
              static_cast<long long>(M), static_cast<long long>(N),
              static_cast<long long>(K), static_cast<long long>(elem_bytes),
              static_cast<long long>(std::numeric_limits<index_t>::max())));
  return e;
}

namespace {

// The pack loops avoid Matrix::at / PackedIndexer::at per element: both
// resolve strides and layout per call. Instead the source is read through
// two strides (one per logical index of the transposed operand) and the
// destination offset is computed per layout with the block coordinates
// hoisted out of the inner loops. Work is cut into cache-sized row tiles
// and the tiles are spread over the thread pool; every (row, col) pair is
// written by exactly one tile, and each element's value and location depend
// only on its indices, so the buffer is byte-identical at any thread count.
constexpr index_t kRowTile = 64;
constexpr index_t kColTile = 256;

// Strides of logical element (r, c) of op(X): offset = r * sr + c * sc.
template <typename T>
void op_strides(const Matrix<T>& X, Transpose trans, index_t* sr,
                index_t* sc) {
  const index_t rs = X.order() == StorageOrder::RowMajor ? X.ld() : 1;
  const index_t cs = X.order() == StorageOrder::RowMajor ? 1 : X.ld();
  *sr = trans == Transpose::No ? rs : cs;
  *sc = trans == Transpose::No ? cs : rs;
}

// Validates that op(X) covers rows x cols, with the same diagnostic the
// per-element Matrix accessor would have produced.
template <typename T>
void check_op_extent(const Matrix<T>& X, Transpose trans, index_t rows,
                     index_t cols) {
  const index_t pr = trans == Transpose::No ? rows : cols;
  const index_t pc = trans == Transpose::No ? cols : rows;
  check(pr <= X.rows() && pc <= X.cols(), "Matrix: index out of range");
}

// Copies the live `rows x cols` region into `dst`: dst[off(r, c)] =
// src[r * sr + c * sc]. The caller picks (sr, sc) so that the buffer's
// (row, col) indices address the right source element — swapping the
// operand's strides expresses a transpose-into-buffer with no extra code.
template <typename T, typename DstOff>
void pack_tiles(const T* src, index_t sr, index_t sc, index_t rows,
                index_t cols, T* dst, DstOff off) {
  const index_t n_rtiles = (rows + kRowTile - 1) / kRowTile;
  ThreadPool::global().parallel_for(
      n_rtiles, [&](std::int64_t tb, std::int64_t te, int) {
        for (index_t rt = tb; rt < te; ++rt) {
          const index_t r0 = rt * kRowTile;
          const index_t r1 = std::min(r0 + kRowTile, rows);
          for (index_t c0 = 0; c0 < cols; c0 += kColTile) {
            const index_t c1 = std::min(c0 + kColTile, cols);
            for (index_t r = r0; r < r1; ++r)
              for (index_t c = c0; c < c1; ++c)
                dst[off(r, c)] = src[r * sr + c * sc];
          }
        }
      });
}

// Layout-specialized destination offsets for a rows x cols packed matrix
// with (rblock, cblock) blocking; formulas match PackedIndexer::at.
template <typename T, typename F>
void dispatch_layout(BlockLayout layout, index_t rows, index_t cols,
                     index_t rblock, index_t cblock, F run) {
  (void)rows;
  switch (layout) {
    case BlockLayout::RowMajor:
      run([cols](index_t r, index_t c) { return r * cols + c; });
      return;
    case BlockLayout::CBL: {
      const index_t blk = rows * cblock;
      run([blk, cblock](index_t r, index_t c) {
        return (c / cblock) * blk + r * cblock + c % cblock;
      });
      return;
    }
    case BlockLayout::RBL: {
      const index_t rowblk = rblock * cols;
      const index_t blk = rblock * cblock;
      run([rowblk, blk, rblock, cblock](index_t r, index_t c) {
        return (r / rblock) * rowblk + (c / cblock) * blk +
               (r % rblock) * cblock + c % cblock;
      });
      return;
    }
  }
  fail("pack: bad layout");
}

}  // namespace

template <typename T>
std::vector<T> pack_a(const Matrix<T>& A, Transpose trans, index_t M,
                      index_t K, index_t Mp, index_t Kp, BlockLayout layout,
                      index_t Mwg, index_t Kwg) {
  PackedIndexer idx(layout, Kp, Mp, Kwg, Mwg);  // validates extents/blocking
  std::vector<T> buf(static_cast<std::size_t>(idx.size()), T{});
  // op(A) is M x K; the buffer stores op(A)^T, i.e. element (k, m).
  check_op_extent(A, trans, M, K);
  index_t sm = 0, sk = 0;
  op_strides(A, trans, &sm, &sk);
  dispatch_layout<T>(layout, Kp, Mp, Kwg, Mwg, [&](auto off) {
    // Buffer row index = k (stride sk in the source), column index = m.
    pack_tiles(A.data(), sk, sm, K, M, buf.data(), off);
  });
  return buf;
}

template <typename T>
std::vector<T> pack_b(const Matrix<T>& B, Transpose trans, index_t K,
                      index_t N, index_t Kp, index_t Np, BlockLayout layout,
                      index_t Kwg, index_t Nwg) {
  PackedIndexer idx(layout, Kp, Np, Kwg, Nwg);
  std::vector<T> buf(static_cast<std::size_t>(idx.size()), T{});
  // op(B) is K x N and is stored as-is: buffer element (k, n).
  check_op_extent(B, trans, K, N);
  index_t sk = 0, sn = 0;
  op_strides(B, trans, &sk, &sn);
  dispatch_layout<T>(layout, Kp, Np, Kwg, Nwg, [&](auto off) {
    pack_tiles(B.data(), sk, sn, K, N, buf.data(), off);
  });
  return buf;
}

template <typename T>
std::vector<T> pack_c(const Matrix<T>& C, index_t M, index_t N, index_t Mp,
                      index_t Np) {
  std::vector<T> buf(static_cast<std::size_t>(Mp * Np), T{});
  check_op_extent(C, Transpose::No, M, N);
  index_t sm = 0, sn = 0;
  op_strides(C, Transpose::No, &sm, &sn);
  T* dst = buf.data();
  const T* src = C.data();
  const index_t n_rtiles = (M + kRowTile - 1) / kRowTile;
  ThreadPool::global().parallel_for(
      n_rtiles, [&](std::int64_t tb, std::int64_t te, int) {
        for (index_t rt = tb; rt < te; ++rt) {
          const index_t m1 = std::min(rt * kRowTile + kRowTile, M);
          for (index_t m = rt * kRowTile; m < m1; ++m) {
            if (sn == 1) {
              std::copy_n(src + m * sm, N, dst + m * Np);
            } else {
              for (index_t n = 0; n < N; ++n)
                dst[m * Np + n] = src[m * sm + n * sn];
            }
          }
        }
      });
  return buf;
}

template <typename T>
void unpack_c(const std::vector<T>& buf, index_t Mp, index_t Np, Matrix<T>& C,
              index_t M, index_t N) {
  check(static_cast<index_t>(buf.size()) == Mp * Np, "unpack_c: bad buffer");
  check(M <= Mp && N <= Np, "unpack_c: live region exceeds buffer");
  check_op_extent(C, Transpose::No, M, N);
  index_t sm = 0, sn = 0;
  op_strides(C, Transpose::No, &sm, &sn);
  T* dst = C.data();
  const T* src = buf.data();
  const index_t n_rtiles = (M + kRowTile - 1) / kRowTile;
  ThreadPool::global().parallel_for(
      n_rtiles, [&](std::int64_t tb, std::int64_t te, int) {
        for (index_t rt = tb; rt < te; ++rt) {
          const index_t m1 = std::min(rt * kRowTile + kRowTile, M);
          for (index_t m = rt * kRowTile; m < m1; ++m) {
            if (sn == 1) {
              std::copy_n(src + m * Np, N, dst + m * sm);
            } else {
              for (index_t n = 0; n < N; ++n)
                dst[m * sm + n * sn] = src[m * Np + n];
            }
          }
        }
      });
}

BlockLayout block_layout_from_string(const std::string& s) {
  if (s == "RM") return BlockLayout::RowMajor;
  if (s == "CBL") return BlockLayout::CBL;
  if (s == "RBL") return BlockLayout::RBL;
  fail("unknown block layout '" + s + "'");
}

// Explicit instantiations for the two precisions the paper evaluates.
template std::vector<float> pack_a(const Matrix<float>&, Transpose, index_t,
                                   index_t, index_t, index_t, BlockLayout,
                                   index_t, index_t);
template std::vector<double> pack_a(const Matrix<double>&, Transpose, index_t,
                                    index_t, index_t, index_t, BlockLayout,
                                    index_t, index_t);
template std::vector<float> pack_b(const Matrix<float>&, Transpose, index_t,
                                   index_t, index_t, index_t, BlockLayout,
                                   index_t, index_t);
template std::vector<double> pack_b(const Matrix<double>&, Transpose, index_t,
                                    index_t, index_t, index_t, BlockLayout,
                                    index_t, index_t);
template std::vector<float> pack_c(const Matrix<float>&, index_t, index_t,
                                   index_t, index_t);
template std::vector<double> pack_c(const Matrix<double>&, index_t, index_t,
                                    index_t, index_t);
template void unpack_c(const std::vector<float>&, index_t, index_t,
                       Matrix<float>&, index_t, index_t);
template void unpack_c(const std::vector<double>&, index_t, index_t,
                       Matrix<double>&, index_t, index_t);

}  // namespace gemmtune
