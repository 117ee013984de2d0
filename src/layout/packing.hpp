// Host-side packing: copy / transpose / re-layout / zero-pad operand
// matrices into kernel buffers (paper Sections III-D and IV-B).
//
// The GEMM implementation always executes the tuned A^T*B kernel, so every
// host operand is first packed:
//   A operand  -> K x M  transposed matrix, padded to Kp x Mp, layout L_A
//   B operand  -> K x N  matrix,            padded to Kp x Np, layout L_B
//   C operand  -> Mp x Np row-major buffer (input for the beta merge, output
//                 of the kernel)
// Padding uses zeros (the paper's "zero padding technique"), which leaves
// GEMM results unchanged in the live region.
#pragma once

#include <vector>

#include "layout/block_layout.hpp"
#include "layout/matrix.hpp"

namespace gemmtune {

/// Extents of the packed operand buffers for a (possibly padded) problem.
struct PackedExtents {
  index_t Mp = 0;  ///< M rounded up to a multiple of Mwg
  index_t Np = 0;  ///< N rounded up to a multiple of Nwg
  index_t Kp = 0;  ///< K rounded up to a multiple of Kwg
};

/// Computes padded extents for problem (M, N, K) under work-group blocking
/// (Mwg, Nwg, Kwg).
PackedExtents packed_extents(index_t M, index_t N, index_t K, index_t Mwg,
                             index_t Nwg, index_t Kwg);

/// packed_extents() for a problem whose operand byte sizes are computed in
/// int64 (the cost model, the dist simulation): throws gemmtune::Error,
/// naming the extents and the limit, unless the padding and the byte size
/// of every padded operand of `elem_bytes`-byte elements (Mp * Kp for A,
/// Kp * Np for B, Mp * Np for C) fit in int64.
PackedExtents checked_packed_extents(index_t M, index_t N, index_t K,
                                     index_t Mwg, index_t Nwg, index_t Kwg,
                                     index_t elem_bytes);

/// Packs the A operand. `op(A)` is logically M x K; `trans` says whether the
/// stored matrix `A` must be read transposed to obtain op(A). The result
/// holds op(A)^T — a Kp x Mp matrix — in `layout` with (Kwg, Mwg) blocking,
/// zero-padded.
template <typename T>
std::vector<T> pack_a(const Matrix<T>& A, Transpose trans, index_t M,
                      index_t K, index_t Mp, index_t Kp, BlockLayout layout,
                      index_t Mwg, index_t Kwg);

/// Packs the B operand. `op(B)` is logically K x N. The result holds op(B) —
/// a Kp x Np matrix — in `layout` with (Kwg, Nwg) blocking, zero-padded.
template <typename T>
std::vector<T> pack_b(const Matrix<T>& B, Transpose trans, index_t K,
                      index_t N, index_t Kp, index_t Np, BlockLayout layout,
                      index_t Kwg, index_t Nwg);

/// Packs C into a row-major Mp x Np buffer (zero-padded); the kernel reads
/// it for the beta merge and overwrites it with the result.
template <typename T>
std::vector<T> pack_c(const Matrix<T>& C, index_t M, index_t N, index_t Mp,
                      index_t Np);

/// Copies the live M x N region of a row-major Mp x Np kernel buffer back
/// into the host matrix C.
template <typename T>
void unpack_c(const std::vector<T>& buf, index_t Mp, index_t Np, Matrix<T>& C,
              index_t M, index_t N);

/// Reads element (r, c) of a packed operand buffer; test/debug helper that
/// inverts the pack step.
template <typename T>
T packed_at(const std::vector<T>& buf, const PackedIndexer& idx, index_t r,
            index_t c) {
  return buf[static_cast<std::size_t>(idx.at(r, c))];
}

}  // namespace gemmtune
