// Layout tests: matrix container invariants, block-layout index bijection
// and contiguity properties (Fig. 3), packing round trips with transposition
// and zero padding.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "layout/block_layout.hpp"
#include "layout/gemm_type.hpp"
#include "layout/matrix.hpp"
#include "layout/packing.hpp"
#include "scoped_threads.hpp"

namespace gemmtune {
namespace {

TEST(Matrix, StorageOrders) {
  Matrix<double> col(3, 2, StorageOrder::ColMajor);
  Matrix<double> row(3, 2, StorageOrder::RowMajor);
  col.at(2, 1) = 5;
  row.at(2, 1) = 5;
  EXPECT_EQ(col.data()[1 * 3 + 2], 5);
  EXPECT_EQ(row.data()[2 * 2 + 1], 5);
  EXPECT_THROW(col.at(3, 0), Error);
  EXPECT_THROW(col.at(0, 2), Error);
}

TEST(Matrix, TransposedCopy) {
  Rng rng(1);
  Matrix<float> a(4, 7);
  a.fill_random(rng);
  const Matrix<float> t = a.transposed();
  for (index_t r = 0; r < 4; ++r)
    for (index_t c = 0; c < 7; ++c) EXPECT_EQ(a.at(r, c), t.at(c, r));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix<double> a(2, 2), b(2, 2);
  a.at(1, 1) = 3.0;
  b.at(1, 1) = 2.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

class IndexerProps : public ::testing::TestWithParam<BlockLayout> {};

TEST_P(IndexerProps, IsABijection) {
  const PackedIndexer idx(GetParam(), 12, 8, 4, 2);
  std::set<std::int64_t> seen;
  for (std::int64_t r = 0; r < 12; ++r)
    for (std::int64_t c = 0; c < 8; ++c) {
      const std::int64_t o = idx.at(r, c);
      EXPECT_GE(o, 0);
      EXPECT_LT(o, idx.size());
      EXPECT_TRUE(seen.insert(o).second) << "collision at " << r << "," << c;
    }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(idx.size()));
}

TEST_P(IndexerProps, RejectsOutOfRange) {
  const PackedIndexer idx(GetParam(), 12, 8, 4, 2);
  EXPECT_THROW(idx.at(12, 0), Error);
  EXPECT_THROW(idx.at(0, 8), Error);
  EXPECT_THROW(idx.at(-1, 0), Error);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, IndexerProps,
                         ::testing::Values(BlockLayout::RowMajor,
                                           BlockLayout::CBL,
                                           BlockLayout::RBL),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Indexer, RowMajorIsRowMajor) {
  const PackedIndexer idx(BlockLayout::RowMajor, 4, 6, 2, 3);
  EXPECT_EQ(idx.at(0, 0), 0);
  EXPECT_EQ(idx.at(0, 5), 5);
  EXPECT_EQ(idx.at(2, 1), 13);
}

TEST(Indexer, CblColumnBlocksAreContiguous) {
  // In CBL, a whole rows x cblock column block occupies one contiguous
  // range (paper: "matrix data required for a multiplication of a
  // column-block ... are in contiguous memory space").
  const std::int64_t R = 8, C = 12, rb = 4, cb = 3;
  const PackedIndexer idx(BlockLayout::CBL, R, C, rb, cb);
  for (std::int64_t blk = 0; blk < C / cb; ++blk) {
    std::int64_t lo = idx.size(), hi = -1;
    for (std::int64_t r = 0; r < R; ++r)
      for (std::int64_t c = blk * cb; c < (blk + 1) * cb; ++c) {
        lo = std::min(lo, idx.at(r, c));
        hi = std::max(hi, idx.at(r, c));
      }
    EXPECT_EQ(hi - lo + 1, R * cb) << "block " << blk;
    EXPECT_EQ(lo % (R * cb), 0);
  }
}

TEST(Indexer, RblSubBlocksAreContiguous) {
  // In RBL, each rblock x cblock sub-block is contiguous (paper: data for a
  // sub-block multiplication "are in sequential memory space").
  const std::int64_t R = 8, C = 12, rb = 4, cb = 3;
  const PackedIndexer idx(BlockLayout::RBL, R, C, rb, cb);
  for (std::int64_t br = 0; br < R / rb; ++br) {
    for (std::int64_t bc = 0; bc < C / cb; ++bc) {
      std::int64_t lo = idx.size(), hi = -1;
      for (std::int64_t r = br * rb; r < (br + 1) * rb; ++r)
        for (std::int64_t c = bc * cb; c < (bc + 1) * cb; ++c) {
          lo = std::min(lo, idx.at(r, c));
          hi = std::max(hi, idx.at(r, c));
        }
      EXPECT_EQ(hi - lo + 1, rb * cb);
      EXPECT_EQ(lo % (rb * cb), 0);
    }
  }
}

TEST(Indexer, RowsWithinBlocksAreUnitStride) {
  // Every layout keeps a row contiguous within a column block — the
  // property the kernels' vector loads rely on.
  for (BlockLayout l :
       {BlockLayout::RowMajor, BlockLayout::CBL, BlockLayout::RBL}) {
    const PackedIndexer idx(l, 8, 12, 4, 4);
    for (std::int64_t r = 0; r < 8; ++r)
      for (std::int64_t c = 0; c + 1 < 12; ++c) {
        if (c / 4 == (c + 1) / 4) {
          EXPECT_EQ(idx.at(r, c + 1), idx.at(r, c) + 1)
              << to_string(l) << " at " << r << "," << c;
        }
      }
  }
}

TEST(Packing, ExtentsRoundUp) {
  const auto e = packed_extents(13, 11, 7, 8, 8, 4);
  EXPECT_EQ(e.Mp, 16);
  EXPECT_EQ(e.Np, 16);
  EXPECT_EQ(e.Kp, 8);
  EXPECT_THROW(packed_extents(0, 1, 1, 8, 8, 4), Error);
}

class PackRoundTrip
    : public ::testing::TestWithParam<std::tuple<BlockLayout, Transpose>> {};

TEST_P(PackRoundTrip, AOperandHoldsOpATransposed) {
  const auto [layout, trans] = GetParam();
  const index_t M = 13, K = 7, Mwg = 8, Kwg = 4;
  const auto e = packed_extents(M, 8, K, Mwg, 8, Kwg);
  Rng rng(3);
  // Stored matrix: M x K when not transposed, K x M when transposed.
  Matrix<double> A(trans == Transpose::No ? M : K,
                   trans == Transpose::No ? K : M);
  A.fill_random(rng);
  const auto buf = pack_a(A, trans, M, K, e.Mp, e.Kp, layout, Mwg, Kwg);
  const PackedIndexer idx(layout, e.Kp, e.Mp, Kwg, Mwg);
  for (index_t k = 0; k < e.Kp; ++k) {
    for (index_t m = 0; m < e.Mp; ++m) {
      const double got = packed_at(buf, idx, k, m);
      if (k < K && m < M) {
        const double want =
            trans == Transpose::No ? A.at(m, k) : A.at(k, m);
        EXPECT_EQ(got, want) << k << "," << m;
      } else {
        EXPECT_EQ(got, 0.0) << "padding not zero at " << k << "," << m;
      }
    }
  }
}

TEST_P(PackRoundTrip, BOperandHoldsOpB) {
  const auto [layout, trans] = GetParam();
  const index_t K = 7, N = 11, Kwg = 4, Nwg = 8;
  const auto e = packed_extents(8, N, K, 8, Nwg, Kwg);
  Rng rng(4);
  Matrix<float> B(trans == Transpose::No ? K : N,
                  trans == Transpose::No ? N : K);
  B.fill_random(rng);
  const auto buf = pack_b(B, trans, K, N, e.Kp, e.Np, layout, Kwg, Nwg);
  const PackedIndexer idx(layout, e.Kp, e.Np, Kwg, Nwg);
  for (index_t k = 0; k < e.Kp; ++k)
    for (index_t n = 0; n < e.Np; ++n) {
      const float got = packed_at(buf, idx, k, n);
      if (k < K && n < N) {
        EXPECT_EQ(got, trans == Transpose::No ? B.at(k, n) : B.at(n, k));
      } else {
        EXPECT_EQ(got, 0.0f);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackRoundTrip,
    ::testing::Combine(::testing::Values(BlockLayout::RowMajor,
                                         BlockLayout::CBL, BlockLayout::RBL),
                       ::testing::Values(Transpose::No, Transpose::Yes)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) == Transpose::Yes ? "_T" : "_N");
    });

TEST(Packing, CRoundTrip) {
  const index_t M = 5, N = 6, Mp = 8, Np = 8;
  Rng rng(5);
  Matrix<double> C(M, N);
  C.fill_random(rng);
  const auto buf = pack_c(C, M, N, Mp, Np);
  Matrix<double> back(M, N);
  unpack_c(buf, Mp, Np, back, M, N);
  EXPECT_EQ(max_abs_diff(C, back), 0.0);
  // Padding is zero.
  EXPECT_EQ(buf[static_cast<std::size_t>(0 * Np + 7)], 0.0);
  EXPECT_EQ(buf[static_cast<std::size_t>(7 * Np + 0)], 0.0);
}

TEST(Packing, ThreadCountLeavesEveryBufferByteIdentical) {
  // Every pack loop cuts the rows into 64-row tiles spread over the global
  // pool, and each element's value and location depend only on its
  // indices. Extents are multiples of neither the blocking nor the tile,
  // and each loop has at least five tiles, so every one of four workers
  // gets one.
  const index_t M = 330, N = 203, K = 297, Mwg = 32, Nwg = 16, Kwg = 8;
  const auto e = packed_extents(M, N, K, Mwg, Nwg, Kwg);
  Rng rng(13);
  Matrix<double> A(M, K), At(K, M), B(K, N), Bt(N, K);
  Matrix<double> Ccol(M, N), Crow(M, N, StorageOrder::RowMajor);
  for (Matrix<double>* x : {&A, &At, &B, &Bt, &Ccol, &Crow})
    x->fill_random(rng);
  const auto pack_all = [&](int threads) {
    const ScopedThreadOverride pin(threads);
    std::vector<std::vector<double>> bufs;
    for (BlockLayout layout :
         {BlockLayout::RowMajor, BlockLayout::CBL, BlockLayout::RBL}) {
      bufs.push_back(
          pack_a(A, Transpose::No, M, K, e.Mp, e.Kp, layout, Mwg, Kwg));
      bufs.push_back(
          pack_a(At, Transpose::Yes, M, K, e.Mp, e.Kp, layout, Mwg, Kwg));
      bufs.push_back(
          pack_b(B, Transpose::No, K, N, e.Kp, e.Np, layout, Kwg, Nwg));
      bufs.push_back(
          pack_b(Bt, Transpose::Yes, K, N, e.Kp, e.Np, layout, Kwg, Nwg));
    }
    for (const Matrix<double>* c : {&Ccol, &Crow}) {
      bufs.push_back(pack_c(*c, M, N, e.Mp, e.Np));
      Matrix<double> back(M, N, c->order());
      unpack_c(bufs.back(), e.Mp, e.Np, back, M, N);
      bufs.emplace_back(back.data(), back.data() + back.size());
    }
    return bufs;
  };
  const auto one = pack_all(1);
  const auto four = pack_all(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].size(), four[i].size()) << i;
    EXPECT_EQ(std::memcmp(one[i].data(), four[i].data(),
                          one[i].size() * sizeof(double)),
              0)
        << "buffer " << i;
  }
}

TEST(GemmTypeHelpers, MapBothWays) {
  EXPECT_EQ(gemm_type_of(Transpose::No, Transpose::No), GemmType::NN);
  EXPECT_EQ(gemm_type_of(Transpose::Yes, Transpose::No), GemmType::TN);
  for (GemmType t : all_gemm_types()) {
    EXPECT_EQ(gemm_type_of(trans_a(t), trans_b(t)), t);
  }
  EXPECT_STREQ(to_string(GemmType::NT), "NT");
}

TEST(BlockLayoutNames, RoundTrip) {
  for (BlockLayout l :
       {BlockLayout::RowMajor, BlockLayout::CBL, BlockLayout::RBL}) {
    EXPECT_EQ(block_layout_from_string(to_string(l)), l);
  }
  EXPECT_THROW(block_layout_from_string("XYZ"), Error);
}

}  // namespace
}  // namespace gemmtune
