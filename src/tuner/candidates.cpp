#include "tuner/candidates.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace gemmtune::tuner {

using codegen::Algorithm;
using codegen::KernelParams;
using codegen::Precision;

namespace {

// Discretized parameter values. Since the improved generator the paper
// describes, blocking factors are no longer restricted to powers of two
// (Section III-F), so multiples of 8/16/24 appear throughout.
constexpr int kMwg[] = {16, 32, 48, 64, 96, 128};
constexpr int kNwg[] = {16, 32, 48, 64, 96, 128};
constexpr int kKwg[] = {8, 16, 32, 48, 64, 96, 192};
constexpr int kDim[] = {4, 8, 16, 24, 32};
constexpr int kKwi[] = {1, 2, 4, 8, 16, 24};
constexpr int kVw[] = {1, 2, 4, 8};
constexpr Algorithm kAlgos[] = {Algorithm::BA, Algorithm::PL, Algorithm::DB};
constexpr BlockLayout kLayouts[] = {BlockLayout::CBL, BlockLayout::RBL,
                                    BlockLayout::RowMajor};

constexpr int isize(const auto& values) {
  return static_cast<int>(std::size(values));
}

constexpr std::array<int, Grid::kPrefixAxes> kPrefixSizes = {
    isize(kMwg), isize(kNwg), isize(kKwg), isize(kDim),
    isize(kDim), isize(kKwi), isize(kVw),
    4,             // share bits
    isize(kAlgos),
    2,             // MdimA reshape: natural or flat
    2};            // NdimB reshape: natural or flat

constexpr std::int64_t prefixes_per_block() {
  std::int64_t n = 1;
  for (int a = 2; a < Grid::kPrefixAxes; ++a) n *= kPrefixSizes[a];
  return n;
}
static_assert(prefixes_per_block() % 64 == 0,
              "each (Mwg, Nwg) block must own whole bitset words");

}  // namespace

Grid::Grid(const simcl::DeviceSpec& dev, bool include_row_major)
    : dev_(dev) {
  std::copy(kPrefixSizes.begin(), kPrefixSizes.end(), sizes_.begin());
  const int nl = include_row_major ? 3 : 2;
  sizes_[11] = 4;  // stride bits
  sizes_[12] = nl;
  sizes_[13] = nl;
}

int Grid::points_per_prefix() const {
  return sizes_[11] * sizes_[12] * sizes_[13];
}

int Grid::structural_miss(const Coords& c) const {
  const int Mwg = kMwg[c[0]];
  const int Nwg = kNwg[c[1]];
  const int MdimC = kDim[c[3]];
  const int NdimC = kDim[c[4]];
  // Heuristic: keep work-item tiles in the region the paper's generator
  // explored (Table II never exceeds Mwi=8, Nwi=12); 2012-era OpenCL
  // compilers could not keep larger register tiles resident without
  // catastrophic spilling.
  if (Mwg % MdimC != 0 || Mwg / MdimC > 8) return 3;
  const int wg = MdimC * NdimC;
  if (Nwg % NdimC != 0 || Nwg / NdimC > 12 || wg > dev_.max_workgroup_size ||
      wg < 16)
    return 4;
  if (kKwg[c[2]] % kKwi[c[5]] != 0) return 5;
  const int vw = kVw[c[6]];
  if ((Mwg / MdimC) % vw != 0 || (Nwg / NdimC) % vw != 0) return 6;
  // PL and DB stage through local memory: no share bits, BA only.
  if (kAlgos[c[8]] != Algorithm::BA && c[7] == 0) return 8;
  return -1;
}

KernelParams Grid::params_at(const Coords& c, Precision prec) const {
  KernelParams p;
  p.prec = prec;
  p.Mwg = kMwg[c[0]];
  p.Nwg = kNwg[c[1]];
  p.Kwg = kKwg[c[2]];
  p.MdimC = kDim[c[3]];
  p.NdimC = kDim[c[4]];
  p.Kwi = kKwi[c[5]];
  p.vw = kVw[c[6]];
  p.share_a = (c[7] & 1) != 0;
  p.share_b = (c[7] & 2) != 0;
  p.algo = kAlgos[c[8]];
  // Heuristic reshapes: natural (MdimC) and a flat one. When the
  // work-group is too small to flatten, both selectors give the natural
  // shape, so the walk visits it twice.
  const int wg = p.MdimC * p.NdimC;
  p.MdimA = c[9] != 0 && wg >= 2 * p.MdimC ? 2 * p.MdimC : p.MdimC;
  p.NdimB = c[10] != 0 && wg >= 2 * p.NdimC ? 2 * p.NdimC : p.NdimC;
  p.stride_m = (c[11] & 1) != 0;
  p.stride_n = (c[11] & 2) != 0;
  p.layout_a = kLayouts[c[12]];
  p.layout_b = kLayouts[c[13]];
  return p;
}

std::optional<KernelParams> Grid::decode(const Coords& c,
                                         Precision prec) const {
  if (structural_miss(c) >= 0) return std::nullopt;
  KernelParams p = params_at(c, prec);
  if (validate(p, dev_)) return std::nullopt;
  return p;
}

std::optional<Grid::Coords> Grid::encode(const KernelParams& p) const {
  const auto find_in = [](const auto& values, auto v,
                          int n) -> std::optional<int> {
    for (int i = 0; i < n; ++i)
      if (values[i] == v) return i;
    return std::nullopt;
  };
  const int nl = sizes_[12];
  const std::optional<int> found[] = {
      find_in(kMwg, p.Mwg, isize(kMwg)),
      find_in(kNwg, p.Nwg, isize(kNwg)),
      find_in(kKwg, p.Kwg, isize(kKwg)),
      find_in(kDim, p.MdimC, isize(kDim)),
      find_in(kDim, p.NdimC, isize(kDim)),
      find_in(kKwi, p.Kwi, isize(kKwi)),
      find_in(kVw, p.vw, isize(kVw)),
      (p.share_a ? 1 : 0) | (p.share_b ? 2 : 0),
      find_in(kAlgos, p.algo, isize(kAlgos)),
      p.MdimA == p.MdimC       ? std::optional<int>(0)
      : p.MdimA == 2 * p.MdimC ? std::optional<int>(1)
                               : std::nullopt,
      p.NdimB == p.NdimC       ? std::optional<int>(0)
      : p.NdimB == 2 * p.NdimC ? std::optional<int>(1)
                               : std::nullopt,
      (p.stride_m ? 1 : 0) | (p.stride_n ? 2 : 0),
      find_in(kLayouts, p.layout_a, nl),
      find_in(kLayouts, p.layout_b, nl)};
  Coords c{};
  for (int a = 0; a < kAxes; ++a) {
    if (!found[a]) return std::nullopt;
    c[a] = *found[a];
  }
  return c;
}

Grid::Coords Grid::coords(std::int64_t index) const {
  Coords c{};
  for (int a = kAxes - 1; a >= 0; --a) {
    c[a] = static_cast<int>(index % sizes_[a]);
    index /= sizes_[a];
  }
  return c;
}

Grid::Validity Grid::validity(Precision prec, ThreadPool& pool) const {
  const int blocks = sizes_[0] * sizes_[1];
  Validity v;
  v.bits.assign(static_cast<std::size_t>(blocks * prefixes_per_block() / 64),
                0);
  std::vector<std::pair<std::int64_t, std::int64_t>> counts(blocks);
  // Walks the prefixes of one (Mwg, Nwg) block in walk order. On a
  // structural miss at axis a, every prefix that agrees up to a misses
  // too, so the walk advances axis a and resets the axes below it.
  const auto scan = [&](int block) {
    auto& [structural, invalid] = counts[block];
    Coords c{};
    c[0] = block / sizes_[1];
    c[1] = block % sizes_[1];
    for (;;) {
      int axis = structural_miss(c);
      if (axis < 0) {
        ++structural;
        if (validate(params_at(c, prec), dev_)) {
          ++invalid;
        } else {
          std::int64_t i = 0;
          for (int a = 0; a < kPrefixAxes; ++a) i = i * sizes_[a] + c[a];
          v.bits[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1}
                                                      << (i % 64);
        }
        axis = kPrefixAxes - 1;
      }
      for (int a = axis + 1; a < kPrefixAxes; ++a) c[a] = 0;
      while (axis >= 2 && ++c[axis] == sizes_[axis]) c[axis--] = 0;
      if (axis < 2) return;
    }
  };
  pool.parallel_for(blocks, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t b = begin; b < end; ++b) scan(static_cast<int>(b));
  });
  for (const auto& [structural, invalid] : counts) {
    v.structural += structural;
    v.invalid += invalid;
  }
  return v;
}

namespace {

/// Rank -> grid point over the valid points of a Validity, in walk order:
/// rank r is point r % per under the (r / per)-th set bit.
class ValidPoints {
 public:
  ValidPoints(const std::vector<std::uint64_t>& bits, std::int64_t per)
      : bits_(bits), per_(static_cast<std::uint64_t>(per)) {
    // A prefix popcount sampled every kSpan words: before_[s] counts the
    // set bits before span s.
    before_.reserve(bits.size() / kSpan + 1);
    for (std::size_t w = 0; w < bits.size(); ++w) {
      if (w % kSpan == 0) before_.push_back(prefixes_);
      prefixes_ += static_cast<std::uint64_t>(std::popcount(bits[w]));
    }
  }

  std::uint64_t count() const { return prefixes_ * per_; }

  std::int64_t point(std::uint64_t rank) const {
    std::uint64_t k = rank / per_;  // the k-th valid prefix, from 0
    const auto span = static_cast<std::size_t>(
        std::upper_bound(before_.begin(), before_.end(), k) -
        before_.begin() - 1);
    k -= before_[span];
    std::size_t w = span * kSpan;
    for (;; ++w) {
      const auto in_word = static_cast<std::uint64_t>(std::popcount(bits_[w]));
      if (k < in_word) break;
      k -= in_word;
    }
    std::uint64_t word = bits_[w];
    for (; k > 0; --k) word &= word - 1;
    const std::uint64_t prefix =
        w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
    return static_cast<std::int64_t>(prefix * per_ + rank % per_);
  }

 private:
  static constexpr std::size_t kSpan = 8;
  const std::vector<std::uint64_t>& bits_;
  std::uint64_t per_;
  std::uint64_t prefixes_ = 0;
  std::vector<std::uint64_t> before_;
};

/// Reservoir subsample of the ranks [0, valid) into `budget` slots: the
/// first `budget` ranks fill the slots, and each later rank r draws
/// j = next_below(r + 1) and replaces slot j when j < budget. Returns the
/// kept rank of every slot. Draw d (rank budget + d) uses the generator's
/// d-th value, so each contiguous chunk of draws starts its own generator
/// at its offset and records its hits as (slot, rank); applying the
/// chunks' hits in chunk order is the serial walk's sequence of
/// replacements, for any chunking.
std::vector<std::uint64_t> reservoir_ranks(std::uint64_t valid,
                                           std::uint64_t budget,
                                           std::uint64_t seed,
                                           ThreadPool& pool) {
  std::vector<std::uint64_t> kept(std::min(valid, budget));
  std::iota(kept.begin(), kept.end(), std::uint64_t{0});
  if (valid <= budget) return kept;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> hits(
      static_cast<std::size_t>(pool.size()));
  pool.parallel_for(
      static_cast<std::int64_t>(valid - budget),
      [&](std::int64_t begin, std::int64_t end, int worker) {
        const std::uint64_t first = budget + static_cast<std::uint64_t>(begin);
        const std::uint64_t last = budget + static_cast<std::uint64_t>(end);
        // Rank r hits with probability budget / (r + 1): reserve the
        // expected count plus some slack, so the list rarely regrows.
        const double expected = static_cast<double>(budget) *
                                std::log(static_cast<double>(last) /
                                         static_cast<double>(first));
        auto& out = hits[static_cast<std::size_t>(worker)];
        out.reserve(static_cast<std::size_t>(
            expected + 4 * std::sqrt(expected) + 16));
        Rng rng(seed ^ 0xC0FFEEu);
        rng.discard(static_cast<std::uint64_t>(begin));
        for (std::uint64_t rank = first; rank < last; ++rank) {
          const std::uint64_t slot = rng.next_below(rank + 1);
          if (slot < budget) out.emplace_back(slot, rank);
        }
      });
  for (const auto& chunk : hits)
    for (const auto& [slot, rank] : chunk)
      kept[static_cast<std::size_t>(slot)] = rank;
  return kept;
}

}  // namespace

std::vector<KernelParams> enumerate_candidates(simcl::DeviceId id,
                                               Precision prec,
                                               const EnumOptions& opt,
                                               EnumStats* stats) {
  if (opt.max_candidates < 1)
    fail("enumerate_candidates: max_candidates must be >= 1, got " +
         std::to_string(opt.max_candidates));
  std::optional<ThreadPool> local_pool;
  if (opt.threads > 0) local_pool.emplace(opt.threads);
  ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
  const Grid grid(simcl::device_spec(id), opt.include_row_major);
  const std::int64_t per = grid.points_per_prefix();

  // Reservoir-sample the valid points into the budget so a huge space
  // degrades gracefully into a uniform subsample rather than a
  // prefix-biased one. The kept set depends only on the seed and the
  // sequence of valid points, not on the thread count. The bitset and
  // its index go before the kept points are decoded.
  EnumStats st;
  std::vector<std::uint64_t> kept;
  {
    const Grid::Validity v = grid.validity(prec, pool);
    st.raw_combinations = v.structural * per;
    st.invalid = v.invalid * per;
    st.valid = st.raw_combinations - st.invalid;
    const ValidPoints points(v.bits, per);
    kept = reservoir_ranks(points.count(),
                           static_cast<std::uint64_t>(opt.max_candidates),
                           opt.seed, pool);
    pool.parallel_for(static_cast<std::int64_t>(kept.size()),
                      [&](std::int64_t begin, std::int64_t end, int) {
                        for (auto i = static_cast<std::size_t>(begin);
                             i < static_cast<std::size_t>(end); ++i)
                          kept[i] = static_cast<std::uint64_t>(
                              points.point(kept[i]));
                      });
  }

  // Decode only the kept points and key each one once; each chunk sorts
  // its indices by key, and the sorted runs are merged pairwise. Equal
  // keys mean equal params, so this is the list one std::sort gives.
  const std::size_t n = kept.size();
  std::vector<KernelParams> params(n);
  std::vector<std::string> keys(n);
  std::vector<std::uint32_t> order(n);
  const auto by_key = [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b];
  };
  std::vector<std::pair<std::size_t, std::size_t>> runs(
      static_cast<std::size_t>(pool.size()));
  pool.parallel_for(
      static_cast<std::int64_t>(n),
      [&](std::int64_t begin, std::int64_t end, int worker) {
        const auto b = static_cast<std::size_t>(begin);
        const auto e = static_cast<std::size_t>(end);
        for (std::size_t i = b; i < e; ++i) {
          const auto p = grid.decode(
              grid.coords(static_cast<std::int64_t>(kept[i])), prec);
          if (!p) fail("enumerate_candidates: a kept point failed to decode");
          params[i] = *p;
          keys[i] = p->key();
          order[i] = static_cast<std::uint32_t>(i);
        }
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(b),
                  order.begin() + static_cast<std::ptrdiff_t>(e), by_key);
        runs[static_cast<std::size_t>(worker)] = {b, e};
      });
  std::erase_if(runs, [](const auto& r) { return r.first == r.second; });
  // Each round merges run 2i + 1 into run 2i (an odd last run is copied
  // as is), so the runs stay contiguous and in order.
  std::vector<std::uint32_t> merged(runs.size() > 1 ? n : 0);
  while (runs.size() > 1) {
    const std::size_t pairs = (runs.size() + 1) / 2;
    const auto hi = [&](std::size_t i) {
      return runs[std::min(2 * i + 1, runs.size() - 1)].second;
    };
    const auto at = [](std::vector<std::uint32_t>& v, std::size_t i) {
      return v.begin() + static_cast<std::ptrdiff_t>(i);
    };
    pool.parallel_for(
        static_cast<std::int64_t>(pairs),
        [&](std::int64_t begin, std::int64_t end, int) {
          for (auto i = static_cast<std::size_t>(begin);
               i < static_cast<std::size_t>(end); ++i) {
            const auto [lo, mid] = runs[2 * i];
            std::merge(at(order, lo), at(order, mid), at(order, mid),
                       at(order, hi(i)), at(merged, lo), by_key);
          }
        });
    for (std::size_t i = 0; i < pairs; ++i)
      runs[i] = {runs[2 * i].first, hi(i)};
    runs.resize(pairs);
    order.swap(merged);
  }
  std::vector<KernelParams> out;
  out.reserve(n);
  for (const std::uint32_t i : order) out.push_back(params[i]);
  if (stats) *stats = st;
  return out;
}

}  // namespace gemmtune::tuner
