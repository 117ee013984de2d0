#include "tuner/candidates.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
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

Grid::Validity Grid::validity(Precision prec, int threads) const {
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
  std::optional<ThreadPool> local_pool;
  if (threads > 0) local_pool.emplace(threads);
  ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
  pool.parallel_for(blocks, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t b = begin; b < end; ++b) scan(static_cast<int>(b));
  });
  for (const auto& [structural, invalid] : counts) {
    v.structural += structural;
    v.invalid += invalid;
  }
  return v;
}

std::vector<KernelParams> enumerate_candidates(simcl::DeviceId id,
                                               Precision prec,
                                               const EnumOptions& opt,
                                               EnumStats* stats) {
  check(opt.max_candidates >= 1,
        "enumerate_candidates: max_candidates must be >= 1, got " +
            std::to_string(opt.max_candidates));
  const Grid grid(simcl::device_spec(id), opt.include_row_major);
  const Grid::Validity v = grid.validity(prec, opt.threads);
  const std::int64_t per = grid.points_per_prefix();

  // Reservoir-sample the valid points into the budget so a huge space
  // degrades gracefully into a uniform subsample rather than a
  // prefix-biased one. It runs serially in walk order and draws one number
  // per valid point past the budget, so the kept set depends only on the
  // seed and the sequence of valid points, not on the thread count.
  const auto budget = static_cast<std::uint64_t>(opt.max_candidates);
  std::vector<std::int64_t> kept;
  Rng rng(opt.seed ^ 0xC0FFEEu);
  std::uint64_t seen = 0;
  for (std::size_t w = 0; w < v.bits.size(); ++w) {
    for (std::uint64_t word = v.bits[w]; word != 0; word &= word - 1) {
      const std::int64_t first =
          (static_cast<std::int64_t>(w) * 64 + std::countr_zero(word)) * per;
      for (std::int64_t point = first; point < first + per; ++point) {
        if (++seen <= budget) {
          kept.push_back(point);
          continue;
        }
        const std::uint64_t j = rng.next_below(seen);
        if (j < budget) kept[static_cast<std::size_t>(j)] = point;
      }
    }
  }

  // Decode only the kept points, and key each one once for the sort.
  std::vector<std::pair<std::string, KernelParams>> keyed;
  keyed.reserve(kept.size());
  for (const std::int64_t point : kept) {
    const auto p = grid.decode(grid.coords(point), prec);
    if (!p) fail("enumerate_candidates: a kept point failed to decode");
    keyed.emplace_back(p->key(), *p);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<KernelParams> out;
  out.reserve(keyed.size());
  for (const auto& kp : keyed) out.push_back(kp.second);

  if (stats) {
    stats->raw_combinations = v.structural * per;
    stats->invalid = v.invalid * per;
    stats->valid = stats->raw_combinations - stats->invalid;
  }
  return out;
}

}  // namespace gemmtune::tuner
