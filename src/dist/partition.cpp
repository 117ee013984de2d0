#include "dist/partition.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace gemmtune::dist {

TileGrid::TileGrid(index_t M_, index_t N_, index_t K_, index_t tm,
                   index_t tn)
    : M(M_), N(N_), K(K_), tile_m(tm), tile_n(tn) {
  check(M_ > 0 && N_ > 0 && K_ > 0, "TileGrid: empty problem");
  check(tm > 0 && tn > 0, "TileGrid: empty tile");
  // Neither the ceiling division nor rows * cols may overflow: extents
  // come straight from traces and specs.
  rows = M_ / tm + (M_ % tm != 0 ? 1 : 0);
  cols = N_ / tn + (N_ % tn != 0 ? 1 : 0);
  check(rows <= kMaxTiles / cols,
        strf("dist: a %lldx%lld output in %lldx%lld tiles is a %lld x %lld "
             "grid, over the limit of %lld tiles",
             static_cast<long long>(M_), static_cast<long long>(N_),
             static_cast<long long>(tm), static_cast<long long>(tn),
             static_cast<long long>(rows), static_cast<long long>(cols),
             static_cast<long long>(kMaxTiles)));
}

std::vector<std::int64_t> proportional_split(
    const std::vector<double>& weights, std::int64_t total) {
  check(!weights.empty(), "proportional_split: no weights");
  check(total >= 0, "proportional_split: negative total");
  const std::size_t n = weights.size();
  std::vector<double> w(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = (std::isfinite(weights[i]) && weights[i] > 0) ? weights[i] : 0;
    sum += w[i];
  }
  if (sum <= 0) {
    // Degenerate fleet: no usable weights — split as evenly as possible,
    // earlier devices taking the extra units.
    std::vector<std::int64_t> shares(n, total / static_cast<std::int64_t>(n));
    for (std::int64_t i = 0; i < total % static_cast<std::int64_t>(n); ++i)
      shares[static_cast<std::size_t>(i)] += 1;
    return shares;
  }
  std::vector<std::int64_t> shares(n);
  std::vector<std::pair<double, std::size_t>> remainder(n);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota = static_cast<double>(total) * w[i] / sum;
    shares[i] = static_cast<std::int64_t>(std::floor(quota));
    assigned += shares[i];
    remainder[i] = {quota - std::floor(quota), i};
  }
  // Hand the leftover units to the largest fractional remainders; ties go
  // to the lower device index so the split never depends on sort
  // implementation details.
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::int64_t i = 0; i < total - assigned; ++i)
    shares[remainder[static_cast<std::size_t>(i)].second] += 1;
  return shares;
}

std::vector<std::int64_t> partition_starts(
    const std::vector<std::int64_t>& shares) {
  std::vector<std::int64_t> starts(shares.size());
  std::int64_t at = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    starts[i] = at;
    at += shares[i];
  }
  return starts;
}

}  // namespace gemmtune::dist
