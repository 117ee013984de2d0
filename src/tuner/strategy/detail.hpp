// Shared machinery of the guided strategies: the measured-candidate record
// with its deterministic ordering, the hand-off to the shared finalist
// stage, and the parameter grid the stochastic strategy moves on.
// Internal to gemmtune_strategy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tuner/search.hpp"
#include "tuner/strategy/strategy.hpp"

namespace gemmtune::tuner::strategy::detail {

/// Per-implementation factories (one per translation unit); make_strategy
/// dispatches over these.
std::unique_ptr<SearchStrategy> make_exhaustive();
std::unique_ptr<SearchStrategy> make_model_topk();
std::unique_ptr<SearchStrategy> make_anneal();

/// splitmix64-style stream split: derives an independent per-chain seed
/// from the user seed, so parallel chains never share an RNG stream and
/// results cannot depend on scheduling.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One measured candidate. `index` is its position in the engine's
/// candidate space (SIZE_MAX for grid points the subsampled space does not
/// contain); `key` is the stable KernelParams::key() string. Ordering is
/// (GFlop/s desc, index asc, key asc) — fully deterministic.
struct Measured {
  codegen::KernelParams params;
  double gflops = 0;
  std::size_t index = static_cast<std::size_t>(-1);
  std::string key;
};

inline bool better(const Measured& a, const Measured& b) {
  if (a.gflops != b.gflops) return a.gflops > b.gflops;
  if (a.index != b.index) return a.index < b.index;
  return a.key < b.key;
}

/// Selects the winner from a strategy's measured set: sorts it by
/// `better`, drops repeated keys, and hands the ranking to
/// SearchEngine::finalist_stage — the stage 2 SearchEngine::tune runs on
/// its stage-1 scores.
TunedKernel select_winner(const SearchEngine& engine,
                          const SearchOptions& opt,
                          std::vector<Measured> measured,
                          SearchStats* stats);

/// The 14-axis discretized parameter grid (the enumerator's value lists
/// plus its selector dimensions). decode() applies the enumerator's
/// structural rules, the search restrictions and codegen::validate, so
/// every decodable point is a point the exhaustive walk could visit.
class Grid {
 public:
  static constexpr int kAxes = 14;
  using Coords = std::array<int, kAxes>;

  Grid(const SearchEngine& engine, const SearchOptions& opt);

  int axis_size(int axis) const { return sizes_[static_cast<std::size_t>(axis)]; }

  /// Grid point -> kernel params; nullopt when structurally invalid,
  /// restricted away, or rejected by validate().
  std::optional<codegen::KernelParams> decode(const Coords& c,
                                              codegen::Precision prec) const;

  /// Kernel params -> grid point; nullopt when a value is off-axis.
  std::optional<Coords> encode(const codegen::KernelParams& p) const;

 private:
  GridAxes axes_;
  std::array<int, kAxes> sizes_{};
  simcl::DeviceSpec dev_;
  std::optional<codegen::Algorithm> restrict_algo_;
  std::optional<bool> restrict_local_;
};

}  // namespace gemmtune::tuner::strategy::detail
