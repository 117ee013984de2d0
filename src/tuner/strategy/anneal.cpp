// Seeded simulated annealing over the parameter grid (CLTune-style).
//
// The budget is split across independent restart chains. Each chain owns a
// deterministic RNG stream derived from (seed, chain index), walks the
// 14-axis grid with single-axis ±1 neighbor moves (random jump when a
// neighborhood is exhausted), and accepts downhill moves with Metropolis
// probability under a geometric temperature schedule. Chain 0 warm-starts
// at the paper's Table II kernel when the search is seeded with it; the
// remaining chains warm-start at the analytic model's top-ranked
// candidates (the ranking pass is free, like model_topk's pre-selection —
// only measurements consume budget), so with R restarts the measured set
// always contains the model's top R-1 kernels plus the Table II seed.
//
// Chains run in parallel but are fully independent and merged in chain
// order, so the result is bit-identical for any --threads.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tuner/strategy/detail.hpp"

namespace gemmtune::tuner::strategy::detail {

namespace {

constexpr double kTempStart = 0.10;  ///< initial relative-delta temperature
constexpr double kTempEnd = 0.005;   ///< final temperature
constexpr std::uint64_t kChainSalt = 0xA11EA7ED;

struct ChainOut {
  std::vector<Measured> fresh;  ///< first measurements, in chain order
  std::int64_t proposals = 0;
  std::int64_t invalid = 0;
};

class AnnealStrategy final : public SearchStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::Anneal; }

  TunedKernel run(const SearchEngine& engine, codegen::Precision prec,
                  const SearchOptions& opt, const StrategySpec& spec,
                  StrategyStats* stats) const override {
    StrategyStats st;
    const std::int64_t budget = spec.budget > 0 ? spec.budget : 256;
    const std::vector<codegen::KernelParams> candidates =
        engine.candidate_space(prec, opt, &st.search.enumeration);
    check(!candidates.empty(), "anneal: no valid candidates for device");
    st.space = static_cast<std::int64_t>(candidates.size());

    // Index of every in-space key, for deterministic tie-breaks.
    std::unordered_map<std::string, std::size_t> space_index;
    space_index.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
      space_index.emplace(candidates[i].key(), i);

    const Grid grid(engine.model().spec(), opt.enumeration.include_row_major);
    const int restarts = std::max(
        1, std::min<int>(spec.restarts, static_cast<int>(budget)));

    // Rank the space analytically once and warm-start chains 1..R-1 at the
    // model's top candidates. The ranking pass is pure arithmetic (free on
    // real hardware relative to a measurement); the elite starts are
    // measured like any other visit, so the budget accounting is unchanged
    // — this only replaces uniform random starting points with the model's
    // best guesses.
    std::vector<std::size_t> elite;  // candidate indices, model-rank order
    if (restarts > 1) {
      std::vector<Measured> ranked;
      ranked.reserve(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double g = engine.measure_candidate(candidates[i], opt);
        if (g > 0) ranked.push_back({candidates[i], g, i, candidates[i].key()});
      }
      const std::size_t k = std::min<std::size_t>(
          ranked.size(), static_cast<std::size_t>(restarts - 1));
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<std::ptrdiff_t>(k),
                        ranked.end(), better);
      elite.reserve(k);
      for (std::size_t i = 0; i < k; ++i) elite.push_back(ranked[i].index);
      st.model_ranked = st.space;
    }

    std::vector<ChainOut> chains(static_cast<std::size_t>(restarts));
    std::optional<ThreadPool> local_pool;
    if (opt.threads > 0) local_pool.emplace(opt.threads);
    ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
    pool.parallel_for(
        restarts, [&](std::int64_t begin, std::int64_t end, int) {
          for (std::int64_t r = begin; r < end; ++r)
            run_chain(engine, opt, prec, spec, candidates, space_index, grid,
                      elite, budget, restarts, static_cast<int>(r),
                      chains[static_cast<std::size_t>(r)]);
        });

    // Merge in chain order; keep the first (lowest-chain) record of each
    // key so st.measured counts distinct kernels.
    std::vector<Measured> measured;
    std::unordered_map<std::string, bool> seen;
    for (const ChainOut& co : chains) {
      st.proposals += co.proposals;
      st.proposals_invalid += co.invalid;
      for (const Measured& m : co.fresh) {
        if (!seen.emplace(m.key, true).second) continue;
        measured.push_back(m);
      }
    }
    st.measured = static_cast<std::int64_t>(measured.size());
    st.search.stage1_evaluated = st.measured;
    TunedKernel t =
        select_winner(engine, opt, std::move(measured), &st.search);
    if (stats) *stats = std::move(st);
    return t;
  }

 private:
  static void run_chain(
      const SearchEngine& engine, const SearchOptions& opt,
      codegen::Precision prec, const StrategySpec& spec,
      const std::vector<codegen::KernelParams>& candidates,
      const std::unordered_map<std::string, std::size_t>& space_index,
      const Grid& grid, const std::vector<std::size_t>& elite,
      std::int64_t budget, int restarts, int chain, ChainOut& out) {
    // Distribute the budget: earlier chains absorb the remainder.
    const std::int64_t base = budget / restarts;
    std::int64_t chain_budget =
        base + (chain < static_cast<int>(budget % restarts) ? 1 : 0);
    if (chain_budget <= 0) return;

    Rng rng(mix_seed(spec.seed, kChainSalt + static_cast<std::uint64_t>(chain)));
    const auto random_start = [&]() -> Grid::Coords {
      // Encoding an enumerated candidate always succeeds (the space is a
      // subset of the grid), so this terminates on the first draw.
      for (;;) {
        const auto idx = rng.next_below(candidates.size());
        if (const auto c =
                grid.encode(candidates[static_cast<std::size_t>(idx)]))
          return *c;
      }
    };

    Grid::Coords cur{};
    std::optional<Grid::Coords> start;
    if (chain == 0 && opt.seed_with_table2) {
      // The Table II seed is appended last by candidate_space.
      start = grid.encode(candidates.back());
    } else if (chain >= 1 &&
               static_cast<std::size_t>(chain - 1) < elite.size()) {
      // Model-elite warm start: chain r begins at the model's rank-(r-1)
      // candidate, so the chain measures it before walking away.
      start = grid.encode(candidates[elite[static_cast<std::size_t>(chain - 1)]]);
    }
    cur = start ? *start : random_start();

    // Per-chain memo: re-visiting a kernel is free (the chain remembers
    // its measurement), only first measurements consume budget.
    std::map<std::string, double> memo;
    std::int64_t measured_count = 0;
    const auto measure = [&](const codegen::KernelParams& p) -> double {
      const std::string key = p.key();
      if (const auto it = memo.find(key); it != memo.end())
        return it->second;
      const double g = engine.measure_candidate(p, opt);
      memo.emplace(key, g);
      ++measured_count;
      if (g > 0) {
        const auto it = space_index.find(key);
        const std::size_t idx = it != space_index.end()
                                    ? it->second
                                    : static_cast<std::size_t>(-1);
        out.fresh.push_back({p, g, idx, key});
      }
      return g;
    };

    // The grid holds no search restrictions; points they exclude are off
    // the space like any point that fails to decode.
    const auto decode = [&](const Grid::Coords& c) {
      auto p = grid.decode(c, prec);
      if (p && !opt.admits(*p)) p.reset();
      return p;
    };

    auto p_cur = decode(cur);
    check(p_cur.has_value(), "anneal: start point failed to decode");
    double g_cur = measure(*p_cur);

    // Propose/accept until the chain's measurement budget is spent. The
    // proposal cap bounds the walk when the budget exceeds the reachable
    // neighborhood.
    const std::int64_t max_proposals = 64 * chain_budget + 256;
    std::int64_t step = 0;
    while (measured_count < chain_budget &&
           out.proposals < max_proposals) {
      // Geometric cooling over the chain's measurement budget.
      const double frac =
          static_cast<double>(step) /
          static_cast<double>(std::max<std::int64_t>(1, chain_budget));
      const double temp =
          kTempStart * std::pow(kTempEnd / kTempStart, std::min(1.0, frac));
      // Single-axis ±1 move with reflection at the ends; after 16 failed
      // decodes, jump to a random in-space point instead.
      std::optional<codegen::KernelParams> p_next;
      Grid::Coords next = cur;
      for (int attempt = 0; attempt < 16 && !p_next; ++attempt) {
        next = cur;
        const int axis =
            static_cast<int>(rng.next_below(Grid::kAxes));
        const int size = grid.axis_size(axis);
        if (size < 2) continue;
        int v = next[static_cast<std::size_t>(axis)] +
                (rng.next_below(2) == 0 ? 1 : -1);
        if (v < 0) v = 1;
        if (v >= size) v = size - 2;
        next[static_cast<std::size_t>(axis)] = v;
        ++out.proposals;
        p_next = decode(next);
        if (!p_next) ++out.invalid;
      }
      if (!p_next) {
        next = random_start();
        ++out.proposals;
        p_next = decode(next);
        if (!p_next) {
          ++out.invalid;
          continue;
        }
      }
      const double g_next = measure(*p_next);
      ++step;
      if (g_next <= 0) continue;
      bool accept = g_next >= g_cur;
      if (!accept && g_cur > 0) {
        const double delta_rel = (g_next - g_cur) / g_cur;
        accept = rng.next_double() < std::exp(delta_rel / temp);
      }
      if (accept) {
        cur = next;
        g_cur = g_next;
      }
    }
  }
};

}  // namespace

std::unique_ptr<SearchStrategy> make_anneal() {
  return std::make_unique<AnnealStrategy>();
}

}  // namespace gemmtune::tuner::strategy::detail
