// Model-ranked top-K (tritonBLAS-style analytical pre-selection): rank the
// FULL candidate space with the analytic performance model — a pure
// arithmetic pass, free relative to a real-hardware measurement — then
// measure only the top-K sliver and run the standard finalist sweep over
// it. On real hardware the ranking pass costs microseconds per candidate
// while each measurement costs a kernel launch; here the budget accounting
// is what the quality gate audits.
#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "tuner/strategy/detail.hpp"

namespace gemmtune::tuner::strategy::detail {

namespace {

class ModelTopKStrategy final : public SearchStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::ModelTopK; }

  TunedKernel run(const SearchEngine& engine, codegen::Precision prec,
                  const SearchOptions& opt, const StrategySpec& spec,
                  StrategyStats* stats) const override {
    StrategyStats st;
    const std::int64_t budget = spec.budget > 0 ? spec.budget : 64;
    const std::vector<codegen::KernelParams>& candidates =
        engine.candidate_space(prec, opt, &st.search.enumeration);
    check(!candidates.empty(), "model_topk: no valid candidates for device");
    st.space = static_cast<std::int64_t>(candidates.size());
    st.model_ranked = st.space;

    // Rank every candidate analytically: one score per candidate index,
    // written by whichever worker holds the index, so the scores are the
    // same for any thread count.
    std::optional<ThreadPool> local_pool;
    if (opt.threads > 0) local_pool.emplace(opt.threads);
    ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
    std::vector<double> score(candidates.size());
    pool.parallel_for(
        static_cast<std::int64_t>(candidates.size()),
        [&](std::int64_t begin, std::int64_t end, int) {
          for (auto i = static_cast<std::size_t>(begin);
               i < static_cast<std::size_t>(end); ++i)
            score[i] = engine.measure_candidate(candidates[i], opt);
        });
    std::vector<std::size_t> order;
    order.reserve(candidates.size());
    for (std::size_t i = 0; i < score.size(); ++i)
      if (score[i] > 0) order.push_back(i);
    check(!order.empty(), "model_topk: every candidate failed the model");

    // Only the top-K sliver is "measured" (counts toward the budget).
    // Indices are unique, so (score desc, index asc) is `better`'s order
    // without the keys; only the kept sliver needs them (select_winner
    // dedupes by key).
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(budget), order.size());
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(k),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        if (score[a] != score[b]) return score[a] > score[b];
                        return a < b;
                      });
    std::vector<Measured> ranked;
    ranked.reserve(k);
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t i = order[r];
      ranked.push_back({candidates[i], score[i], i, candidates[i].key()});
    }
    st.measured = static_cast<std::int64_t>(k);
    st.search.stage1_evaluated = static_cast<std::int64_t>(k);

    TunedKernel t = select_winner(engine, opt, std::move(ranked), &st.search);
    if (stats) {
      stats->space = st.space;
      stats->measured = st.measured;
      stats->model_ranked = st.model_ranked;
      stats->search = std::move(st.search);
    }
    return t;
  }
};

}  // namespace

std::unique_ptr<SearchStrategy> make_model_topk() {
  return std::make_unique<ModelTopKStrategy>();
}

}  // namespace gemmtune::tuner::strategy::detail
