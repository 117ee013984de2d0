// Model-ranked top-K (tritonBLAS-style analytical pre-selection): rank the
// FULL candidate space with the analytic performance model — a pure
// arithmetic pass, free relative to a real-hardware measurement — then
// measure only the top-K sliver and run the standard finalist sweep over
// it. On real hardware the ranking pass costs microseconds per candidate
// while each measurement costs a kernel launch; here the budget accounting
// is what the quality gate audits.
#include <algorithm>
#include <iterator>
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
    const std::vector<codegen::KernelParams> candidates =
        engine.candidate_space(prec, opt, &st.search.enumeration);
    check(!candidates.empty(), "model_topk: no valid candidates for device");
    st.space = static_cast<std::int64_t>(candidates.size());
    st.model_ranked = st.space;

    // Rank every candidate analytically. Contiguous chunks merged in
    // worker order keep the ranked list in candidate-index order for any
    // thread count (the same discipline as the exhaustive stage 1).
    std::optional<ThreadPool> local_pool;
    if (opt.threads > 0) local_pool.emplace(opt.threads);
    ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
    const auto workers = static_cast<std::size_t>(pool.size());
    std::vector<std::vector<Measured>> part(workers);
    pool.parallel_for(
        static_cast<std::int64_t>(candidates.size()),
        [&](std::int64_t begin, std::int64_t end, int worker) {
          auto& out = part[static_cast<std::size_t>(worker)];
          for (std::int64_t i = begin; i < end; ++i) {
            const auto& p = candidates[static_cast<std::size_t>(i)];
            const double g = engine.measure_candidate(p, opt);
            if (g <= 0) continue;
            out.push_back({p, g, static_cast<std::size_t>(i), {}});
          }
        });
    std::vector<Measured> ranked;
    for (auto& w : part)
      ranked.insert(ranked.end(), std::make_move_iterator(w.begin()),
                    std::make_move_iterator(w.end()));
    check(!ranked.empty(), "model_topk: every candidate failed the model");

    // Only the top-K sliver is "measured" (counts toward the budget).
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(budget),
                              ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(k),
                      ranked.end(), better);
    ranked.resize(k);
    // Indices are unique, so `better` never compared keys; only the kept
    // sliver needs them (select_winner dedupes by key).
    for (Measured& m : ranked) m.key = m.params.key();
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
