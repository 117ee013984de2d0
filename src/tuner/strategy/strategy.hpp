// Guided search strategies over the tuner's candidate space (ROADMAP
// item 1).
//
// The paper's exhaustive two-stage search measures every enumerated
// candidate; at serving scale every new device or shape class pays that
// full cold-start cost. This layer makes the search pluggable:
//
//   exhaustive  — the paper's two-stage procedure, unchanged (reference)
//   model_topk  — rank the FULL candidate space with the analytic
//                 performance model (tritonBLAS-style pre-selection),
//                 measure only the top-K sliver
//   anneal      — seeded simulated annealing over the parameter grid with
//                 deterministic neighbor moves and a restart schedule
//                 (CLTune-style)
//
// As in CLTune, a strategy only proposes and ranks configurations: every
// strategy draws from SearchEngine::candidate_space, measures through
// SearchEngine::measure_candidate and hands its ranking to
// SearchEngine::finalist_stage — the stage 2 tune() runs too — which picks
// the winner. So results are comparable, and every strategy is
// bit-reproducible at any --threads for a fixed seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "tuner/search.hpp"

namespace gemmtune::tuner::strategy {

enum class StrategyKind { Exhaustive, ModelTopK, Anneal };

inline const char* to_string(StrategyKind k) {
  switch (k) {
    case StrategyKind::Exhaustive: return "exhaustive";
    case StrategyKind::ModelTopK: return "model_topk";
    case StrategyKind::Anneal: return "anneal";
  }
  return "?";
}

/// Parsed `--strategy` spec: "name,budget=N,seed=S[,restarts=R]".
struct StrategySpec {
  StrategyKind kind = StrategyKind::Exhaustive;
  /// Maximum number of distinct candidates a guided strategy may measure.
  /// 0 picks the strategy default (model_topk: 64, anneal: 256);
  /// exhaustive always measures the whole space.
  std::int64_t budget = 0;
  std::uint64_t seed = 1;  ///< stochastic-strategy determinism
  int restarts = 8;        ///< anneal: independent restart chains
};

/// Parses a `--strategy` spec string. Unknown strategy names and unknown
/// keys throw gemmtune::Error naming the allowed set.
StrategySpec parse_strategy_spec(const std::string& text);

/// Diagnostics from one strategy run.
struct StrategyStats {
  StrategyKind kind = StrategyKind::Exhaustive;
  SearchStats search;               ///< finalist-sweep / exhaustive stats
  std::int64_t space = 0;           ///< candidate-space size
  std::int64_t measured = 0;        ///< distinct candidates measured
  std::int64_t model_ranked = 0;    ///< candidates ranked analytically only
  std::int64_t proposals = 0;       ///< stochastic moves proposed
  std::int64_t proposals_invalid = 0;  ///< moves that decoded off-space
  double fraction_measured = 0;     ///< measured / space
};

/// One search strategy. Implementations are stateless; all run state is
/// local to run(), so one instance may be used from any thread.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual StrategyKind kind() const = 0;
  /// Runs the search and returns the selected kernel, profiled the same
  /// way SearchEngine::tune profiles its winner.
  virtual TunedKernel run(const SearchEngine& engine,
                          codegen::Precision prec, const SearchOptions& opt,
                          const StrategySpec& spec,
                          StrategyStats* stats) const = 0;
};

std::unique_ptr<SearchStrategy> make_strategy(StrategyKind kind);

/// Convenience: make + run + fill fraction_measured.
TunedKernel run_strategy(const SearchEngine& engine, codegen::Precision prec,
                         const SearchOptions& opt, const StrategySpec& spec,
                         StrategyStats* stats = nullptr);

}  // namespace gemmtune::tuner::strategy
