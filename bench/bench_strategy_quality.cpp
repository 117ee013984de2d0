// Guided-search quality vs budget: can the model-ranked and stochastic
// strategies match the exhaustive two-stage search while measuring a
// fraction of its candidates?
//
// For two Table I devices (Tahiti GPU, SandyBridge CPU) x {DGEMM, SGEMM},
// the exhaustive reference tunes over a fixed candidate space, then each
// guided strategy (model_topk, anneal) runs with a measurement budget
// of 10% of that space. Per combination the bench records the selected
// kernel's GFlop/s, the quality ratio against the exhaustive winner, and
// the measured fraction. The acceptance gate — quality >= 1.0 at fraction
// <= 0.10 for model_topk AND anneal on every combination — is emitted as
// gated scalar bits (and the process exit code), so the benchdb trajectory
// CI fails if a strategy regresses below the exhaustive bar. A budget
// sweep on Tahiti DGEMM shows how quality degrades as the budget shrinks.
//
// Everything is a pure function of the device tables (the "measurement" is
// the analytic performance model), so every scalar is exact and the
// baselines are tight.
//
// Usage: bench_strategy_quality [candidates] [budget]
//   candidates  enumeration budget defining the search space (default 2500)
//   budget      guided-strategy measurement budget (default 250 = 10%)
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "tuner/search.hpp"
#include "tuner/strategy/strategy.hpp"

namespace {

using namespace gemmtune;
using namespace gemmtune::bench;
using codegen::Precision;
using simcl::DeviceId;
using tuner::SearchEngine;
using tuner::SearchOptions;
using tuner::TunedKernel;
using tuner::strategy::StrategyKind;
using tuner::strategy::StrategySpec;
using tuner::strategy::StrategyStats;
using tuner::strategy::run_strategy;

struct GuidedResult {
  TunedKernel best;
  StrategyStats stats;
};

GuidedResult run(const SearchEngine& engine, Precision prec,
                 const SearchOptions& opt, StrategyKind kind,
                 std::int64_t budget) {
  StrategySpec spec;
  spec.kind = kind;
  spec.budget = budget;
  GuidedResult r;
  r.best = run_strategy(engine, prec, opt, spec, &r.stats);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  gemmtune::bench::init("strategy_quality", &argc, argv);
  const int candidates = argc > 1 ? std::atoi(argv[1]) : 2500;
  const std::int64_t budget = argc > 2 ? std::atoll(argv[2]) : 250;

  const std::vector<DeviceId> devices = {DeviceId::Tahiti,
                                         DeviceId::SandyBridge};
  const std::vector<Precision> precisions = {Precision::DP, Precision::SP};
  const std::vector<StrategyKind> guided = {StrategyKind::ModelTopK,
                                            StrategyKind::Anneal};

  SearchOptions opt;
  opt.enumeration.max_candidates = candidates;

  bool gate_all = true;
  for (const DeviceId id : devices) {
    const SearchEngine engine(id);
    const std::string dev = simcl::device_spec(id).code_name;
    for (const Precision prec : precisions) {
      const std::string combo = dev + "." + to_string(prec);
      StrategyStats exh_stats;
      TunedKernel exh;
      {
        StrategySpec spec;
        spec.kind = StrategyKind::Exhaustive;
        exh = run_strategy(engine, prec, opt, spec, &exh_stats);
      }
      section(combo + ": exhaustive reference over " +
              std::to_string(exh_stats.space) + " candidates");
      note(strf("exhaustive: %.1f GFlop/s (%s)", exh.best_gflops,
                exh.params.summary().c_str()));
      scalar(combo + ".exhaustive.best_gflops", exh.best_gflops);
      scalar(combo + ".space", static_cast<double>(exh_stats.space));

      TextTable t;
      t.set_header({"Strategy", "Measured", "Fraction", "GFlop/s",
                    "Quality"});
      for (const StrategyKind kind : guided) {
        const GuidedResult r = run(engine, prec, opt, kind, budget);
        const double quality = r.best.best_gflops / exh.best_gflops;
        const std::string name = to_string(kind);
        t.add_row({name, std::to_string(r.stats.measured),
                   strf("%.1f%%", r.stats.fraction_measured * 100),
                   strf("%.1f", r.best.best_gflops),
                   strf("%.4f", quality)});
        scalar(combo + "." + name + ".best_gflops", r.best.best_gflops);
        scalar(combo + "." + name + ".quality", quality);
        scalar(combo + "." + name + ".measured",
               static_cast<double>(r.stats.measured));
        scalar(combo + "." + name + ".fraction", r.stats.fraction_measured);
        const bool ok = quality >= 1.0 - 1e-9 &&
                        r.stats.fraction_measured <= 0.10 + 1e-9;
        scalar(combo + "." + name + ".gate", ok ? 1 : 0);
        gate_all = gate_all && ok;
      }
      t.print(std::cout);
    }
  }
  section("acceptance gate");
  note(gate_all ? "model_topk and anneal match the exhaustive winner at "
                  "<= 10% of its measurements on every device x precision"
                : "GATE FAILED: a gated strategy fell below the exhaustive "
                  "winner (see quality scalars above)");
  scalar("gate.all", gate_all ? 1 : 0);

  // --- quality vs budget (Tahiti DGEMM) ------------------------------------
  section("quality vs budget: Tahiti DGEMM");
  const SearchEngine tahiti(DeviceId::Tahiti);
  StrategySpec exh_spec;
  exh_spec.kind = StrategyKind::Exhaustive;
  const TunedKernel exh = run_strategy(tahiti, Precision::DP, opt, exh_spec);
  TextTable sweep;
  sweep.set_header({"Budget", "model_topk", "anneal"});
  for (const std::int64_t b : {budget / 4, budget / 2, budget}) {
    std::vector<std::string> row = {std::to_string(b)};
    for (const StrategyKind kind : guided) {
      const GuidedResult r = run(tahiti, Precision::DP, opt, kind, b);
      const double quality = r.best.best_gflops / exh.best_gflops;
      row.push_back(strf("%.4f", quality));
      scalar("sweep.Tahiti.DP." + std::string(to_string(kind)) + ".budget" +
                 std::to_string(b) + ".quality",
             quality);
    }
    sweep.add_row(row);
  }
  sweep.print(std::cout);

  return gate_all ? 0 : 1;
}
