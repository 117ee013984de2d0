#include "tuner/strategy/strategy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/strings.hpp"
#include "tuner/strategy/detail.hpp"

namespace gemmtune::tuner::strategy {

using codegen::KernelParams;
using codegen::Precision;

namespace {

std::int64_t parse_spec_int(const std::string& key,
                            const std::string& value) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(value, &used);
    check(used == value.size(),
          "--strategy: " + key + " expects an integer, got '" + value + "'");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    fail("--strategy: " + key + " expects an integer, got '" + value + "'");
  }
}

}  // namespace

StrategySpec parse_strategy_spec(const std::string& text) {
  static const std::vector<std::string> kNames = {"exhaustive", "model_topk",
                                                  "anneal"};
  std::string name = text;
  std::string rest;
  if (const auto comma = text.find(','); comma != std::string::npos) {
    name = text.substr(0, comma);
    rest = text.substr(comma + 1);
  }
  name = trim(name);
  StrategySpec spec;
  if (name == "exhaustive") {
    spec.kind = StrategyKind::Exhaustive;
  } else if (name == "model_topk") {
    spec.kind = StrategyKind::ModelTopK;
  } else if (name == "anneal") {
    spec.kind = StrategyKind::Anneal;
  } else {
    fail_unknown_value("--strategy", name, kNames);
  }
  std::vector<std::string> allowed = {"budget", "seed"};
  if (spec.kind == StrategyKind::Anneal) allowed.push_back("restarts");
  for (const auto& [key, value] : parse_keyval_spec(rest, "--strategy")) {
    if (key == "budget") {
      spec.budget = parse_spec_int(key, value);
      check(spec.budget > 0, "--strategy: budget must be positive");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_spec_int(key, value));
    } else if (key == "restarts" && spec.kind == StrategyKind::Anneal) {
      spec.restarts = static_cast<int>(parse_spec_int(key, value));
      check(spec.restarts > 0, "--strategy: restarts must be positive");
    } else {
      fail_unknown_key("--strategy", key, allowed);
    }
  }
  return spec;
}

namespace detail {

TunedKernel select_winner(const SearchEngine& engine, const SearchOptions& opt,
                          std::vector<Measured> measured,
                          SearchStats* stats) {
  check(!measured.empty(),
        "strategy: no candidate produced a positive measurement");
  std::sort(measured.begin(), measured.end(), better);
  measured.erase(std::unique(measured.begin(), measured.end(),
                             [](const Measured& a, const Measured& b) {
                               return a.key == b.key;
                             }),
                 measured.end());
  std::vector<Finalist> ranked;
  ranked.reserve(measured.size());
  for (Measured& m : measured)
    ranked.push_back({std::move(m.params), m.gflops});
  return engine.finalist_stage(ranked, opt, stats);
}

}  // namespace detail

std::unique_ptr<SearchStrategy> make_strategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::Exhaustive: return detail::make_exhaustive();
    case StrategyKind::ModelTopK: return detail::make_model_topk();
    case StrategyKind::Anneal: return detail::make_anneal();
  }
  fail("make_strategy: unknown strategy kind");
}

TunedKernel run_strategy(const SearchEngine& engine, Precision prec,
                         const SearchOptions& opt, const StrategySpec& spec,
                         StrategyStats* stats) {
  StrategyStats st;
  st.kind = spec.kind;
  const auto strat = make_strategy(spec.kind);
  TunedKernel t = strat->run(engine, prec, opt, spec, &st);
  st.fraction_measured =
      st.space > 0
          ? static_cast<double>(st.measured) / static_cast<double>(st.space)
          : 0;
  if (stats) *stats = std::move(st);
  return t;
}

}  // namespace gemmtune::tuner::strategy
