#include "tuner/strategy/strategy.hpp"

#include <algorithm>
#include <optional>

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

Grid::Grid(const SearchEngine& engine, const SearchOptions& opt)
    : axes_(grid_axes(opt.enumeration.include_row_major)),
      dev_(engine.model().spec()),
      restrict_algo_(opt.restrict_algo),
      restrict_local_(opt.restrict_local) {
  const int nl = static_cast<int>(axes_.layouts.size());
  sizes_ = {static_cast<int>(axes_.Mwg.size()),
            static_cast<int>(axes_.Nwg.size()),
            static_cast<int>(axes_.Kwg.size()),
            static_cast<int>(axes_.dim.size()),
            static_cast<int>(axes_.dim.size()),
            static_cast<int>(axes_.Kwi.size()),
            static_cast<int>(axes_.vw.size()),
            4,   // share_a/share_b bits
            3,   // algorithm
            2,   // MdimA reshape selector
            2,   // NdimB reshape selector
            4,   // stride_m/stride_n bits
            nl,  // layout_a
            nl}; // layout_b
}

std::optional<KernelParams> Grid::decode(const Coords& c,
                                         Precision prec) const {
  KernelParams p;
  p.prec = prec;
  p.Mwg = axes_.Mwg[static_cast<std::size_t>(c[0])];
  p.Nwg = axes_.Nwg[static_cast<std::size_t>(c[1])];
  p.Kwg = axes_.Kwg[static_cast<std::size_t>(c[2])];
  p.MdimC = axes_.dim[static_cast<std::size_t>(c[3])];
  p.NdimC = axes_.dim[static_cast<std::size_t>(c[4])];
  p.Kwi = axes_.Kwi[static_cast<std::size_t>(c[5])];
  p.vw = axes_.vw[static_cast<std::size_t>(c[6])];
  // The enumerator's structural rules (its loop-level `continue`s), which
  // validate() does not re-check: every decodable point must be one the
  // exhaustive walk could visit.
  if (p.Mwg % p.MdimC != 0 || p.Nwg % p.NdimC != 0) return std::nullopt;
  const int wg = p.MdimC * p.NdimC;
  if (wg > dev_.max_workgroup_size || wg < 16) return std::nullopt;
  const int Mwi = p.Mwg / p.MdimC;
  const int Nwi = p.Nwg / p.NdimC;
  if (Mwi > 8 || Nwi > 12) return std::nullopt;
  if (p.Kwg % p.Kwi != 0) return std::nullopt;
  if (Mwi % p.vw != 0 || Nwi % p.vw != 0) return std::nullopt;
  const int share = c[7];
  p.share_a = (share & 1) != 0;
  p.share_b = (share & 2) != 0;
  constexpr codegen::Algorithm kAlgos[] = {codegen::Algorithm::BA,
                                           codegen::Algorithm::PL,
                                           codegen::Algorithm::DB};
  p.algo = kAlgos[static_cast<std::size_t>(c[8])];
  if (p.algo != codegen::Algorithm::BA && share == 0) return std::nullopt;
  p.MdimA = c[9] != 0 && wg >= 2 * p.MdimC ? 2 * p.MdimC : p.MdimC;
  p.NdimB = c[10] != 0 && wg >= 2 * p.NdimC ? 2 * p.NdimC : p.NdimC;
  p.stride_m = (c[11] & 1) != 0;
  p.stride_n = (c[11] & 2) != 0;
  p.layout_a = axes_.layouts[static_cast<std::size_t>(c[12])];
  p.layout_b = axes_.layouts[static_cast<std::size_t>(c[13])];
  if (restrict_algo_ && p.algo != *restrict_algo_) return std::nullopt;
  if (restrict_local_ && (p.share_a || p.share_b) != *restrict_local_)
    return std::nullopt;
  if (validate(p, dev_)) return std::nullopt;
  return p;
}

std::optional<Grid::Coords> Grid::encode(const KernelParams& p) const {
  const auto find_in = [](const std::vector<int>& values,
                          int v) -> std::optional<int> {
    for (std::size_t i = 0; i < values.size(); ++i)
      if (values[i] == v) return static_cast<int>(i);
    return std::nullopt;
  };
  Coords c{};
  const auto iM = find_in(axes_.Mwg, p.Mwg);
  const auto iN = find_in(axes_.Nwg, p.Nwg);
  const auto iK = find_in(axes_.Kwg, p.Kwg);
  const auto iMd = find_in(axes_.dim, p.MdimC);
  const auto iNd = find_in(axes_.dim, p.NdimC);
  const auto iKwi = find_in(axes_.Kwi, p.Kwi);
  const auto ivw = find_in(axes_.vw, p.vw);
  if (!iM || !iN || !iK || !iMd || !iNd || !iKwi || !ivw)
    return std::nullopt;
  c[0] = *iM;
  c[1] = *iN;
  c[2] = *iK;
  c[3] = *iMd;
  c[4] = *iNd;
  c[5] = *iKwi;
  c[6] = *ivw;
  c[7] = (p.share_a ? 1 : 0) | (p.share_b ? 2 : 0);
  switch (p.algo) {
    case codegen::Algorithm::BA: c[8] = 0; break;
    case codegen::Algorithm::PL: c[8] = 1; break;
    case codegen::Algorithm::DB: c[8] = 2; break;
  }
  if (p.MdimA == p.MdimC) {
    c[9] = 0;
  } else if (p.MdimA == 2 * p.MdimC) {
    c[9] = 1;
  } else {
    return std::nullopt;
  }
  if (p.NdimB == p.NdimC) {
    c[10] = 0;
  } else if (p.NdimB == 2 * p.NdimC) {
    c[10] = 1;
  } else {
    return std::nullopt;
  }
  c[11] = (p.stride_m ? 1 : 0) | (p.stride_n ? 2 : 0);
  std::optional<int> la, lb;
  for (std::size_t i = 0; i < axes_.layouts.size(); ++i) {
    if (axes_.layouts[i] == p.layout_a) la = static_cast<int>(i);
    if (axes_.layouts[i] == p.layout_b) lb = static_cast<int>(i);
  }
  if (!la || !lb) return std::nullopt;
  c[12] = *la;
  c[13] = *lb;
  return c;
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
