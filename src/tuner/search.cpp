#include "tuner/search.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/intmath.hpp"
#include "common/thread_pool.hpp"
#include "trace/trace.hpp"

namespace gemmtune::tuner {

using codegen::KernelParams;
using codegen::Precision;

SearchEngine::SearchEngine(simcl::DeviceId id) : id_(id), model_(id) {}

std::vector<std::pair<std::int64_t, double>> SearchEngine::sweep(
    const KernelParams& p, std::int64_t max_n) const {
  std::vector<std::pair<std::int64_t, double>> curve;
  const std::int64_t lcm = lcm3(p.Mwg, p.Nwg, p.Kwg);
  for (std::int64_t n = lcm; n <= max_n; n += lcm) {
    const auto e = model_.kernel_estimate(p, n, n, n);
    if (!e.ok) break;
    curve.emplace_back(n, e.gflops);
  }
  return curve;
}

const std::vector<KernelParams>& SearchEngine::candidate_space(
    Precision prec, const SearchOptions& opt, EnumStats* stats) const {
  // Everything that shapes the space (thread counts never do — the list
  // is bit-identical for any of them). A server tuning dozens of shape
  // classes hits the same key every time.
  const std::string key =
      std::string(to_string(prec)) + "|" +
      std::to_string(opt.enumeration.max_candidates) + "|" +
      std::to_string(opt.enumeration.seed) + "|" +
      (opt.enumeration.include_row_major ? "rm" : "cm") + "|" +
      (opt.restrict_algo ? to_string(*opt.restrict_algo) : "*") + "|" +
      (opt.restrict_local ? (*opt.restrict_local ? "L" : "l") : "*");
  {
    std::lock_guard<std::mutex> lock(space_mu_);
    const auto it = space_cache_.find(key);
    if (it != space_cache_.end()) {
      if (stats) *stats = it->second.second;
      return it->second.first;
    }
  }
  EnumOptions eopt = opt.enumeration;
  if (eopt.threads == 0) eopt.threads = opt.threads;
  EnumStats est;
  std::vector<KernelParams> enumerated;
  {
    trace::Span span("tuner.enumerate");
    enumerated = enumerate_candidates(id_, prec, eopt, &est);
  }
  // The memo keeps its list for the engine's lifetime: size it exactly
  // rather than let the seed's push_back double it.
  std::vector<KernelParams> candidates;
  candidates.reserve(enumerated.size() + 1);
  std::copy_if(enumerated.begin(), enumerated.end(),
               std::back_inserter(candidates),
               [&](const KernelParams& p) { return opt.admits(p); });
  const KernelParams seed = codegen::table2_entry(id_, prec).params;
  if (opt.admits(seed)) candidates.push_back(seed);
  // A concurrent call may have filled the slot first; its list is the
  // same, and the first one stays.
  std::lock_guard<std::mutex> lock(space_mu_);
  const auto& [list, list_stats] =
      space_cache_.emplace(key, std::make_pair(std::move(candidates), est))
          .first->second;
  if (stats) *stats = list_stats;
  return list;
}

double SearchEngine::measure_candidate(const KernelParams& p,
                                       const SearchOptions& opt) const {
  if (opt.shape) {
    const ShapeClass& s = *opt.shape;
    const ShapeCost c = shape_cost(model_, p, s.Mc, s.Nc, s.Kc);
    return c.ok ? c.gflops : 0;
  }
  const std::int64_t n1 = model_.stage1_size(p);
  const auto e = model_.kernel_estimate(p, n1, n1, n1);
  return e.ok ? e.gflops : 0;
}

TunedKernel SearchEngine::profile_candidate(const KernelParams& p,
                                            const SearchOptions& opt) const {
  TunedKernel t;
  t.params = p;
  if (opt.shape) {
    const ShapeClass& s = *opt.shape;
    const ShapeCost c = shape_cost(model_, p, s.Mc, s.Nc, s.Kc);
    if (!c.ok)
      fail("profile_candidate: kernel unusable for shape class " +
           to_string(s));
    t.stage1_gflops = c.gflops;
    t.best_gflops = c.gflops;
    t.best_n = s.Nc;
    t.curve = {{s.Nc, c.gflops}};
    t.shape = s;
    return t;
  }
  const std::int64_t n1 = model_.stage1_size(p);
  const auto e1 = model_.kernel_estimate(p, n1, n1, n1);
  if (!e1.ok) fail("profile_kernel: kernel rejected: " + e1.reason);
  t.stage1_gflops = e1.gflops;
  t.curve = sweep(p, opt.stage2_max_n);
  for (const auto& [n, g] : t.curve) {
    if (g > t.best_gflops) {
      t.best_gflops = g;
      t.best_n = n;
    }
  }
  return t;
}

namespace {

struct Scored {
  double gflops;
  std::size_t index;
};

/// Stage-2 measurement of one finalist.
struct SweepResult {
  std::vector<std::pair<std::int64_t, double>> curve;
  double peak = 0;
  std::int64_t peak_n = 0;
};

}  // namespace

TunedKernel SearchEngine::tune(Precision prec, const SearchOptions& opt,
                               SearchStats* stats) const {
  trace::Span tune_span("tuner.tune");
  SearchStats st;
  const std::vector<KernelParams>& candidates =
      candidate_space(prec, opt, &st.enumeration);
  check(!candidates.empty(), "tune: no valid candidates for device");

  // An explicit per-call thread count gets its own pool; otherwise share
  // the process-wide one.
  std::optional<ThreadPool> local_pool;
  if (opt.threads > 0) local_pool.emplace(opt.threads);
  ThreadPool& pool = local_pool ? *local_pool : ThreadPool::global();
  const auto workers = static_cast<std::size_t>(pool.size());

  // Stage 1: single measurement of every candidate — the stage-1 square
  // size, or the shape class's delivered cost when opt.shape is set —
  // fanned out over the pool. Chunks are contiguous and merged in chunk
  // order, so the scored list is in candidate-index order for any thread
  // count.
  std::vector<Scored> scored;
  std::size_t keep = 0;
  {
    trace::Span stage1_span("tuner.stage1");
    std::vector<std::vector<Scored>> part_scored(workers);
    std::vector<std::int64_t> part_evaluated(workers, 0),
        part_failed(workers, 0);
    pool.parallel_for(
        static_cast<std::int64_t>(candidates.size()),
        [&](std::int64_t begin, std::int64_t end, int worker) {
          auto& scored = part_scored[static_cast<std::size_t>(worker)];
          for (std::int64_t i = begin; i < end; ++i) {
            const KernelParams& p = candidates[static_cast<std::size_t>(i)];
            const double g = measure_candidate(p, opt);
            ++part_evaluated[static_cast<std::size_t>(worker)];
            if (g <= 0) {
              ++part_failed[static_cast<std::size_t>(worker)];
              continue;
            }
            scored.push_back({g, static_cast<std::size_t>(i)});
          }
        });
    for (std::size_t w = 0; w < workers; ++w) {
      st.stage1_evaluated += part_evaluated[w];
      st.stage1_failed += part_failed[w];
      scored.insert(scored.end(), part_scored[w].begin(),
                    part_scored[w].end());
    }
    check(!scored.empty(), "tune: every candidate failed stage 1");
    keep = std::min<std::size_t>(kStage1Keep, scored.size());
    // Tie-break equal scores by candidate index: partial_sort is not
    // stable, and the finalist order must not depend on how chunks
    // interleaved.
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(keep),
                      scored.end(), [](const Scored& a, const Scored& b) {
                        if (a.gflops != b.gflops) return a.gflops > b.gflops;
                        return a.index < b.index;
                      });
    scored.resize(keep);
  }

  std::vector<Finalist> ranked;
  ranked.reserve(keep);
  for (const Scored& sc : scored)
    ranked.push_back({candidates[sc.index], sc.gflops});
  TunedKernel best = finalist_stage(ranked, opt, &st, &pool);
  if (trace::enabled()) {
    trace::counter_add("tuner.candidates", candidates.size());
    trace::counter_add("tuner.stage1_evaluated",
                       static_cast<std::uint64_t>(st.stage1_evaluated));
    trace::counter_add("tuner.stage1_failed",
                       static_cast<std::uint64_t>(st.stage1_failed));
    trace::counter_add("tuner.stage2_points",
                       static_cast<std::uint64_t>(st.stage2_points));
    trace::counter_add("tuner.stage2_empty",
                       static_cast<std::uint64_t>(st.stage2_empty));
    trace::counter_add("tuner.stage1_fallbacks",
                       st.used_stage1_fallback ? 1 : 0);
    trace::gauge_set("tuner.best_gflops", best.best_gflops);
  }
  if (stats) *stats = std::move(st);
  return best;
}

TunedKernel SearchEngine::finalist_stage(const std::vector<Finalist>& ranked,
                                         const SearchOptions& opt,
                                         SearchStats* stats,
                                         ThreadPool* pool) const {
  check(!ranked.empty(), "tune: no candidate produced a positive measurement");
  // Input-aware search: the measurement already IS the objective (the
  // delivered cost of this shape class), so there is no stage-2 size
  // sweep — the top-ranked candidate is the winner.
  if (opt.shape) return profile_candidate(ranked.front().params, opt);

  // Sweep the finalists over sizes <= stage2_max_n in parallel, then
  // reduce in rank order; pick the kernel with the highest performance at
  // any size (ties go to the better stage-1 rank).
  trace::Span stage2_span("tuner.stage2");
  std::optional<ThreadPool> local_pool;
  if (!pool) {
    if (opt.threads > 0) local_pool.emplace(opt.threads);
    pool = local_pool ? &*local_pool : &ThreadPool::global();
  }
  const std::size_t keep =
      std::min<std::size_t>(kStage1Keep, ranked.size());
  std::vector<SweepResult> sweeps(keep);
  pool->parallel_for(static_cast<std::int64_t>(keep),
                     [&](std::int64_t begin, std::int64_t end, int) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         SweepResult& r = sweeps[static_cast<std::size_t>(i)];
                         r.curve = sweep(
                             ranked[static_cast<std::size_t>(i)].params,
                             opt.stage2_max_n);
                         for (const auto& [n, g] : r.curve) {
                           if (g > r.peak) {
                             r.peak = g;
                             r.peak_n = n;
                           }
                         }
                       }
                     });
  SearchStats st;
  TunedKernel best;
  for (std::size_t i = 0; i < keep; ++i) {
    const Finalist& f = ranked[i];
    SweepResult& r = sweeps[i];
    st.stage2_points += static_cast<std::int64_t>(r.curve.size());
    if (r.curve.empty()) {
      ++st.stage2_empty;
      st.stage2_failed.push_back(f.params.summary());
    }
    if (r.peak > best.best_gflops) {
      best.params = f.params;
      best.stage1_gflops = f.gflops;
      best.best_gflops = r.peak;
      best.best_n = r.peak_n;
      best.curve = std::move(r.curve);
    }
  }
  if (best.best_gflops <= 0) {
    // Every finalist's sweep came back empty (e.g. stage2_max_n below
    // the smallest blocking LCM). Fall back to the stage-1 measurement
    // of the top-ranked finalist rather than failing the whole search.
    st.used_stage1_fallback = true;
    const Finalist& top = ranked.front();
    best.params = top.params;
    best.stage1_gflops = top.gflops;
    best.best_gflops = top.gflops;
    best.best_n = model_.stage1_size(best.params);
    best.curve = {{best.best_n, top.gflops}};
  }
  if (stats) {
    stats->stage2_points = st.stage2_points;
    stats->stage2_empty = st.stage2_empty;
    stats->stage2_failed = std::move(st.stage2_failed);
    stats->used_stage1_fallback = st.used_stage1_fallback;
  }
  check(best.best_gflops > 0,
        "tune: neither stage 2 nor the stage-1 fallback produced a positive "
        "measurement");
  return best;
}

}  // namespace gemmtune::tuner
