// The heuristic search engine (paper Section III-F).
//
// The procedure for selecting the best kernel follows the paper:
//  1. Measure every candidate at one problem size: the largest multiple of
//     LCM(Mwg, Nwg, Kwg) not exceeding 4096 on GPUs / 1536 on CPUs.
//  2. Re-measure the fastest kStage1Keep (50) kernels over all
//     sizes N in multiples of their LCM with N <= 8192.
//  3. Select the kernel with the highest observed performance.
//
// "Measurement" is the analytic performance model; on real hardware the
// same driver code would time real launches (the paper reports >5 hours
// per GEMM type — under the model the search takes seconds).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codegen/params.hpp"
#include "perfmodel/model.hpp"
#include "simcl/device_registry.hpp"
#include "tuner/candidates.hpp"
#include "tuner/shape.hpp"

namespace gemmtune {
class ThreadPool;
}

namespace gemmtune::tuner {

/// Stage-1 finalists swept in stage 2. Paper: the fastest 50 kernels.
inline constexpr int kStage1Keep = 50;

/// Search controls.
struct SearchOptions {
  EnumOptions enumeration;
  std::int64_t stage2_max_n = 8192;  ///< paper: N <= 8192

  /// Worker threads for stage-1 scoring and stage-2 sweeps. 0 uses the
  /// process-wide configuration (--threads / GEMMTUNE_THREADS / hardware).
  /// The tuned result is bit-identical for every thread count.
  int threads = 0;

  /// Constrained searches for the ablation studies (Fig. 8 and the
  /// Section IV-A local-memory experiments): restrict the candidate set to
  /// one algorithm and/or to kernels that do (true) or do not (false) use
  /// local memory. Seeds that violate a restriction are dropped.
  std::optional<codegen::Algorithm> restrict_algo;
  std::optional<bool> restrict_local;

  /// Whether `p` satisfies restrict_algo and restrict_local.
  bool admits(const codegen::KernelParams& p) const {
    if (restrict_algo && p.algo != *restrict_algo) return false;
    return !restrict_local || (p.share_a || p.share_b) == *restrict_local;
  }

  /// Input-aware search: when set, candidates are scored by the delivered
  /// cost of this shape class (shape_cost: pack overhead + kernel, or the
  /// guarded direct kernel when it wins) at (Mc, Nc, Kc) instead of the
  /// size-agnostic stage-1/stage-2 square sweep. The selected kernel
  /// carries the class so a TunedDatabase can key it per shape.
  std::optional<ShapeClass> shape;
};

/// Search diagnostics.
struct SearchStats {
  EnumStats enumeration;
  std::int64_t stage1_evaluated = 0;
  std::int64_t stage1_failed = 0;  ///< model rejected at run time
  std::int64_t stage2_points = 0;
  std::int64_t stage2_empty = 0;  ///< finalists whose sweep had no points
  /// Summaries of the finalists whose stage-2 sweep came back empty, in
  /// stage-1 rank order.
  std::vector<std::string> stage2_failed;
  /// True when every finalist's sweep was empty and the result fell back
  /// to the best stage-1 measurement.
  bool used_stage1_fallback = false;
};

/// The selected kernel and its measured profile.
struct TunedKernel {
  codegen::KernelParams params;
  double stage1_gflops = 0;  ///< performance at the stage-1 size
  double best_gflops = 0;    ///< maximum over the stage-2 sweep
  std::int64_t best_n = 0;   ///< size achieving best_gflops
  /// Stage-2 curve of the winning kernel: (N, GFlop/s).
  std::vector<std::pair<std::int64_t, double>> curve;
  /// The shape class this kernel was tuned for; empty for the classic
  /// size-agnostic search.
  std::optional<ShapeClass> shape;
};

/// One stage-1 measurement entering the finalist stage.
struct Finalist {
  codegen::KernelParams params;
  double gflops = 0;  ///< stage-1 measurement (> 0)
};

/// Search engine bound to one device.
///
/// tune() fans stage-1 scoring and stage-2 sweeps out over a thread pool
/// (SearchOptions::threads). Candidates are statically chunked, per-thread
/// statistics are merged in chunk order, and ties are broken by (GFlop/s,
/// then candidate index), so the returned TunedKernel — params, curve and
/// all measured numbers — is bit-identical for every thread count.
class SearchEngine {
 public:
  explicit SearchEngine(simcl::DeviceId id);

  /// Runs the full two-stage search.
  TunedKernel tune(codegen::Precision prec, const SearchOptions& opt = {},
                   SearchStats* stats = nullptr) const;

  /// The finalist stage (stage 2) shared by tune() and every search
  /// strategy: a strategy only proposes and ranks candidates, this picks
  /// the winner. `ranked` holds stage-1 measurements, best first. In shape
  /// mode (opt.shape) the measurement already is the objective, so the
  /// top-ranked candidate wins outright and no thread pool is created.
  /// Otherwise the first kStage1Keep are swept over sizes <= stage2_max_n
  /// in parallel and reduced in rank order with a strict >, so ties go to
  /// the better rank; when every sweep is empty the top stage-1
  /// measurement wins. Fills only the stage-2 fields of `stats`. The
  /// sweeps run on `pool`, or on a pool made from opt.threads when null.
  TunedKernel finalist_stage(const std::vector<Finalist>& ranked,
                             const SearchOptions& opt, SearchStats* stats,
                             ThreadPool* pool = nullptr) const;

  /// Stage-2 sweep for one kernel: performance at every multiple of the
  /// blocking LCM up to max_n.
  std::vector<std::pair<std::int64_t, double>> sweep(
      const codegen::KernelParams& p, std::int64_t max_n) const;

  /// The candidate space the search runs over: enumeration, the Table II
  /// seed (always appended last), and the restriction
  /// filters. Every strategy — exhaustive or guided — draws from exactly
  /// this list, in exactly this order. The space is memoized per option
  /// set (opt.shape does not change it), so a server tuning many shape
  /// classes pays the cross-product walk once per device. The reference
  /// is to the memo and stays valid for the engine's lifetime.
  const std::vector<codegen::KernelParams>& candidate_space(
      codegen::Precision prec, const SearchOptions& opt,
      EnumStats* stats = nullptr) const;

  /// One "measurement" of a candidate: the stage-1 square score, or — when
  /// opt.shape is set — the delivered GFlop/s of that shape class. Returns
  /// <= 0 when the model rejects the kernel. Pure and deterministic.
  double measure_candidate(const codegen::KernelParams& p,
                           const SearchOptions& opt) const;

  /// Full profile of one winning candidate, matching what tune() records:
  /// stage-1 score plus stage-2 sweep (classic), or the single shape-class
  /// point (opt.shape set; throws if the model rejects the kernel there).
  TunedKernel profile_candidate(const codegen::KernelParams& p,
                                const SearchOptions& opt) const;

  simcl::DeviceId device_id() const { return id_; }
  const perfmodel::PerfModel& model() const { return model_; }

 private:
  simcl::DeviceId id_;
  perfmodel::PerfModel model_;
  /// candidate_space memo: space key -> (candidates, enum stats). Guarded
  /// by space_mu_; safe to share one engine across threads.
  mutable std::mutex space_mu_;
  mutable std::map<std::string,
                   std::pair<std::vector<codegen::KernelParams>, EnumStats>>
      space_cache_;
};

}  // namespace gemmtune::tuner
