// Runs the two-stage heuristic search (paper Section III-F) on one device
// and compares the selected kernel with the paper's Table II entry.
//
//   build/examples/autotune_device [device] [SGEMM|DGEMM] [budget]
//   e.g. build/examples/autotune_device Cayman DGEMM 20000
#include <cstdio>
#include <string>

#include "codegen/paper_kernels.hpp"
#include "tuner/results_db.hpp"

using namespace gemmtune;

int main(int argc, char** argv) {
  const std::string device = argc > 1 ? argv[1] : "Tahiti";
  const std::string prec_s = argc > 2 ? argv[2] : "DGEMM";
  const int budget = argc > 3 ? std::stoi(argv[3]) : 20000;
  const simcl::DeviceId id = simcl::device_by_name(device);
  const codegen::Precision prec =
      prec_s == "DGEMM" ? codegen::Precision::DP : codegen::Precision::SP;

  tuner::SearchEngine engine(id);
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = budget;
  tuner::SearchStats stats;
  std::printf("tuning %s on %s (budget %d candidates)...\n", prec_s.c_str(),
              device.c_str(), budget);
  const auto best = engine.tune(prec, opt, &stats);

  std::printf("\nenumeration: %lld raw combinations, %lld invalid, %lld "
              "valid (sampled %lld)\n",
              static_cast<long long>(stats.enumeration.raw_combinations),
              static_cast<long long>(stats.enumeration.invalid),
              static_cast<long long>(stats.enumeration.valid),
              static_cast<long long>(stats.stage1_evaluated));
  std::printf("stage 1: %lld kernels measured, %lld failed at run time\n",
              static_cast<long long>(stats.stage1_evaluated),
              static_cast<long long>(stats.stage1_failed));
  std::printf("stage 2: %lld sweep points over the top-%d kernels\n\n",
              static_cast<long long>(stats.stage2_points), opt.stage1_keep);

  std::printf("selected kernel: %s\n", best.params.summary().c_str());
  std::printf("  stage-1 performance: %.1f GFlop/s\n", best.stage1_gflops);
  std::printf("  best performance:    %.1f GFlop/s at N=%lld\n",
              best.best_gflops, static_cast<long long>(best.best_n));

  const auto paper = codegen::table2_entry(id, prec);
  std::printf("\npaper's Table II kernel: %s\n",
              paper.params.summary().c_str());
  std::printf("  paper-reported maximum: %.1f GFlop/s\n", paper.max_gflops);
  std::printf("  our search vs paper:    %.2fx\n",
              best.best_gflops / paper.max_gflops);

  // Persist the result the way a long hardware search would.
  tuner::TunedDatabase db;
  db.put(id, prec, best);
  const std::string path = "tuned_" + device + "_" + prec_s + ".json";
  db.save_file(path);
  std::printf("\nsaved tuning result to %s\n", path.c_str());
  return 0;
}
