// Shared pieces of the host wall-clock benchmark (see README.md): run
// configuration, the result every workload fills, sample statistics, and
// the seeded inputs that workloads and layer probes both draw from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "codegen/params.hpp"
#include "layout/matrix.hpp"
#include "serve/request.hpp"

namespace perfbench {

using gemmtune::index_t;
using gemmtune::Transpose;
using gemmtune::codegen::Precision;

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizes: every code path runs, on inputs small enough that
  /// the whole run takes seconds.
  bool tiny = false;
  /// Private scratch directory (JIT objects); created by the caller.
  std::string scratch;
  /// Tuner (and host-oracle) threads; kernels execute on one thread.
  int threads = 1;
};

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a run reports. `metrics` go into the final JSON line;
/// `lines` are the human-readable report printed above it.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { lines.push_back(line); }
  /// Records a failed check: the run is no longer correct.
  void fail(const std::string& why) {
    correct = false;
    lines.push_back("FAIL: " + why);
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median and tail of a timing sample. The tail is the highest
/// percentile with at least ten samples beyond it; with fewer than
/// eleven samples no such percentile exists and the maximum stands in.
struct Summary {
  std::size_t n = 0;
  double median = 0;
  double tail = 0;
  double tail_pct = 0;  ///< percentile the tail was read at
  double total = 0;
};
Summary summarize(std::vector<double> xs);

/// "p50 X ms, p97.4 Y ms over N samples" style description.
std::string describe(const Summary& s, double scale, const char* unit);

/// Peak resident set of this process, MB (VmHWM).
double peak_rss_mb();

/// Per-span totals from the trace timeline recorded so far. A span's self
/// time is its duration minus that of its direct children on its thread.
struct SpanTime {
  std::int64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, SpanTime> span_times();

/// One gemm_native problem: C <- alpha*op(A)*op(B) + beta*C.
struct GemmProblem {
  Transpose ta = Transpose::No;
  Transpose tb = Transpose::No;
  Precision prec = Precision::DP;
  index_t M = 0, N = 0, K = 0;
  double flops() const { return 2.0 * double(M) * double(N) * double(K); }
};

/// The seeded gemm_native problem list: every combination of the four
/// multiplication types and square/rectangular shape, each as a DGEMM
/// then an SGEMM problem (so problems 2j and 2j+1 share a shape), with
/// extents in [256, 512] (tiny: [32, 64]) and the volume of the mid-range
/// cube; the seed draws the rectangular shapes.
std::vector<GemmProblem> gemm_problems(std::uint64_t seed, bool tiny);

/// Operands of one problem, generated from (seed, index).
template <typename T>
struct GemmOperands {
  gemmtune::Matrix<T> A, B, C0;
};
template <typename T>
GemmOperands<T> gemm_operands(const GemmProblem& p, std::uint64_t seed,
                              std::size_t index);

/// The serve_small fleet: Tahiti + Kepler + Cayman + SandyBridge.
std::vector<gemmtune::simcl::DeviceId> serve_fleet();

/// The seeded serve_small request pool, drawn from the generator's
/// 70/25/5 mixture with every (shape, precision) category in its expected
/// proportion, split into `chunks` consecutive replay chunks.
std::vector<std::vector<gemmtune::serve::GemmRequest>> serve_chunks(
    std::uint64_t seed, int chunks, int chunk_requests);

/// Largest extent the serve executors run functionally.
inline constexpr index_t kExecuteMaxN = 64;

/// Workload entry points (workloads.cpp).
void run_gemm_native(const Config& cfg, Result& out);
void run_serve_small(const Config& cfg, Result& out);
void run_tune(const Config& cfg, Result& out);

/// Per-layer probes shared by every traced run (layers.cpp).
void probe_layers(const Config& cfg, Result& out);

/// Single-core roofline anchors (roofline.cpp): FMA peak, and the best
/// STREAM-triad bandwidth of `passes` over three arrays of `array_bytes`.
double fma_peak_gflops(double seconds);
double triad_gbs(std::size_t array_bytes, int passes);

}  // namespace perfbench
