// The three workloads. Each has an end-to-end mode (trace layer off:
// set-up, a timed closed loop, then the correctness oracles outside the
// timed region) and a traced mode (the same loop run untraced and then
// traced on identical inputs, giving the tracing overhead and the span
// self times).
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "perfbench.hpp"
#include "perfmodel/model.hpp"
#include "serve/core/async_server.hpp"
#include "trace/trace.hpp"
#include "tuner/strategy/strategy.hpp"

namespace perfbench {

using namespace gemmtune;

namespace {

/// Whether to set up once more: setup_s is the median of at least three
/// set-ups, and of up to 200 while they take under a quarter second in
/// all (cheap set-ups are timed often enough for a steady median).
/// Traced and tiny runs set up once.
bool more_setups(const Config& cfg, const std::vector<double>& done) {
  if (cfg.tiny || cfg.trace) return done.empty();
  double spent = 0;
  for (double s : done) spent += s;
  return done.size() < 3 || (done.size() < 200 && spent < 0.25);
}

std::string make_dir(const Config& cfg, const std::string& name) {
  const std::string dir = cfg.scratch + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Runs fn(i) for i in [0, n) on `threads` threads (oracle work outside
/// the timed region).
template <typename Fn>
void parallel_each(std::size_t n, int threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (auto& th : pool) th.join();
}

}  // namespace

std::map<std::string, SpanTime> span_times() {
  struct Ev {
    std::string name;
    double ts, dur;
    int depth;
  };
  std::map<std::int64_t, std::vector<Ev>> by_thread;
  const Json doc = trace::trace_json();
  const Json& evs = doc.at("traceEvents");
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Json& e = evs.at(i);
    by_thread[e.at("tid").as_int()].push_back(
        {e.at("name").as_string(), e.at("ts").as_number(),
         e.at("dur").as_number(),
         static_cast<int>(e.at("args").at("depth").as_int())});
  }
  std::map<std::string, SpanTime> out;
  for (auto& [tid, list] : by_thread) {
    std::stable_sort(list.begin(), list.end(), [](const Ev& a, const Ev& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.depth < b.depth;
    });
    std::vector<std::pair<const Ev*, double>> open;  // event, child time
    const auto close_until = [&](double ts) {
      while (!open.empty() &&
             open.back().first->ts + open.back().first->dur <= ts) {
        const auto [ev, child] = open.back();
        open.pop_back();
        SpanTime& st = out[ev->name];
        ++st.count;
        st.total_s += ev->dur / 1e6;
        st.self_s += (ev->dur - child) / 1e6;
        if (!open.empty()) open.back().second += ev->dur;
      }
    };
    for (const Ev& e : list) {
      close_until(e.ts);
      open.push_back({&e, 0.0});
    }
    close_until(1e300);
  }
  return out;
}

namespace {

/// Reports the traced loop: overhead against the untraced loop and the
/// span self-time table.
void report_traced(double untraced_s, double traced_s, Result& out) {
  const double overhead = (traced_s - untraced_s) / untraced_s * 100.0;
  out.note(strf("trace: untraced %.4f s, traced %.4f s, overhead %.2f%%",
                untraced_s, traced_s, overhead));
  out.add("trace.overhead_pct", overhead, "%");
  out.note("self times (traced loop):");
  for (const auto& [name, st] : span_times())
    out.note(strf("  %-22s count %8lld  total %10.4f s  self %10.4f s",
                  name.c_str(), static_cast<long long>(st.count), st.total_s,
                  st.self_s));
}

/// Runs `op(i)` for i = 0, 1, ... for `seconds`, then the same count
/// again with the trace layer on; reports overhead and self times.
template <typename Op>
void traced_loop(const Config& cfg, Result& out, Op&& op) {
  std::int64_t n = 0;
  const double t0 = now_s();
  while (now_s() - t0 < cfg.seconds / 2 || n == 0) op(n++);
  const double untraced = now_s() - t0;
  trace::reset();
  trace::set_enabled(true);
  const double t1 = now_s();
  for (std::int64_t i = 0; i < n; ++i) op(i);
  const double traced = now_s() - t1;
  trace::set_enabled(false);
  report_traced(untraced, traced, out);
  trace::reset();
}

/// Adds the five end-to-end metrics: ops_per_s over every timed
/// operation, op_p50_ms and op_tail_ms over `latency` (the same
/// operations, or the one kind of them that sets a workload's latency).
void add_end_to_end(const std::vector<double>& setup,
                    const std::vector<double>& op_seconds,
                    const std::vector<double>& latency, Result& out) {
  const Summary s = summarize(setup);
  const Summary all = summarize(op_seconds);
  const Summary ops = summarize(latency);
  out.add("setup_s", s.median, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("ops_per_s", double(all.n) / all.total, "1/s");
  out.add("op_p50_ms", ops.median * 1e3, "ms");
  out.add("op_tail_ms", ops.tail * 1e3, "ms");
  out.note(strf("setup: %s over %zu set-ups", describe(s, 1, "s").c_str(),
                s.n));
  out.note(strf("op: %s, tail percentile %.1f", describe(ops, 1e3, "ms").c_str(),
                ops.tail_pct));
}

// ---------------------------------------------------------------------------
// gemm_native
// ---------------------------------------------------------------------------

constexpr double kAlpha = 1.5;
constexpr double kBeta = -0.5;

template <typename T>
struct GemmSlot {
  GemmOperands<T> ops;
  Matrix<T> work;
  Matrix<T> first;
};

/// Operands and results of every problem, by precision.
struct GemmSet {
  std::vector<GemmProblem> problems;
  std::vector<std::unique_ptr<GemmSlot<double>>> dp;
  std::vector<std::unique_ptr<GemmSlot<float>>> sp;

  GemmSet(std::uint64_t seed, bool tiny) : problems(gemm_problems(seed, tiny)) {
    dp.resize(problems.size());
    sp.resize(problems.size());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      if (problems[i].prec == Precision::DP)
        dp[i] = std::make_unique<GemmSlot<double>>(
            GemmSlot<double>{gemm_operands<double>(problems[i], seed, i), {}, {}});
      else
        sp[i] = std::make_unique<GemmSlot<float>>(
            GemmSlot<float>{gemm_operands<float>(problems[i], seed, i), {}, {}});
    }
  }

  /// One timed GemmEngine::gemm call on problem i (C reset from C0
  /// first, outside the timing). Returns the wall seconds of the call;
  /// `*used_direct` reports the path the engine chose.
  double call(blas::GemmEngine& engine, std::size_t i, bool* used_direct) {
    return problems[i].prec == Precision::DP ? call_t(engine, i, *dp[i], used_direct)
                                             : call_t(engine, i, *sp[i], used_direct);
  }
  /// Whether problem i's last result is bit-identical to its first.
  bool same_as_first(std::size_t i) const {
    return problems[i].prec == Precision::DP ? same_t(*dp[i]) : same_t(*sp[i]);
  }
  /// Keeps problem i's last result as its reference.
  void keep_first(std::size_t i) {
    if (dp[i]) dp[i]->first = dp[i]->work;
    if (sp[i]) sp[i]->first = sp[i]->work;
  }
  /// Max |first - naive reference| over the tolerance (<= 1 passes).
  double oracle_ratio(std::size_t i) const {
    return problems[i].prec == Precision::DP ? oracle_t(i, *dp[i])
                                             : oracle_t(i, *sp[i]);
  }

 private:
  template <typename T>
  double call_t(blas::GemmEngine& engine, std::size_t i, GemmSlot<T>& s,
                bool* used_direct) {
    const GemmProblem& p = problems[i];
    s.work = s.ops.C0;
    const double t0 = now_s();
    const auto prof = engine.gemm<T>(p.ta, p.tb, p.M, p.N, p.K, T(kAlpha),
                                     s.ops.A, s.ops.B, T(kBeta), s.work);
    const double dt = now_s() - t0;
    if (used_direct) *used_direct = prof.used_direct;
    return dt;
  }
  template <typename T>
  static bool same_t(const GemmSlot<T>& s) {
    return s.work.size() == s.first.size() &&
           std::memcmp(s.work.data(), s.first.data(),
                       s.work.size() * sizeof(T)) == 0;
  }
  template <typename T>
  double oracle_t(std::size_t i, const GemmSlot<T>& s) const {
    const GemmProblem& p = problems[i];
    Matrix<T> ref = s.ops.C0;
    hostblas::gemm_naive(p.ta, p.tb, p.M, p.N, p.K, T(kAlpha), s.ops.A,
                         s.ops.B, T(kBeta), ref);
    return max_abs_diff(s.first, ref) / hostblas::gemm_tolerance<T>(p.K);
  }
};

/// One gemm_native set-up: a fresh engine and an empty JIT cache, then one
/// verified call per tuned kernel (DGEMM, SGEMM), which pays the cold
/// JIT compile. Returns the engine; checks land in `out`.
std::unique_ptr<blas::GemmEngine> gemm_setup(const Config& cfg, int rep,
                                             double* seconds, Result& out) {
  ir::set_jit_cache_dir(make_dir(cfg, strf("jit-setup-%d", rep)));
  ir::compiled_cache_clear();
  const index_t n = cfg.tiny ? 32 : 256;
  const GemmProblem probe{Transpose::No, Transpose::No, Precision::DP, n, n, n};
  const double t0 = now_s();
  auto engine = std::make_unique<blas::GemmEngine>(simcl::DeviceId::Tahiti);
  const auto verified = [&](auto zero) {
    using T = decltype(zero);
    auto ops = gemm_operands<T>(probe, cfg.seed, 1000);
    return engine
               ->gemm<T>(probe.ta, probe.tb, n, n, n, T(kAlpha), ops.A, ops.B,
                         T(kBeta), ops.C0, true)
               .max_error /
           hostblas::gemm_tolerance<T>(n);
  };
  const double err_dp = verified(0.0);
  const double err_sp = verified(0.0f);
  *seconds = now_s() - t0;
  ++out.attempted;
  if (!(err_dp <= 1.0 && err_sp <= 1.0)) {
    ++out.failed;
    out.fail(strf("set-up verified call off by %.3g / %.3g tolerances",
                  err_dp, err_sp));
  }
  for (Precision prec : {Precision::DP, Precision::SP}) {
    std::string why;
    const auto kernel =
        codegen::generate_gemm_kernel(engine->kernel_for(prec).params);
    if (!ir::get_or_compile_native(kernel, &why)) {
      ++out.failed;
      out.fail("native backend unavailable: " + why);
    }
  }
  return engine;
}

}  // namespace

void run_gemm_native(const Config& cfg, Result& out) {
  ir::set_backend_override(ir::Backend::Native);
  GemmSet set(cfg.seed, cfg.tiny);
  const std::size_t P = set.problems.size();

  std::vector<double> setup;
  std::unique_ptr<blas::GemmEngine> engine;
  while (more_setups(cfg, setup)) {
    engine.reset();
    double s = 0;
    engine = gemm_setup(cfg, static_cast<int>(setup.size()), &s, out);
    setup.push_back(s);
  }

  // First call of every problem, untimed: its C is the reference the
  // timed calls must reproduce bit for bit. The trace layer is on only
  // here, to count native fallbacks; later calls reuse the same kernels.
  trace::reset();
  trace::set_enabled(true);
  int direct = 0;
  for (std::size_t i = 0; i < P; ++i) {
    bool used_direct = false;
    set.call(*engine, i, &used_direct);
    direct += used_direct;
    set.keep_first(i);
  }
  const Json warm = trace::metrics_json();
  trace::set_enabled(false);
  trace::reset();
  const std::int64_t fallbacks =
      warm.at("counters").contains("interp.native_fallback")
          ? warm.at("counters").at("interp.native_fallback").as_int()
          : 0;
  out.note(strf("gemm_native: %zu problems (%d on the direct path), "
                "%lld native fallbacks",
                P, direct, static_cast<long long>(fallbacks)));
  if (fallbacks > 0) {
    out.failed += fallbacks;
    out.fail("native backend fell back to bytecode");
  }

  // One operation is the DGEMM and the SGEMM call of one (type, shape)
  // pair. The two precisions' calls take about 45 and 95 ms on a 4-core
  // host, so a per-call median would sit in the gap between them and jump
  // from run to run.
  const std::size_t pairs = P / 2;
  std::vector<double> times;
  double flops = 0;
  std::int64_t mismatches = 0;
  const auto timed_op = [&](std::size_t j) {
    double t = 0;
    for (std::size_t i : {2 * j, 2 * j + 1}) {
      t += set.call(*engine, i, nullptr);
      flops += set.problems[i].flops();
      mismatches += !set.same_as_first(i);
      ++out.attempted;
    }
    times.push_back(t);
  };
  if (cfg.trace) {
    traced_loop(cfg, out, [&](std::int64_t k) {
      timed_op(static_cast<std::size_t>(k) % pairs);
    });
  } else {
    const double t_end = now_s() + cfg.seconds;
    for (std::size_t k = 0; now_s() < t_end || k < pairs; ++k)
      timed_op(k % pairs);
  }
  if (mismatches > 0) {
    out.failed += mismatches;
    out.fail(strf("%lld timed calls differ from the first call's C",
                  static_cast<long long>(mismatches)));
  }
  if (cfg.trace) return;

  // Independent oracle: the naive host triple loop on every problem.
  std::vector<double> ratio(P);
  parallel_each(P, cfg.threads,
                [&](std::size_t i) { ratio[i] = set.oracle_ratio(i); });
  for (std::size_t i = 0; i < P; ++i) {
    if (!(ratio[i] <= 1.0)) {
      ++out.failed;
      out.fail(strf("problem %zu exceeds gemm_tolerance vs gemm_naive "
                    "(%.3g x)", i, ratio[i]));
    }
  }
  out.note(strf("oracle: %zu problems vs hostblas::gemm_naive, worst %.3g "
                "of tolerance", P, *std::max_element(ratio.begin(), ratio.end())));

  add_end_to_end(setup, times, times, out);
  const Summary s = summarize(times);
  out.note(strf("gemm.gflops %.4f GFlop/s over %zu calls",
                flops / s.total / 1e9, 2 * s.n));
  out.note(strf("gemm.p50_ms %.4f ms; gemm.tail_ms %.4f ms at p%.1f, per "
                "DGEMM+SGEMM pair (n=%zu)",
                s.median * 1e3, s.tail * 1e3, s.tail_pct, s.n));
}

// ---------------------------------------------------------------------------
// serve_small
// ---------------------------------------------------------------------------

namespace {

// 8000 requests per run, replayed 50 at a time: the run's median replay is
// taken over 160 distinct chunks, so it barely depends on the seed.
constexpr int kServeChunks = 160;
constexpr int kServeChunkRequests = 50;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Independent check of one executed request: rebuilds its operands the
/// way execute_checksum documents (Rng(seed ^ splitmix(id)), A then B,
/// alpha 1, beta 0), compares C against hostblas::gemm_naive and its
/// hash against the served checksum.
template <typename T>
bool hostblas_check(blas::GemmEngine& engine, const serve::GemmRequest& r,
                    std::uint64_t result_seed, std::uint64_t served,
                    double* ratio) {
  Rng rng(result_seed ^ splitmix(static_cast<std::uint64_t>(r.id)));
  const Transpose ta = trans_a(r.type), tb = trans_b(r.type);
  Matrix<T> A(ta == Transpose::Yes ? r.K : r.M, ta == Transpose::Yes ? r.M : r.K);
  Matrix<T> B(tb == Transpose::Yes ? r.N : r.K, tb == Transpose::Yes ? r.K : r.N);
  Matrix<T> C(r.M, r.N), ref(r.M, r.N);
  A.fill_random(rng);
  B.fill_random(rng);
  engine.gemm<T>(ta, tb, r.M, r.N, r.K, T(1), A, B, T(0), C);
  hostblas::gemm_naive(ta, tb, r.M, r.N, r.K, T(1), A, B, T(0), ref);
  *ratio = max_abs_diff(C, ref) / hostblas::gemm_tolerance<T>(r.K);
  return fnv1a(C.data(), C.size() * sizeof(T)) == served;
}

}  // namespace

void run_serve_small(const Config& cfg, Result& out) {
  const int chunks = cfg.tiny ? 2 : kServeChunks;
  const int per_chunk = cfg.tiny ? 40 : kServeChunkRequests;
  const auto pool = serve_chunks(cfg.seed, chunks, per_chunk);
  std::vector<serve::GemmRequest> all;
  for (const auto& c : pool) all.insert(all.end(), c.begin(), c.end());

  std::vector<double> setup;
  std::unique_ptr<serve::GemmServer> server;
  while (more_setups(cfg, setup)) {
    server.reset();
    const double t0 = now_s();
    server = std::make_unique<serve::GemmServer>(serve_fleet(),
                                                 serve::ServeOptions{});
    server->warmup();
    server->ensure_estimates(all);
    setup.push_back(now_s() - t0);
  }
  serve::AsyncOptions aopt;
  aopt.execute_max_n = kExecuteMaxN;
  serve::AsyncServer async(*server, aopt);
  const serve::WorkloadSpec spec;  // generator defaults: batch 16, queue 512

  std::vector<std::vector<std::uint64_t>> first(pool.size());
  std::vector<std::vector<int>> device(pool.size());
  std::int64_t lost = 0, mismatches = 0;
  const auto replay = [&](std::size_t c) {
    const double t0 = now_s();
    const serve::AsyncOutcome o =
        async.run(pool[c], spec.max_batch, spec.queue_capacity);
    const double dt = now_s() - t0;
    lost += o.shed_queue_full + o.shed_infeasible + o.expired;
    if (first[c].empty()) {
      first[c] = o.result_hash;
      for (const auto& resp : o.base.responses)
        device[c].push_back(resp.device_index);
    } else {
      mismatches += o.result_hash != first[c];
    }
    out.attempted += static_cast<std::int64_t>(pool[c].size());
    return dt;
  };

  if (cfg.trace) {
    traced_loop(cfg, out, [&](std::int64_t i) {
      replay(static_cast<std::size_t>(i) % pool.size());
    });
  } else {
    std::vector<double> times;
    const double t_end = now_s() + cfg.seconds;
    for (std::size_t k = 0; now_s() < t_end || k < pool.size(); ++k)
      times.push_back(replay(k % pool.size()));
    add_end_to_end(setup, times, times, out);
    const Summary s = summarize(times);
    out.note(strf("serve.rps %.2f requests/s over %zu replays of %d requests",
                  double(s.n) * per_chunk / s.total, s.n, per_chunk));
  }
  if (lost > 0) {
    out.failed += lost;
    out.note(strf("serve: %lld requests shed or expired",
                  static_cast<long long>(lost)));
  }
  if (mismatches > 0) {
    out.failed += mismatches;
    out.fail("a replay's checksums differ from the chunk's first replay");
  }
  if (cfg.trace) return;

  // Oracles outside the timed region: every served checksum equals a
  // fresh execute_checksum on the device that served it, and a seeded
  // sample is recomputed against the naive host GEMM.
  struct Item {
    std::size_t chunk, slot;
  };
  std::vector<Item> executed;
  for (std::size_t c = 0; c < pool.size(); ++c)
    for (std::size_t i = 0; i < pool[c].size(); ++i) {
      const auto& r = pool[c][i];
      const bool small = std::max({r.M, r.N, r.K}) <= kExecuteMaxN;
      if (small && first[c][i] == 0) {
        ++out.failed;
        out.fail(strf("request %lld was not executed",
                      static_cast<long long>(r.id)));
      }
      if (first[c][i] != 0) executed.push_back({c, i});
    }
  std::vector<char> ok(executed.size(), 0);
  parallel_each(executed.size(), cfg.threads, [&](std::size_t k) {
    const Item& it = executed[k];
    const int d = device[it.chunk][it.slot];
    ok[k] = d >= 0 && serve::execute_checksum(
                          *server->engines()[static_cast<std::size_t>(d)],
                          pool[it.chunk][it.slot],
                          aopt.result_seed) == first[it.chunk][it.slot];
  });
  const auto bad = std::count(ok.begin(), ok.end(), 0);
  if (bad > 0) {
    out.failed += bad;
    out.fail(strf("%lld async checksums differ from execute_checksum",
                  static_cast<long long>(bad)));
  }
  Rng pick(cfg.seed ^ 0x6f7261636c65ull);
  const std::size_t sample = std::min<std::size_t>(8, executed.size());
  double worst = 0;
  for (std::size_t k = 0; k < sample; ++k) {
    const Item& it = executed[pick.next_below(executed.size())];
    const auto& r = pool[it.chunk][it.slot];
    auto& engine = *server->engines()[static_cast<std::size_t>(
        device[it.chunk][it.slot])];
    double ratio = 0;
    const bool same =
        r.prec == Precision::SP
            ? hostblas_check<float>(engine, r, aopt.result_seed,
                                    first[it.chunk][it.slot], &ratio)
            : hostblas_check<double>(engine, r, aopt.result_seed,
                                     first[it.chunk][it.slot], &ratio);
    worst = std::max(worst, ratio);
    if (!same || !(ratio <= 1.0)) {
      ++out.failed;
      out.fail(strf("request %lld: hostblas check failed (hash %s, %.3g x "
                    "tolerance)",
                    static_cast<long long>(r.id), same ? "ok" : "differs",
                    ratio));
    }
  }
  out.note(strf("oracle: %zu checksums re-executed, %zu sampled vs "
                "gemm_naive (worst %.3g of tolerance)",
                executed.size(), sample, worst));
}

// ---------------------------------------------------------------------------
// tune
// ---------------------------------------------------------------------------

namespace {

struct TunePair {
  simcl::DeviceId device;
  Precision prec;
};

std::vector<TunePair> tune_pairs() {
  std::vector<TunePair> out;
  for (simcl::DeviceId d : serve_fleet())
    for (Precision p : {Precision::DP, Precision::SP}) out.push_back({d, p});
  return out;
}

/// The winner's identity: parameters and modeled numbers.
std::string winner_key(const tuner::TunedKernel& t) {
  return strf("%s|%.17g|%.17g|%lld", t.params.key().c_str(), t.stage1_gflops,
              t.best_gflops, static_cast<long long>(t.best_n));
}

/// Shape classes of the seeded serve mixture, per precision: the first
/// distinct small, medium and large classes in arrival order, a fixed
/// number of each, so every seed tunes the same count and size mix.
std::map<Precision, std::vector<tuner::ShapeClass>> tune_classes(
    std::uint64_t seed, bool tiny) {
  const std::array<std::size_t, 3> want =
      tiny ? std::array<std::size_t, 3>{1, 1, 0}
           : std::array<std::size_t, 3>{6, 4, 2};
  const auto group = [](const tuner::ShapeClass& c) {
    const index_t n = std::max({c.Mc, c.Nc, c.Kc});
    return n <= 128 ? 0 : n < 1024 ? 1 : 2;
  };
  std::set<tuner::ShapeClass> seen;
  std::map<Precision, std::array<std::size_t, 3>> taken;
  std::map<Precision, std::vector<tuner::ShapeClass>> out;
  const auto mixture = serve_chunks(seed, 1, 200);
  for (const auto& r : mixture[0]) {
    const auto c = tuner::ShapeClass::of(r);
    std::size_t& n = taken[c.prec][static_cast<std::size_t>(group(c))];
    if (!seen.insert(c).second || n == want[static_cast<std::size_t>(group(c))])
      continue;
    ++n;
    out[c.prec].push_back(c);
  }
  return out;
}

tuner::SearchOptions tune_options(int threads, bool tiny) {
  tuner::SearchOptions opt;
  opt.threads = threads;
  if (tiny) opt.enumeration.max_candidates = 300;
  return opt;
}

}  // namespace

void run_tune(const Config& cfg, Result& out) {
  const auto pairs = tune_pairs();
  auto classes = tune_classes(cfg.seed, cfg.tiny);
  tuner::strategy::StrategySpec topk;
  topk.kind = tuner::strategy::StrategyKind::ModelTopK;
  topk.budget = 64;

  using Engines = std::vector<std::unique_ptr<tuner::SearchEngine>>;
  const auto make_engines = [&] {
    Engines e;
    for (const TunePair& p : pairs)
      e.push_back(std::make_unique<tuner::SearchEngine>(p.device));
    return e;
  };
  std::vector<double> setup;
  Engines engines;
  while (more_setups(cfg, setup)) {
    engines.clear();
    const double t0 = now_s();
    engines = make_engines();
    setup.push_back(now_s() - t0);
  }

  // One pair: a cold exhaustive tune on its fresh engine, then a guided
  // model_topk tune per shape class on the now-warm engine. Every pool
  // is created per call, so no estimate memo survives from an earlier
  // pass and each pass is as cold as the first. Winners are keyed by
  // (pair, class, thread count); a repeat must pick the same winner.
  std::vector<double> device_s, class_s, all_s;
  std::map<std::string, std::string> winners;
  std::int64_t mismatches = 0;
  const auto record = [&](const std::string& what, const tuner::TunedKernel& t) {
    const auto [it, fresh] = winners.emplace(what, winner_key(t));
    mismatches += !fresh && it->second != winner_key(t);
  };
  const auto run_pair = [&](tuner::SearchEngine& engine, const TunePair& p,
                            int threads, bool timed) {
    perfmodel::PerfModel::clear_thread_cache();
    const tuner::SearchOptions opt = tune_options(threads, cfg.tiny);
    const std::string tag = strf("%s.%s", simcl::to_string(p.device).c_str(),
                                 codegen::to_string(p.prec));
    const std::string at = strf("@t%d", threads);
    double t0 = now_s();
    record(tag + at, engine.tune(p.prec, opt));
    double dt = now_s() - t0;
    if (timed) device_s.push_back(dt), all_s.push_back(dt);
    for (const auto& cls : classes[p.prec]) {
      tuner::SearchOptions o = opt;
      o.shape = cls;
      t0 = now_s();
      record(tag + "." + tuner::to_string(cls) + at,
             tuner::strategy::run_strategy(engine, p.prec, o, topk));
      dt = now_s() - t0;
      if (timed) class_s.push_back(dt), all_s.push_back(dt);
    }
    out.attempted += 1 + static_cast<std::int64_t>(classes[p.prec].size());
  };

  if (cfg.trace) {
    traced_loop(cfg, out, [&](std::int64_t i) {
      const TunePair& p = pairs[static_cast<std::size_t>(i) % pairs.size()];
      tuner::SearchEngine engine(p.device);
      run_pair(engine, p, cfg.threads, false);
    });
  } else {
    // Whole passes over the eight pairs, so every run tunes the same
    // mix of cold and class tunes.
    const double t_end = now_s() + cfg.seconds;
    for (std::size_t k = 0; k % pairs.size() != 0 || now_s() < t_end; ++k) {
      const std::size_t j = k % pairs.size();
      if (k >= pairs.size()) engines[j] = std::make_unique<tuner::SearchEngine>(
                                 pairs[j].device);
      run_pair(*engines[j], pairs[j], cfg.threads, true);
    }
    // Cold tunes (about a second) and class tunes (tens of ms) are two
    // populations; the tail of the mixture would flip between them as
    // the count of each shifts, so latency is the class tunes'.
    add_end_to_end(setup, all_s, class_s, out);
    const Summary d = summarize(device_s), c = summarize(class_s);
    out.note(strf("tune.device_s %.4f s (median of %zu cold exhaustive tunes)",
                  d.median, d.n));
    out.note(strf("tune.class_ms %.4f ms (median of %zu guided class tunes)",
                  c.median * 1e3, c.n));

    // Oracle: the same pair tuned single-threaded picks the identical
    // winners (parameters and modeled GFlop/s).
    const TunePair& p = pairs[cfg.seed % pairs.size()];
    tuner::SearchEngine engine(p.device);
    run_pair(engine, p, 1, false);
    const std::string many = strf("@t%d", cfg.threads);
    std::int64_t compared = 0, differ = 0;
    for (const auto& [what, key] : winners) {
      if (!what.ends_with("@t1")) continue;
      ++compared;
      const auto twin =
          winners.find(what.substr(0, what.size() - 3) + many);
      differ += twin == winners.end() || twin->second != key;
    }
    out.note(strf("oracle: %s %s re-tuned at 1 thread: %lld winners, %lld "
                  "differ from %d threads",
                  simcl::to_string(p.device).c_str(),
                  codegen::to_string(p.prec), static_cast<long long>(compared),
                  static_cast<long long>(differ), cfg.threads));
    if (differ > 0) {
      out.failed += differ;
      out.fail("tuned winners depend on the thread count");
    }
  }
  if (mismatches > 0) {
    out.failed += mismatches;
    out.fail("a repeated tune picked a different winner");
  }
}

}  // namespace perfbench
