// CLI tests: every subcommand, argument validation, and the compile
// command against generated kernel source.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "cli/cli.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/emit.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"

namespace gemmtune {
namespace {

std::pair<int, std::string> run_cli(std::vector<std::string> args) {
  std::ostringstream out;
  const int rc = cli::run(args, out);
  return {rc, out.str()};
}

TEST(Cli, UsageOnNoArgsOrUnknownCommand) {
  auto [rc1, out1] = run_cli({});
  EXPECT_EQ(rc1, 2);
  EXPECT_NE(out1.find("usage:"), std::string::npos);
  auto [rc2, out2] = run_cli({"frobnicate"});
  EXPECT_EQ(rc2, 2);
}

TEST(Cli, Devices) {
  auto [rc, out] = run_cli({"devices"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("Tahiti"), std::string::npos);
  EXPECT_NE(out.find("Bulldozer"), std::string::npos);
  EXPECT_NE(out.find("Cypress"), std::string::npos);
  // The host-transfer model columns are part of the table.
  EXPECT_NE(out.find("Host GB/s"), std::string::npos);
  EXPECT_NE(out.find("Xfer us"), std::string::npos);
}

TEST(Cli, EmitProducesOpenCl) {
  auto [rc, out] = run_cli({"emit", "Fermi", "DGEMM"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("__kernel"), std::string::npos);
  EXPECT_NE(out.find("dgemm_atb_PL"), std::string::npos);
}

TEST(Cli, EmitRejectsBadDevice) {
  auto [rc, out] = run_cli({"emit", "Voodoo", "DGEMM"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(Cli, CompileRoundTrip) {
  const auto p =
      codegen::table2_entry(simcl::DeviceId::Kepler, codegen::Precision::SP)
          .params;
  const std::string src =
      ir::emit_opencl(codegen::generate_gemm_kernel(p));
  const std::string path = ::testing::TempDir() + "/cli_kernel.cl";
  {
    std::ofstream f(path);
    f << src;
  }
  auto [rc, out] = run_cli({"compile", path});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("kernel: sgemm_atb_PL"), std::string::npos);
  EXPECT_NE(out.find("arguments: 8"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, CompileRejectsMissingFile) {
  auto [rc, out] = run_cli({"compile", "/nonexistent.cl"});
  EXPECT_EQ(rc, 1);
}

TEST(Cli, EstimateReportsBothSides) {
  auto [rc, out] = run_cli({"estimate", "Sandy Bridge", "DGEMM", "NN",
                            "1536"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("GFlop/s"), std::string::npos);
  EXPECT_NE(out.find("Intel MKL"), std::string::npos);
}

TEST(Cli, SweepPrintsLcmGrid) {
  auto [rc, out] = run_cli({"sweep", "Kepler", "DGEMM", "256"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("| N"), std::string::npos);
  EXPECT_NE(out.find("64"), std::string::npos);  // Kepler DP LCM = 64
}

TEST(Cli, TuneSmallBudget) {
  auto [rc, out] = run_cli({"tune", "Cayman", "SGEMM", "300"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("best:"), std::string::npos);
  EXPECT_NE(out.find("paper Table II"), std::string::npos);
}

TEST(Cli, CountArgumentsRejectJunkNamingIt) {
  // Every count or size argument: `name` is how the error names it, and
  // the bad value replaces the "@" in `args`.
  struct Case {
    const char* name;
    std::vector<std::string> args;
  };
  const std::vector<Case> cases = {
      {"tune: budget", {"tune", "Tahiti", "DGEMM", "@"}},
      {"estimate: n", {"estimate", "Tahiti", "DGEMM", "NN", "@"}},
      {"sweep: maxN", {"sweep", "Tahiti", "DGEMM", "@"}},
      {"verify: M", {"verify", "Tahiti", "DGEMM", "@", "4", "4"}},
      {"verify: N", {"verify", "Tahiti", "DGEMM", "4", "@", "4"}},
      {"verify: K", {"verify", "Tahiti", "DGEMM", "4", "4", "@"}},
  };
  for (const Case& c : cases)
    for (const std::string bad : {"-3", "-1", "0", "12x", "abc"}) {
      std::vector<std::string> args = c.args;
      for (std::string& a : args)
        if (a == "@") a = bad;
      auto [rc, out] = run_cli(args);
      EXPECT_EQ(rc, 1) << c.name << " " << bad;
      EXPECT_NE(out.find(std::string(c.name) +
                         " expects an integer >= 1, got '" + bad + "'"),
                std::string::npos)
          << out;
    }
}

TEST(Cli, VerifyPassesAndBoundsSizes) {
  auto [rc, out] = run_cli({"verify", "Tahiti", "DGEMM", "40", "30", "20"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("PASS"), std::string::npos);
  auto [rc2, out2] = run_cli({"verify", "Tahiti", "DGEMM", "9999", "10",
                              "10"});
  EXPECT_EQ(rc2, 1);
}

TEST(Cli, InterpFlagSelectsBackend) {
  // Both tiers must verify successfully; bad values are rejected before
  // any command runs, with a keyval-style error naming the value and the
  // allowed set.
  auto [rc2, out2] =
      run_cli({"--interp=bytecode", "verify", "Tahiti", "DGEMM", "40", "30",
               "20"});
  EXPECT_EQ(rc2, 0) << out2;
  EXPECT_EQ(ir::resolve_backend(ir::Backend::Auto), ir::Backend::Bytecode);
  // The native backend must run every verb too — with no toolchain it
  // falls back to bytecode, so this passes on any machine.
  auto [rc4, out4] =
      run_cli({"--interp=native", "verify", "Tahiti", "DGEMM", "40", "30",
               "20"});
  EXPECT_EQ(rc4, 0) << out4;
  EXPECT_EQ(ir::resolve_backend(ir::Backend::Auto), ir::Backend::Native);
  // The tree walker is a test-only oracle, not a tier the CLI can select.
  for (const std::string bad : {"jit", "tree"}) {
    auto [rc3, out3] = run_cli({"--interp", bad, "devices"});
    EXPECT_EQ(rc3, 1);
    EXPECT_NE(out3.find("--interp: unknown value '" + bad +
                        "' (use bytecode, native)"),
              std::string::npos)
        << out3;
  }
  ir::set_backend_override(ir::Backend::Auto);
}

TEST(Cli, RemovedExecutorFlagsAreUnknownOptions) {
  // The VM has one dispatch mode and the JIT one emission mode, so the
  // flags that once selected them hit the generic unknown-option error.
  // Each name is split into two literals so the removed flag names occur
  // nowhere in the source tree.
  for (const std::string flag :
       {"--vm" "-dispatch", "--vm" "-dispatch=switch", "--native" "-simd",
        "--native" "-simd=off"}) {
    auto [rc, out] = run_cli({flag, "off", "devices"});
    EXPECT_EQ(rc, 1) << flag;
    EXPECT_NE(out.find("unknown option '" + flag + "'"), std::string::npos)
        << out;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Cli, JitCacheDirFlagPopulatesCache) {
  // --jit-cache-dir points the native backend's .so cache at a directory;
  // with a toolchain present a native verify leaves an object behind.
  const std::string dir = ::testing::TempDir() + "cli_jit_cache";
  const std::string metrics = ::testing::TempDir() + "cli_jit_metrics.json";
  std::system(("rm -rf " + dir).c_str());
  auto [rc, out] = run_cli({"--interp=native", "--jit-cache-dir", dir,
                            "--metrics", metrics, "verify", "Tahiti",
                            "DGEMM", "24", "16", "8"});
  EXPECT_EQ(rc, 0) << out;
  if (ir::native_toolchain_available()) {
    EXPECT_EQ(std::system(
                  ("ls " + dir + "/gemmtune-*.so >/dev/null 2>&1").c_str()),
              0);
    // The cold kernel's first call ran on bytecode while its object built;
    // verify waited for the object and checked a second call natively.
    const Json m = Json::parse(slurp(metrics));
    EXPECT_EQ(m.at("counters").at("interp.native_tierup").as_int(), 1);
    EXPECT_EQ(m.at("counters").at("gemm.calls").as_int(), 2);
  }
  std::remove(metrics.c_str());
  ir::set_jit_cache_dir("");
  ir::set_backend_override(ir::Backend::Auto);
  std::system(("rm -rf " + dir).c_str());
}

TEST(Cli, ServeThenReplayMatches) {
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "/cli_serve_trace.json";
  const std::string report1 = dir + "/cli_serve_r1.json";
  const std::string report2 = dir + "/cli_serve_r2.json";
  auto [rc, out] = run_cli({"serve",
                            "--workload=requests=60,seed=5,devices=Tahiti",
                            "--save-trace=" + trace,
                            "--report=" + report1});
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("throughput:"), std::string::npos) << out;
  auto [rc2, out2] =
      run_cli({"replay", trace, "--report=" + report2});
  EXPECT_EQ(rc2, 0) << out2;
  const std::string a = slurp(report1), b = slurp(report2);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "replay must reproduce the serve report exactly";
  EXPECT_NE(a.find("gemmtune-serve-v1"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(report1.c_str());
  std::remove(report2.c_str());
}

TEST(Cli, DistRunsAndWritesTheReport) {
  const std::string report = ::testing::TempDir() + "/cli_dist_report.json";
  auto [rc, out] = run_cli(
      {"dist", "--spec=size=4096,prec=SGEMM,devices=Tahiti+Cayman",
       "--report=" + report});
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("problem: SGEMM NN 4096x4096x4096"), std::string::npos)
      << out;
  EXPECT_NE(out.find("fleet:"), std::string::npos);
  EXPECT_NE(out.find("best single device:"), std::string::npos);
  std::ifstream f(report);
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  EXPECT_FALSE(doc.empty());
  EXPECT_NE(doc.find("gemmtune-dist-v1"), std::string::npos);
  std::remove(report.c_str());
}

TEST(Cli, DistRejectsBadSpec) {
  auto [rc, out] = run_cli({"dist", "--spec=siez=4096"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("unknown key 'siez'"), std::string::npos) << out;
}

TEST(Cli, ServeRejectsBadArguments) {
  auto [rc, out] = run_cli({"serve", "--bogus"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("unknown argument"), std::string::npos);
  auto [rc2, out2] = run_cli({"replay"});
  EXPECT_EQ(rc2, 1);
  auto [rc3, out3] = run_cli({"replay", "/nonexistent/trace.json"});
  EXPECT_EQ(rc3, 1);
  EXPECT_NE(out3.find("/nonexistent/trace.json"), std::string::npos);
}

TEST(Cli, ThreadsFlagRejectsGarbageNamingTheRange) {
  // Historically "--threads banana" and "--threads 0" were silently
  // treated as "use the hardware default"; they must fail loudly now.
  for (const char* bad : {"banana", "0", "-3", "4x", "", "99999"}) {
    auto [rc, out] = run_cli({"--threads", bad, "devices"});
    EXPECT_EQ(rc, 1) << "--threads " << bad;
    EXPECT_NE(out.find("--threads"), std::string::npos) << out;
    EXPECT_NE(out.find("invalid thread count"), std::string::npos) << out;
    EXPECT_NE(out.find("1..1024"), std::string::npos)
        << "error should name the allowed range: " << out;
  }
  // A valid value still works.
  auto [rc, out] = run_cli({"--threads", "2", "devices"});
  EXPECT_EQ(rc, 0) << out;
}

TEST(Cli, ThreadsEnvRejectsGarbageNamingTheVariable) {
  // A prior in-process --threads run leaves the process-wide override
  // set; clear it so the environment variable is actually consulted.
  set_thread_override(0);
  ASSERT_EQ(setenv("GEMMTUNE_THREADS", "lots", 1), 0);
  auto [rc, out] =
      run_cli({"serve", "--workload=requests=5,devices=Tahiti"});
  ASSERT_EQ(unsetenv("GEMMTUNE_THREADS"), 0);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("GEMMTUNE_THREADS"), std::string::npos) << out;
  EXPECT_NE(out.find("invalid thread count"), std::string::npos) << out;
}

TEST(Cli, ServeFlagsValidated) {
  auto [rc, out] = run_cli({"serve", "--workload=requests=5",
                            "--slo-ms", "-2"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("--slo-ms"), std::string::npos) << out;
}

TEST(Cli, RemovedServeKnobsFailLoudly) {
  // One pipeline: there is no core to select and no shard count to set.
  const std::string trace = ::testing::TempDir() + "/cli_knobs_wl.json";
  auto [rc, out] = run_cli(
      {"serve", "--workload=requests=5,seed=5,devices=Tahiti",
       "--save-trace", trace});
  ASSERT_EQ(rc, 0) << out;
  for (const std::vector<std::string>& knob :
       {std::vector<std::string>{"--core", "serial"},
        std::vector<std::string>{"--core", "async"},
        std::vector<std::string>{"--core", "diff"},
        std::vector<std::string>{"--shards", "4"}}) {
    std::vector<std::string> serve_args{"serve", "--workload=requests=5"};
    serve_args.insert(serve_args.end(), knob.begin(), knob.end());
    auto [rc2, out2] = run_cli(serve_args);
    EXPECT_EQ(rc2, 1);
    EXPECT_NE(out2.find("serve: unknown argument '" + knob[0] + "'"),
              std::string::npos)
        << out2;
    std::vector<std::string> replay_args{"replay", trace};
    replay_args.insert(replay_args.end(), knob.begin(), knob.end());
    auto [rc3, out3] = run_cli(replay_args);
    EXPECT_EQ(rc3, 1);
    EXPECT_NE(out3.find("replay: unknown argument '" + knob[0] + "'"),
              std::string::npos)
        << out3;
  }
  std::remove(trace.c_str());
}

TEST(Cli, ServeReportCarriesEveryView) {
  const std::string report = ::testing::TempDir() + "/cli_serve_views.json";
  auto [rc, out] = run_cli(
      {"serve", "--workload=requests=40,seed=5,devices=Tahiti",
       "--report=" + report});
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("executed:"), std::string::npos) << out;
  EXPECT_NE(out.find("shed:"), std::string::npos) << out;
  EXPECT_NE(out.find("p99"), std::string::npos) << out;
  EXPECT_EQ(out.find("vs serial"), std::string::npos) << out;
  const Json doc = Json::parse(slurp(report));
  EXPECT_EQ(doc.at("schema").as_string(), "gemmtune-serve-v1");
  const Json& sc = doc.at("scalars");
  for (const char* key : {"hist.p999_ms", "baseline.requests.completed",
                          "requests.executed", "requests.result_checksum",
                          "shed.infeasible"})
    EXPECT_TRUE(sc.contains(key)) << key;
  EXPECT_GT(sc.at("requests.executed").as_int(), 0);
  EXPECT_TRUE(doc.at("per_device").contains("Tahiti"));
  EXPECT_EQ(doc.at("options").at("tune_strategy").as_string(), "table2");
  EXPECT_FALSE(doc.at("core").at("shed_infeasible").as_bool());
  EXPECT_FALSE(doc.at("workload").contains("core"));
  std::remove(report.c_str());
}

TEST(Cli, ShedInfeasibleNeedsNoOtherFlag) {
  const std::string report = ::testing::TempDir() + "/cli_serve_shed.json";
  auto [rc, out] = run_cli(
      {"serve", "--workload=requests=40,seed=5,devices=Tahiti",
       "--shed-infeasible", "--report=" + report});
  EXPECT_EQ(rc, 0) << out;
  const Json doc = Json::parse(slurp(report));
  EXPECT_TRUE(doc.at("core").at("shed_infeasible").as_bool());
  std::remove(report.c_str());
}

/// Saves a two-request Tahiti trace, applies `edit` to its document and
/// writes it back; returns the path.
std::string edited_trace(const std::string& name,
                         const std::function<void(Json&)>& edit) {
  const std::string trace = ::testing::TempDir() + "/" + name;
  auto [rc, out] = run_cli(
      {"serve", "--workload=requests=2,seed=5,devices=Tahiti",
       "--save-trace", trace});
  EXPECT_EQ(rc, 0) << out;
  Json doc = Json::parse(slurp(trace));
  edit(doc);
  std::ofstream f(trace, std::ios::trunc);
  f << doc.dump(2);
  return trace;
}

/// Sets the extents `keys` of a trace document's first request to `v`.
void set_first_request(Json& doc, const std::vector<const char*>& keys,
                       std::int64_t v) {
  Json requests = Json::array();
  for (std::size_t i = 0; i < doc.at("requests").size(); ++i) {
    Json r = doc.at("requests").at(i);
    if (i == 0)
      for (const char* key : keys) r[key] = v;
    requests.push_back(std::move(r));
  }
  doc["requests"] = std::move(requests);
}

TEST(Cli, OversizedProblemsFailNamingTheLimit) {
  // A trace whose one request is 10^12 rows tall: routed to the fleet,
  // it would be cut into ~10^9 tiles.
  const std::string trace =
      edited_trace("cli_oversized_wl.json", [](Json& doc) {
        set_first_request(doc, {"m"}, 1000000000000);
      });
  auto [rc2, out2] = run_cli({"replay", trace});
  EXPECT_EQ(rc2, 1) << out2;
  EXPECT_NE(out2.find("1000000000000x"), std::string::npos) << out2;
  EXPECT_NE(out2.find("over the limit of 1048576 tiles"), std::string::npos)
      << out2;
  std::remove(trace.c_str());
  auto [rc3, out3] = run_cli(
      {"dist", "--spec=size=1000000000,prec=SGEMM,devices=Tahiti+Cayman"});
  EXPECT_EQ(rc3, 1) << out3;
  EXPECT_NE(out3.find("over the limit of 1048576 tiles"), std::string::npos)
      << out3;
  // A problem well inside the limit still runs.
  auto [rc4, out4] = run_cli(
      {"dist", "--spec=size=100000,prec=SGEMM,devices=Tahiti+Cayman"});
  EXPECT_EQ(rc4, 0) << out4;
  // Trace integers are range-checked before they are narrowed: an extent
  // that rounds to no int64, and a request count that an int would wrap
  // to the two requests the trace lists.
  const std::string huge =
      edited_trace("cli_huge_extent_wl.json", [](Json& doc) {
        set_first_request(doc, {"m"},
                          std::numeric_limits<std::int64_t>::max());
      });
  auto [rc5, out5] = run_cli({"replay", huge});
  EXPECT_EQ(rc5, 1) << out5;
  EXPECT_NE(out5.find("requests[0].m is 9.2233720368547758e+18, outside "
                      "the range [-9223372036854775808, "
                      "9223372036854775807]"),
            std::string::npos)
      << out5;
  std::remove(huge.c_str());
  const std::string wrapped =
      edited_trace("cli_wrapped_count_wl.json", [](Json& doc) {
        doc["spec"]["requests"] = std::int64_t{4294967298};
      });
  auto [rc6, out6] = run_cli({"replay", wrapped});
  EXPECT_EQ(rc6, 1) << out6;
  EXPECT_NE(out6.find("spec.requests is 4294967298, outside the range "
                      "[-2147483648, 2147483647]"),
            std::string::npos)
      << out6;
  std::remove(wrapped.c_str());
}

TEST(Cli, PaddedOperandsOverInt64FailNamingTheLimit) {
  // The cost model and the dist simulation compute operand bytes in
  // int64; a problem whose padded operands, or a dist tile's transfers,
  // pass 2^63 bytes is refused by every entry point that reaches them,
  // naming the extents and the limit.
  const std::string limit = "over the limit of 9223372036854775807 bytes";
  const auto expect_refused = [&](const std::vector<std::string>& args,
                                  const std::string& extents) {
    auto [rc, out] = run_cli(args);
    EXPECT_EQ(rc, 1) << out;
    EXPECT_NE(out.find("problem " + extents), std::string::npos) << out;
    EXPECT_NE(out.find(limit), std::string::npos) << out;
  };
  expect_refused({"estimate", "Tahiti", "DGEMM", "NN", "2147483647"},
                 "2147483647x2147483647x2147483647");
  expect_refused({"sweep", "Tahiti", "DGEMM", "2147483647"},
                 "2147483647x2147483647x2147483647");
  expect_refused({"dist", "--spec=m=1024,n=1024,k=4611686018427387904,"
                  "prec=DGEMM,devices=Tahiti"},
                 "1024x1024x4611686018427387904");
  // Each padded operand fits, but one tile's C block twice plus its A and
  // B panels does not.
  expect_refused({"dist", "--spec=m=1024,n=1024,k=1000000000000000,"
                  "prec=DGEMM,devices=Tahiti"},
                 "1024x1024x1000000000000000");
  // A replayed trace (workload_from_json) whose first request is
  // 9223372036854774784 x 9223372036854774784.
  const std::string trace = edited_trace("cli_int64_wl.json", [](Json& doc) {
    set_first_request(doc, {"m", "n"}, 9223372036854774784);
  });
  expect_refused({"replay", trace}, "9223372036854774784x9223372036854774784x");
  std::remove(trace.c_str());
  // A --shape extent whose shape class, rounded up to a multiple of 16,
  // would pass int64 is refused naming it and the limit; the largest one
  // allowed reaches the padded-operand check.
  auto [rc, out] = run_cli(
      {"tune", "Tahiti", "DGEMM", "--shape", "9223372036854775807x16x16"});
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("extent 9223372036854775807 is over the limit of "
                     "9223372036854775792"),
            std::string::npos)
      << out;
  expect_refused(
      {"tune", "Tahiti", "DGEMM", "--shape", "9223372036854775792x16x16"},
      "9223372036854775792x16x16");
  // Problems inside the limit still run, the dist one a tenth of the
  // refused k.
  EXPECT_EQ(run_cli({"estimate", "Tahiti", "DGEMM", "NN", "4096"}).first, 0);
  EXPECT_EQ(run_cli({"sweep", "Tahiti", "SGEMM", "1024"}).first, 0);
  EXPECT_EQ(run_cli({"dist", "--spec=m=1024,n=1024,k=100000000000000,"
                     "prec=DGEMM,devices=Tahiti"})
                .first,
            0);
}

TEST(Cli, TraceIntegersPast2To53ReadBackExactly) {
  // Replays a 512x512 first request whose `key` is the integer literal
  // `literal`, written into the trace text because set_first_request
  // stores a double.
  const auto replay_with = [](const std::string& key,
                              const std::string& literal) {
    const std::string trace =
        edited_trace("cli_past53_wl.json", [&](Json& doc) {
          set_first_request(doc, {"m", "n"}, 512);
          set_first_request(doc, {key.c_str()}, 7777);
        });
    std::string text = slurp(trace);
    const std::string placeholder = "\"" + key + "\": 7777";
    const std::size_t at = text.find(placeholder);
    EXPECT_NE(at, std::string::npos) << text;
    if (at != std::string::npos)
      text.replace(at, placeholder.size(), "\"" + key + "\": " + literal);
    std::ofstream(trace, std::ios::trunc) << text;
    auto result = run_cli({"replay", trace});
    std::remove(trace.c_str());
    return result;
  };
  // 2^53 + 1 is refused naming itself, where a double reads 2^53.
  auto [rc, out] = replay_with("priority", "9007199254740993");
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("requests[0].priority is 9007199254740993, outside "
                     "the range [-2147483648, 2147483647]"),
            std::string::npos)
      << out;
  // The server prices a request's shape class, its extents rounded up to
  // multiples of 16: k = 2^53 + 1 gives 2^53 + 16, where a double read
  // 2^53 and priced that. The refusal names the request (id 0) with its
  // own extents before the class.
  auto [rc_k, out_k] = replay_with("k", "9007199254740993");
  EXPECT_EQ(rc_k, 1) << out_k;
  EXPECT_NE(out_k.find("request 0 (DGEMM NN 512x512x9007199254740993)"),
            std::string::npos)
      << out_k;
  EXPECT_NE(out_k.find("problem 512x512x9007199254741008: a padded operand"),
            std::string::npos)
      << out_k;
}

TEST(Cli, ErrorsNameNoSourceFiles) {
  // User-facing errors carry the message only: no build-tree path and
  // line, also when an error is rethrown with context.
  const auto expect_clean = [](const std::vector<std::string>& args,
                               const std::string& want) {
    auto [rc, out] = run_cli(args);
    EXPECT_EQ(rc, 1) << out;
    EXPECT_EQ(out.find(".cpp:"), std::string::npos) << out;
    EXPECT_NE(out.find(want), std::string::npos) << out;
  };
  expect_clean({"replay", ::testing::TempDir() + "/cli_no_such_trace.json"},
               "error: load_workload_file: cannot open ");
  expect_clean({"serve", "--workload=requests=2,devices=Nope"},
               "error: unknown device 'Nope'");
  // A well-formed trace whose request count disagrees is invalid, not
  // corrupt.
  const std::string trace = edited_trace(
      "cli_count_wl.json",
      [](Json& doc) { doc["spec"]["requests"] = std::int64_t{3}; });
  expect_clean({"replay", trace},
               "error: load_workload_file: invalid workload trace '" + trace +
                   "': workload: spec.requests is 3 but the trace lists 2 "
                   "requests");
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace gemmtune
