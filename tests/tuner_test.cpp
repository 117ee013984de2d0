// Tuner tests: candidate enumeration validity and determinism, the
// two-stage search procedure of Section III-F, and the results database.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "enum_oracle.hpp"
#include "tuner/results_db.hpp"
#include "tuner/search.hpp"

namespace gemmtune {
namespace {

using codegen::Precision;
using simcl::DeviceId;
using tuner::EnumOptions;
using tuner::EnumStats;
using tuner::SearchEngine;
using tuner::SearchOptions;
using tuner::SearchStats;
using tuner::TunedDatabase;

EnumOptions small_enum() {
  EnumOptions o;
  o.max_candidates = 1500;
  return o;
}

TEST(Candidates, AllEnumeratedSetsAreValid) {
  EnumStats st;
  const auto cands = tuner::enumerate_candidates(DeviceId::Tahiti,
                                                 Precision::DP, small_enum(),
                                                 &st);
  EXPECT_EQ(cands.size(), 1500u);
  EXPECT_GT(st.raw_combinations, st.valid);
  EXPECT_GT(st.invalid, 0);
  const auto& dev = simcl::device_spec(DeviceId::Tahiti);
  for (const auto& p : cands) {
    EXPECT_EQ(validate(p, dev), nullptr) << p.summary();
    EXPECT_EQ(p.prec, Precision::DP);
  }
}

TEST(Candidates, SpaceIsTensOfThousands) {
  // The paper: "We searched tens of thousands of kernel variants per
  // single GEMM type." Our valid space exceeds that before subsampling.
  EnumStats st;
  EnumOptions o;
  o.max_candidates = 10;
  (void)tuner::enumerate_candidates(DeviceId::Tahiti, Precision::SP, o, &st);
  EXPECT_GT(st.valid, 50000);
}

TEST(Candidates, DeterministicForSeed) {
  const auto a = tuner::enumerate_candidates(DeviceId::Fermi, Precision::SP,
                                             small_enum());
  const auto b = tuner::enumerate_candidates(DeviceId::Fermi, Precision::SP,
                                             small_enum());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Candidates, RejectsABudgetBelowOne) {
  for (int budget : {0, -3}) {
    EnumOptions o;
    o.max_candidates = budget;
    EXPECT_THROW(
        tuner::enumerate_candidates(DeviceId::Tahiti, Precision::DP, o),
        Error)
        << "budget " << budget;
  }
}

TEST(Candidates, GridEnumeratorMatchesNestedLoopOracle) {
  struct Config {
    DeviceId id;
    Precision prec;
    bool row_major;
  };
  // Row-major walks are the longest (9 layout pairs instead of 4), so
  // each lands in a different worker's chunk of the 4-thread pool below.
  std::vector<Config> configs;
  const std::vector<DeviceId> devices = simcl::evaluation_devices();
  std::size_t next = 0;
  for (DeviceId rm : {DeviceId::Tahiti, DeviceId::SandyBridge}) {
    for (Precision prec : {Precision::DP, Precision::SP}) {
      configs.push_back({rm, prec, true});
      for (int i = 0; i < 3; ++i, ++next)
        configs.push_back({devices[next / 2],
                           next % 2 == 0 ? Precision::DP : Precision::SP,
                           false});
    }
  }
  ASSERT_EQ(next, 2 * devices.size());
  std::vector<tuner::OracleSample> samples;
  for (int budget : {10, 1500, 20000})
    for (std::uint64_t seed : {1, 7}) samples.push_back({budget, seed});

  std::vector<std::string> failures(configs.size());
  ThreadPool pool(4);
  pool.parallel_for(
      static_cast<std::int64_t>(configs.size()),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i) {
          const Config& c = configs[static_cast<std::size_t>(i)];
          const tuner::OracleResult want =
              tuner::oracle_enumerate(c.id, c.prec, c.row_major, samples);
          std::string& failed = failures[static_cast<std::size_t>(i)];
          for (std::size_t s = 0; s < samples.size(); ++s) {
            for (int threads : {1, 4}) {
              EnumOptions o;
              o.max_candidates = samples[s].max_candidates;
              o.seed = samples[s].seed;
              o.include_row_major = c.row_major;
              o.threads = threads;
              EnumStats st;
              const auto got =
                  tuner::enumerate_candidates(c.id, c.prec, o, &st);
              if (got != want.lists[s] ||
                  st.raw_combinations != want.stats.raw_combinations ||
                  st.invalid != want.stats.invalid ||
                  st.valid != want.stats.valid)
                failed += strf(" [budget %d seed %llu threads %d]",
                               o.max_candidates,
                               static_cast<unsigned long long>(o.seed),
                               threads);
            }
          }
        }
      });
  for (std::size_t i = 0; i < configs.size(); ++i)
    EXPECT_EQ(failures[i], "")
        << simcl::to_string(configs[i].id) << " "
        << to_string(configs[i].prec)
        << (configs[i].row_major ? " row-major" : "");
}

TEST(Candidates, DeviceConstraintsShapeTheSpace) {
  // Cayman has 32 KB of local memory; no candidate may exceed it.
  const auto cands = tuner::enumerate_candidates(DeviceId::Cayman,
                                                 Precision::SP, small_enum());
  for (const auto& p : cands)
    EXPECT_LE(p.local_mem_bytes(), 32 * 1024) << p.summary();
}

TEST(Search, TwoStageProcedureFindsAFastKernel) {
  SearchEngine engine(DeviceId::Tahiti);
  SearchOptions opt;
  opt.enumeration.max_candidates = 3000;
  SearchStats st;
  const auto best = engine.tune(Precision::DP, opt, &st);
  EXPECT_EQ(st.stage1_evaluated, 3001);  // +1 for the Table II seed
  EXPECT_GT(st.stage2_points, 0);
  // The search must do at least as well as the paper's own kernel, since
  // that kernel is seeded into the candidate set.
  const double paper = codegen::table2_entry(DeviceId::Tahiti,
                                             Precision::DP).max_gflops;
  EXPECT_GE(best.best_gflops, paper * 0.999);
  // ...and not absurdly better (the model caps at the device peak).
  EXPECT_LE(best.best_gflops,
            simcl::device_spec(DeviceId::Tahiti).peak_dp_gflops);
  EXPECT_FALSE(best.curve.empty());
  EXPECT_GT(best.best_n, 0);
}

TEST(Search, SweepIsLcmSpacedAndMonotoneInN) {
  SearchEngine engine(DeviceId::Kepler);
  const auto p = codegen::table2_entry(DeviceId::Kepler, Precision::SP).params;
  const auto curve = engine.sweep(p, 4096);
  ASSERT_GT(curve.size(), 4u);
  const std::int64_t lcm = curve.front().first;
  for (std::size_t i = 0; i < curve.size(); ++i)
    EXPECT_EQ(curve[i].first, static_cast<std::int64_t>(i + 1) * lcm);
}

TEST(Search, BulldozerNeverSelectsPlForDgemm) {
  SearchEngine engine(DeviceId::Bulldozer);
  SearchOptions opt;
  opt.enumeration.max_candidates = 2000;
  const auto best = engine.tune(Precision::DP, opt);
  EXPECT_NE(best.params.algo, codegen::Algorithm::PL);
}

TEST(ResultsDb, PutFindRoundTrip) {
  TunedDatabase db;
  EXPECT_FALSE(db.find(DeviceId::Tahiti, Precision::DP).has_value());
  auto t = tuner::profile_kernel(
      DeviceId::Tahiti,
      codegen::table2_entry(DeviceId::Tahiti, Precision::DP).params, 4096);
  db.put(DeviceId::Tahiti, Precision::DP, t);
  const auto hit = db.find(DeviceId::Tahiti, Precision::DP);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->params, t.params);
  EXPECT_EQ(hit->best_gflops, t.best_gflops);
}

TEST(ResultsDb, JsonRoundTrip) {
  TunedDatabase db;
  db.put(DeviceId::Fermi, Precision::SP,
         tuner::profile_kernel(
             DeviceId::Fermi,
             codegen::table2_entry(DeviceId::Fermi, Precision::SP).params,
             2048));
  const std::string text = db.save_json();
  const TunedDatabase back = TunedDatabase::load_json(text);
  const auto hit = back.find(DeviceId::Fermi, Precision::SP);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->params,
            codegen::table2_entry(DeviceId::Fermi, Precision::SP).params);
  EXPECT_EQ(hit->curve.size(),
            db.find(DeviceId::Fermi, Precision::SP)->curve.size());
}

TEST(ResultsDb, FileRoundTrip) {
  TunedDatabase db;
  db.put(DeviceId::Cayman, Precision::DP,
         tuner::profile_kernel(
             DeviceId::Cayman,
             codegen::table2_entry(DeviceId::Cayman, Precision::DP).params,
             2048));
  const std::string path = ::testing::TempDir() + "/gemmtune_db.json";
  db.save_file(path);
  const TunedDatabase back = TunedDatabase::load_file(path);
  EXPECT_TRUE(back.find(DeviceId::Cayman, Precision::DP).has_value());
  std::remove(path.c_str());
  EXPECT_THROW(TunedDatabase::load_file("/nonexistent/x.json"), Error);
}

TEST(ResultsDb, SaveFileLeavesNoTempBehind) {
  TunedDatabase db;
  db.put(DeviceId::Tahiti, Precision::SP,
         tuner::profile_kernel(
             DeviceId::Tahiti,
             codegen::table2_entry(DeviceId::Tahiti, Precision::SP).params,
             1024));
  const std::string path = ::testing::TempDir() + "/gemmtune_atomic.json";
  db.save_file(path);
  // The write goes through path+".tmp" then rename; after a successful
  // save only the final file may exist.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  EXPECT_TRUE(
      TunedDatabase::load_file(path).find(DeviceId::Tahiti, Precision::SP)
          .has_value());
  std::remove(path.c_str());
}

TEST(ResultsDb, LoadFileCorruptJsonNamesThePath) {
  const std::string path = ::testing::TempDir() + "/gemmtune_corrupt.json";
  {
    std::ofstream f(path);
    f << "{ this is not json";
  }
  try {
    TunedDatabase::load_file(path);
    FAIL() << "expected Error for corrupt database";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ResultsDb, LoadFileTruncatedDocumentNamesThePath) {
  TunedDatabase db;
  db.put(DeviceId::Fermi, Precision::DP,
         tuner::profile_kernel(
             DeviceId::Fermi,
             codegen::table2_entry(DeviceId::Fermi, Precision::DP).params,
             1024));
  const std::string path = ::testing::TempDir() + "/gemmtune_trunc.json";
  db.save_file(path);
  std::string text;
  {
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    text = ss.str();
  }
  {
    std::ofstream f(path, std::ios::trunc);
    f << text.substr(0, text.size() / 2);  // valid prefix, cut mid-document
  }
  try {
    TunedDatabase::load_file(path);
    FAIL() << "expected Error for truncated database";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ResultsDb, PaperSeededCoversAllDevices) {
  const TunedDatabase db = TunedDatabase::paper_seeded();
  EXPECT_EQ(db.size(), 14u);  // 7 devices x 2 precisions
  for (DeviceId id : simcl::all_devices()) {
    for (Precision prec : {Precision::DP, Precision::SP}) {
      const auto hit = db.find(id, prec);
      ASSERT_TRUE(hit.has_value()) << simcl::to_string(id);
      EXPECT_GT(hit->best_gflops, 0);
    }
  }
}

TEST(ResultsDb, GetOrTuneCachesTheResult) {
  TunedDatabase db;
  SearchOptions opt;
  opt.enumeration.max_candidates = 300;
  const auto& a = db.get_or_tune(DeviceId::Kepler, Precision::DP, opt);
  const auto& b = db.get_or_tune(DeviceId::Kepler, Precision::DP, opt);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(db.size(), 1u);
}

}  // namespace
}  // namespace gemmtune

namespace gemmtune {
namespace {

TEST(Search, DeterministicAcrossRuns) {
  // The whole pipeline is seeded: two identical searches must select the
  // same kernel with the same measured numbers.
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = 800;
  tuner::SearchEngine engine(simcl::DeviceId::Cayman);
  const auto a = engine.tune(codegen::Precision::SP, opt);
  const auto b = engine.tune(codegen::Precision::SP, opt);
  EXPECT_EQ(a.params, b.params);
  EXPECT_DOUBLE_EQ(a.best_gflops, b.best_gflops);
  EXPECT_EQ(a.best_n, b.best_n);
}

TEST(Search, RestrictionsAreHonored) {
  tuner::SearchEngine engine(simcl::DeviceId::Tahiti);
  tuner::SearchOptions opt;
  opt.enumeration.max_candidates = 800;
  opt.restrict_algo = codegen::Algorithm::DB;
  const auto db_only = engine.tune(codegen::Precision::DP, opt);
  EXPECT_EQ(db_only.params.algo, codegen::Algorithm::DB);
  tuner::SearchOptions opt2;
  opt2.enumeration.max_candidates = 800;
  opt2.restrict_local = false;
  const auto no_local = engine.tune(codegen::Precision::DP, opt2);
  EXPECT_FALSE(no_local.params.share_a || no_local.params.share_b);
}

}  // namespace
}  // namespace gemmtune
