// Tests for the observability layer: span recording and nesting, counter
// and gauge aggregation, the deterministic multi-thread merge under the
// shared thread pool, and the JSON schemas round-tripping through the
// common parser.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/thread_pool.hpp"

namespace gemmtune {
namespace {

// The trace state is process-wide, so every test starts from a clean,
// enabled collector and leaves it disabled for the next one.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::reset();
    trace::set_enabled(true);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  trace::set_enabled(false);
  {
    trace::Span span("t.off");
    trace::counter_add("t.off_counter", 7);
    trace::gauge_set("t.off_gauge", 1.0);
  }
  const Json m = trace::metrics_json();
  EXPECT_EQ(m.at("spans").size(), 0u);
  EXPECT_EQ(m.at("counters").size(), 0u);
  EXPECT_EQ(m.at("gauges").size(), 0u);
  EXPECT_EQ(trace::trace_json().at("traceEvents").size(), 0u);
}

TEST_F(TraceTest, SpanStatsCountTotalMinMax) {
  for (int i = 0; i < 5; ++i) trace::Span span("t.stats");
  const Json m = trace::metrics_json();
  const Json& s = m.at("spans").at("t.stats");
  EXPECT_EQ(s.at("count").as_int(), 5);
  EXPECT_GE(s.at("min_ns").as_int(), 1);  // 1 ns duration floor
  EXPECT_LE(s.at("min_ns").as_int(), s.at("max_ns").as_int());
  EXPECT_GE(s.at("total_ns").as_int(), 5 * s.at("min_ns").as_int());
  EXPECT_LE(s.at("total_ns").as_int(), 5 * s.at("max_ns").as_int());
}

TEST_F(TraceTest, NestedSpansRecordDepth) {
  {
    trace::Span outer("t.outer");
    trace::Span inner("t.inner");
    { trace::Span leaf("t.leaf"); }
  }
  { trace::Span again("t.outer"); }  // depth back to 0 after unwinding

  const Json events = trace::trace_json().at("traceEvents");
  ASSERT_EQ(events.size(), 4u);
  int depth_by_name[3] = {-1, -1, -1};
  int outer_count = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const std::string name = e.at("name").as_string();
    const int depth = static_cast<int>(e.at("args").at("depth").as_int());
    if (name == "t.outer") {
      EXPECT_EQ(depth, 0);
      ++outer_count;
    } else if (name == "t.inner") {
      depth_by_name[1] = depth;
    } else if (name == "t.leaf") {
      depth_by_name[2] = depth;
    }
  }
  EXPECT_EQ(outer_count, 2);
  EXPECT_EQ(depth_by_name[1], 1);
  EXPECT_EQ(depth_by_name[2], 2);
}

TEST_F(TraceTest, TraceEventsSortedByTimestamp) {
  for (int i = 0; i < 8; ++i) trace::Span span("t.tick");
  const Json events = trace::trace_json().at("traceEvents");
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events.at(i - 1).at("ts").as_number(),
              events.at(i).at("ts").as_number());
}

TEST_F(TraceTest, CounterAggregationIsSumAcrossThreads) {
  // Each index contributes its own value; the merged total must be the
  // arithmetic series sum no matter how the range was chunked.
  constexpr std::int64_t kN = 1000;
  for (int threads : {1, 2, 4}) {
    trace::reset();
    ThreadPool pool(threads);
    pool.parallel_for(kN, [](std::int64_t begin, std::int64_t end, int) {
      for (std::int64_t i = begin; i < end; ++i) {
        trace::counter_add("t.sum", static_cast<std::uint64_t>(i));
        trace::counter_add("t.calls", 1);
      }
    });
    const Json m = trace::metrics_json();
    EXPECT_EQ(m.at("counters").at("t.sum").as_int(), kN * (kN - 1) / 2)
        << "threads=" << threads;
    EXPECT_EQ(m.at("counters").at("t.calls").as_int(), kN)
        << "threads=" << threads;
  }
}

TEST_F(TraceTest, SpanMergeIsDeterministicAcrossThreadCounts) {
  // The aggregated span document must be identical in every wall-clock
  // independent field (names, counts) at any thread count.
  constexpr std::int64_t kN = 64;
  for (int threads : {1, 3, 8}) {
    trace::reset();
    ThreadPool pool(threads);
    pool.parallel_for(kN, [](std::int64_t begin, std::int64_t end, int) {
      for (std::int64_t i = begin; i < end; ++i) {
        trace::Span outer("t.item");
        trace::Span inner("t.item_inner");
      }
    });
    const Json m = trace::metrics_json();
    EXPECT_EQ(m.at("spans").size(), 2u) << "threads=" << threads;
    EXPECT_EQ(m.at("spans").at("t.item").at("count").as_int(), kN)
        << "threads=" << threads;
    EXPECT_EQ(m.at("spans").at("t.item_inner").at("count").as_int(), kN)
        << "threads=" << threads;
    EXPECT_EQ(trace::trace_json().at("traceEvents").size(),
              static_cast<std::size_t>(2 * kN))
        << "threads=" << threads;
  }
}

TEST_F(TraceTest, GaugeLastWriteWins) {
  trace::gauge_set("t.gauge", 1.0);
  trace::gauge_set("t.gauge", 2.5);
  trace::gauge_set("t.other", -4.0);
  EXPECT_DOUBLE_EQ(trace::metrics_json().at("gauges").at("t.gauge").as_number(),
                   2.5);

  // A later write from a different thread supersedes this thread's value:
  // the merge follows the global write sequence, not buffer order.
  std::thread([] { trace::gauge_set("t.gauge", 9.0); }).join();
  const Json m = trace::metrics_json();
  EXPECT_DOUBLE_EQ(m.at("gauges").at("t.gauge").as_number(), 9.0);
  EXPECT_DOUBLE_EQ(m.at("gauges").at("t.other").as_number(), -4.0);
}

TEST_F(TraceTest, MetricsJsonRoundTripsThroughParser) {
  {
    trace::Span span("t.roundtrip");
    trace::counter_add("t.count", 42);
    trace::gauge_set("t.gauge", 3.5);
  }
  const Json m = trace::metrics_json();
  const Json re = Json::parse(m.dump(2));
  EXPECT_EQ(re, m);
  EXPECT_EQ(re.at("schema").as_string(), "gemmtune-metrics-v1");
  ASSERT_TRUE(re.at("spans").contains("t.roundtrip"));
  EXPECT_EQ(re.at("counters").at("t.count").as_int(), 42);
  EXPECT_DOUBLE_EQ(re.at("gauges").at("t.gauge").as_number(), 3.5);
}

TEST_F(TraceTest, TraceJsonRoundTripsThroughParser) {
  {
    trace::Span outer("t.chrome");
    trace::Span inner("t.chrome_inner");
  }
  const Json t = trace::trace_json();
  const Json re = Json::parse(t.dump(2));
  EXPECT_EQ(re, t);
  EXPECT_EQ(re.at("displayTimeUnit").as_string(), "ms");
  ASSERT_EQ(re.at("traceEvents").size(), 2u);
  const Json& e = re.at("traceEvents").at(0);
  EXPECT_EQ(e.at("ph").as_string(), "X");
  EXPECT_EQ(e.at("cat").as_string(), "gemmtune");
  EXPECT_GT(e.at("dur").as_number(), 0.0);
}

TEST_F(TraceTest, ResetClearsEverything) {
  {
    trace::Span span("t.gone");
    trace::counter_add("t.gone", 1);
    trace::gauge_set("t.gone", 1.0);
  }
  trace::reset();
  const Json m = trace::metrics_json();
  EXPECT_EQ(m.at("spans").size(), 0u);
  EXPECT_EQ(m.at("counters").size(), 0u);
  EXPECT_EQ(m.at("gauges").size(), 0u);

  // Still recording after a reset.
  trace::counter_add("t.back", 2);
  EXPECT_EQ(trace::metrics_json().at("counters").at("t.back").as_int(), 2);
}

TEST_F(TraceTest, WriteFilesProduceParsableDocuments) {
  { trace::Span span("t.file"); }
  const std::string dir = ::testing::TempDir();
  const std::string mpath = dir + "/trace_test_metrics.json";
  const std::string tpath = dir + "/trace_test_trace.json";
  trace::write_metrics_file(mpath);
  trace::write_trace_file(tpath);

  auto slurp = [](const std::string& path) {
    std::ifstream f(path);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  };
  const Json m = Json::parse(slurp(mpath));
  EXPECT_EQ(m.at("schema").as_string(), "gemmtune-metrics-v1");
  const Json t = Json::parse(slurp(tpath));
  EXPECT_EQ(t.at("traceEvents").size(), 1u);
}

}  // namespace
}  // namespace gemmtune
