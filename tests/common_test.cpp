// Unit tests for the common utilities: integer math, RNG determinism,
// string helpers, table rendering, and the JSON round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/intmath.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gemmtune {
namespace {

TEST(IntMath, CeilDivAndRounding) {
  EXPECT_EQ(ceil_div(7, 3), 3);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(round_up(5, 4), 8);
  EXPECT_EQ(round_up(8, 4), 8);
  EXPECT_EQ(round_down(5, 4), 4);
  EXPECT_EQ(round_down(8, 4), 8);
}

TEST(IntMath, Divides) {
  EXPECT_TRUE(divides(4, 12));
  EXPECT_FALSE(divides(5, 12));
  EXPECT_FALSE(divides(0, 12));
}

TEST(IntMath, Lcm3MatchesPaperUsage) {
  // The paper's stage-1 size uses LCM(Mwg, Nwg, Kwg).
  EXPECT_EQ(lcm3(96, 32, 48), 96);
  EXPECT_EQ(lcm3(64, 32, 48), 192);
  EXPECT_EQ(lcm3(32, 48, 192), 192);
  EXPECT_THROW(lcm3(0, 1, 1), Error);
}

TEST(IntMath, LargestMultipleLe) {
  EXPECT_EQ(largest_multiple_le(4096, 96), 4032);
  EXPECT_EQ(largest_multiple_le(4096, 64), 4096);
  EXPECT_EQ(largest_multiple_le(100, 192), 192);  // clamps up to one step
}

TEST(IntMath, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
  for (int i = 0; i < 1000; ++i) {
    const double d = a.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(a.next_below(7), 7u);
  }
}

TEST(Rng, RangeDouble) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    const double d = r.next_double(-2.0, 3.0);
    EXPECT_GE(d, -2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Strings, Basic) {
  EXPECT_EQ(strf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_TRUE(starts_with("CBL,CBL", "CBL"));
  EXPECT_FALSE(starts_with("C", "CBL"));
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(fmt_gflops(863.2), "863");
  EXPECT_EQ(fmt_gflops(37.4), "37.4");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"Processor", "GFlop/s"});
  t.add_row({"Tahiti", "863"});
  t.add_rule();
  t.add_row({"Bulldozer", "37"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Processor |"), std::string::npos);
  EXPECT_NE(s.find("863"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);  // two data rows + one rule
}

TEST(Table, RejectsRaggedRows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-1.5").as_number(), -1.5);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(Json, DocumentRoundTrip) {
  Json j = Json::object();
  j["name"] = "Tahiti";
  j["gflops"] = 863.0;
  j["shared"] = true;
  Json arr = Json::array();
  arr.push_back(96);
  arr.push_back(32);
  arr.push_back(48);
  j["wg"] = std::move(arr);
  for (int indent : {0, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back, j) << "indent=" << indent;
  }
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("nope"), Error);
}

TEST(Json, AccessorsEnforceKinds) {
  const Json j = Json::parse("{\"a\": [1, 2]}");
  EXPECT_THROW(j.as_int(), Error);
  EXPECT_THROW(j.at("missing"), Error);
  EXPECT_EQ(j.at("a").size(), 2u);
  EXPECT_THROW(j.at("a").at(std::size_t{5}), Error);
}

TEST(Json, IntegersOutsideTheRangeAreRefused) {
  // An integer literal that fits int64 reads back exactly, also past 2^53
  // where a double would round it; one outside int64 is a double, and
  // 2^63 is refused instead of wrapping.
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("9223372036854774784").as_int(),
            std::int64_t{9223372036854774784});
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  const Json past53 = Json::parse("9007199254740993");
  EXPECT_EQ(past53.as_int(), std::int64_t{9007199254740993});
  EXPECT_EQ(past53.int_in(0, 9007199254740993),
            std::int64_t{9007199254740993});
  EXPECT_EQ(past53.int_in(0, 9007199254740992), std::nullopt);
  EXPECT_EQ(past53.as_number(), 9007199254740992.0);
  EXPECT_EQ(past53.dump(), "9007199254740993");
  EXPECT_EQ(Json::parse("[-9007199254740993]").dump(), "[-9007199254740993]");
  // A constructed number is a double and dumps rounded.
  EXPECT_EQ(Json(std::int64_t{9007199254740993}).dump(),
            "9007199254740992");
  try {
    Json::parse("9223372036854775808").as_int();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "Json: 9.2233720368547758e+18 is outside the int64 range "
              "[-9223372036854775808, 9223372036854775807]");
  }
  EXPECT_THROW(Json::parse("-1e300").as_int(), Error);
  // A narrower range reports a miss rather than narrowing.
  const Json n = Json::parse("4294967299");
  EXPECT_EQ(n.int_in(-2147483648, 2147483647), std::nullopt);
  EXPECT_EQ(n.int_in(0, 4294967299), std::int64_t{4294967299});
  EXPECT_THROW(Json::parse("\"7\"").int_in(0, 9), Error);
}

TEST(ErrorCheck, CarriesLocation) {
  // The message is what() alone; the failed check's location rides
  // beside it.
  const int line = __LINE__ + 2;
  try {
    check(false, "boom");
    FAIL() << "check did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_NE(std::string(e.where().file_name()).find("common_test.cpp"),
              std::string::npos);
    EXPECT_EQ(e.where().line(), static_cast<unsigned>(line));
  }
}

}  // namespace
}  // namespace gemmtune
