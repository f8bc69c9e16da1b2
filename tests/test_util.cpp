// Unit tests for src/util: RNG, statistics, fixed-point, bitops, config.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "trace/app_profile.hpp"
#include "util/atomic_file.hpp"
#include "util/bitops.hpp"
#include "util/config.hpp"
#include "util/fixed_point.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace memsched::util {
namespace {

// ---------------------------------------------------------------- RNG -----

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 33) + 7}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Xoshiro256 rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkIndependence) {
  Xoshiro256 parent(17);
  Xoshiro256 a = parent.fork(0);
  Xoshiro256 b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, GeometricRunMeanApproximates) {
  Xoshiro256 rng(23);
  // continue_p = 1 - 1/B with B = 8 -> mean run ~ B - 1 successes.
  double total = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) total += geometric_run(rng, 1.0 - 1.0 / 8.0, 1000);
  EXPECT_NEAR(total / trials, 7.0, 0.35);
}

TEST(Rng, GeometricRunHonorsCap) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(geometric_run(rng, 0.99, 5), 5u);
}

bool same_state(const Xoshiro256& a, const Xoshiro256& b) {
  const Xoshiro256::State sa = a.state(), sb = b.state();
  return std::equal(std::begin(sa.s), std::end(sa.s), std::begin(sb.s));
}

TEST(Rng, BernoulliMatchesChanceDrawForDraw) {
  // The precomputed threshold must return what chance(p) returns and leave
  // the generator where chance(p) leaves it: no draw outside (0, 1), one
  // draw returning false for NaN.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::set<double> probs = {-1.0,
                            0.0,
                            std::numeric_limits<double>::denorm_min(),
                            0x1.0p-53,
                            0.125,
                            1.0 / 3.0,
                            1.0 - 0x1.0p-53,
                            1.0,
                            2.0,
                            kInf,
                            -kInf};
  for (const trace::AppProfile& app : trace::spec2000_profiles()) {
    probs.insert({app.mem_ref_per_kinst / 1000.0, app.store_share, app.dirty_fresh_share,
                  app.dep_chain_frac});
  }
  std::vector<double> cases(probs.begin(), probs.end());
  cases.push_back(-0.0);  // the set keeps one of the two zeros
  cases.push_back(std::numeric_limits<double>::quiet_NaN());
  for (const double p : cases) {
    Xoshiro256 ref(31), fast(31);
    const Bernoulli draw(p);
    for (int i = 0; i < 100'000; ++i) {
      ASSERT_EQ(draw(fast), ref.chance(p)) << "p=" << p << " draw " << i;
      ASSERT_TRUE(same_state(fast, ref)) << "p=" << p << " draw " << i;
    }
  }
  // NaN consumes a draw, as chance() does.
  Xoshiro256 untouched(31), nan_drawn(31);
  EXPECT_FALSE(Bernoulli(std::numeric_limits<double>::quiet_NaN())(nan_drawn));
  EXPECT_FALSE(same_state(untouched, nan_drawn));
}

/// A generator whose next() returns `r`. xoshiro256** outputs
/// rotl(s[1] * 5, 7) * 9, and 5 and 9 are invertible mod 2^64.
Xoshiro256 yielding(std::uint64_t r) {
  const auto inverse = [](std::uint64_t odd) {
    std::uint64_t v = odd;  // Newton: each step doubles the correct low bits
    for (int i = 0; i < 5; ++i) v *= 2 - odd * v;
    return v;
  };
  Xoshiro256 rng;
  rng.set_state({{0, std::rotr(r * inverse(9), 7) * inverse(5), 0, 0}});
  return rng;
}

TEST(Rng, BernoulliIsExactAtItsThreshold) {
  // Random draws almost never land next to the threshold, so drive the
  // 53-bit draw x to each value around p * 2^53 and compare with chance(p).
  std::vector<double> probs = {std::numeric_limits<double>::denorm_min(), 0x1.0p-53, 0.125,
                               1.0 / 3.0, 0.3, 1.0 - 0x1.0p-53};
  for (const trace::AppProfile& app : trace::spec2000_profiles()) {
    probs.push_back(app.mem_ref_per_kinst / 1000.0);
  }
  for (const double p : probs) {
    const double t = p * 0x1.0p53;
    const auto lo = static_cast<std::uint64_t>(std::floor(t));
    for (std::uint64_t x = lo > 0 ? lo - 1 : 0; x <= lo + 2 && x < (1ull << 53); ++x) {
      for (const std::uint64_t low_bits : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
        Xoshiro256 ref = yielding(x << 11 | low_bits), fast = ref, probe = ref;
        ASSERT_EQ(probe.next(), x << 11 | low_bits);
        ASSERT_EQ(Bernoulli(p)(fast), ref.chance(p)) << "p=" << p << " x=" << x;
      }
    }
  }
}

TEST(Rng, BoundedDrawMatchesBelowDrawForDraw) {
  for (const std::uint64_t bound :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{768}, std::uint64_t{1} << 20, (std::uint64_t{1} << 33) + 7,
        (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
    Xoshiro256 ref(37), fast(37);
    const BoundedDraw draw(bound);
    for (int i = 0; i < 100'000; ++i) {
      ASSERT_EQ(draw(fast), ref.below(bound)) << "bound=" << bound << " draw " << i;
      ASSERT_TRUE(same_state(fast, ref)) << "bound=" << bound << " draw " << i;
    }
  }
}

// -------------------------------------------------------------- stats -----

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeEqualsCombined) {
  RunningStat a, b, all;
  Xoshiro256 rng(31);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform() * 100.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 5);  // [0,50) + overflow
  h.add(0.0);
  h.add(9.9);
  h.add(10.0);
  h.add(49.9);
  h.add(50.0);
  h.add(1e9);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, NegativeClampsToZeroBucket) {
  Histogram h(1.0, 4);
  h.add(-3.0);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Histogram, MergeSumsCounts) {
  Histogram a(1.0, 10), b(1.0, 10);
  a.add(1.5);
  a.add(100.0);  // overflow
  b.add(1.5);
  b.add(7.2);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.bucket(1), 2u);
  EXPECT_EQ(a.bucket(7), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

TEST(Histogram, QuantileMedian) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(StatsHelpers, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_NEAR(geomean_of({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean_of({1.0, 0.0}), 0.0);
}

// -------------------------------------------------------- fixed point -----

TEST(FixedPoint, QuantizeEndpoints) {
  EXPECT_EQ(quantize(0.0, 100.0, 10), 0u);
  EXPECT_EQ(quantize(-5.0, 100.0, 10), 0u);
  EXPECT_EQ(quantize(100.0, 100.0, 10), 1023u);
  EXPECT_EQ(quantize(1e9, 100.0, 10), 1023u);
}

TEST(FixedPoint, QuantizePreservesOrder) {
  const double max = 50.0;
  std::uint32_t prev = 0;
  for (double v = 0.0; v <= max; v += 0.5) {
    const std::uint32_t q = quantize(v, max, 10);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(FixedPoint, RoundTripErrorBounded) {
  const double max = 200.0;
  for (double v : {0.1, 1.0, 17.3, 99.9, 150.0, 199.99}) {
    const double back = dequantize(quantize(v, max, 10), max, 10);
    EXPECT_NEAR(back, v, max / 1023.0);
  }
}

// -------------------------------------------------------------- bitops ----

TEST(Bitops, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
}

TEST(Bitops, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(64), 6u);
  EXPECT_EQ(ilog2((1ull << 40) + 5), 40u);
}

TEST(Bitops, BitsAndDeposit) {
  const std::uint64_t x = 0xdeadbeefcafe1234ull;
  EXPECT_EQ(bits(x, 0, 4), 0x4u);
  EXPECT_EQ(bits(x, 8, 8), 0x12u);
  EXPECT_EQ(bits(x, 0, 0), 0u);
  EXPECT_EQ(deposit(0x5, 4, 4), 0x50u);
  EXPECT_EQ(deposit(0xff, 0, 4), 0xfu);  // masked to width
}

TEST(Bitops, BitsDepositRoundTrip) {
  for (unsigned pos : {0u, 3u, 17u}) {
    for (unsigned width : {1u, 5u, 12u}) {
      const std::uint64_t v = 0x2aull & ((1ull << width) - 1);
      EXPECT_EQ(bits(deposit(v, pos, width), pos, width), v);
    }
  }
}

// -------------------------------------------------------------- config ----

TEST(Config, ParseAndTypedGet) {
  Config c;
  EXPECT_FALSE(c.parse_token("insts=5000"));
  EXPECT_FALSE(c.parse_token("ratio=2.5"));
  EXPECT_FALSE(c.parse_token("name=hello"));
  EXPECT_FALSE(c.parse_token("flag=true"));
  EXPECT_EQ(c.get_int("insts", 0), 5000);
  EXPECT_DOUBLE_EQ(c.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(c.get_string("name", ""), "hello");
  EXPECT_TRUE(c.get_bool("flag", false));
}

TEST(Config, DefaultsWhenMissing) {
  Config c;
  EXPECT_EQ(c.get_int("absent", 7), 7);
  EXPECT_EQ(c.get_uint("absent", 9u), 9u);
  EXPECT_FALSE(c.get_bool("absent", false));
}

/// The message of the std::invalid_argument `get` throws; empty if none.
template <typename Get>
std::string refusal(Get get) {
  try {
    (void)get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Config, MalformedValueRefuses) {
  Config c;
  c.set("n", "abc");
  c.set("insts", "1e4");
  c.set("d", "1.2.3");
  c.set("b", "maybe");
  // Each refusal names the key and the value.
  EXPECT_NE(refusal([&] { return c.get_int("n", 3); }).find("'n=abc'"),
            std::string::npos);
  EXPECT_NE(refusal([&] { return c.get_uint("insts", 3); }).find("'insts=1e4'"),
            std::string::npos);
  EXPECT_NE(refusal([&] { return c.get_int("insts", 3); }).find("'insts=1e4'"),
            std::string::npos);
  EXPECT_NE(refusal([&] { return c.get_double("d", 4.5); }).find("'d=1.2.3'"),
            std::string::npos);
  EXPECT_NE(refusal([&] { return c.get_bool("b", true); }).find("'b=maybe'"),
            std::string::npos);
  c.set("empty", "");
  EXPECT_FALSE(refusal([&] { return c.get_uint("empty", 1); }).empty());
  EXPECT_FALSE(refusal([&] { return c.get_double("empty", 1.0); }).empty());
  EXPECT_FALSE(refusal([&] { return c.get_bool("empty", true); }).empty());
  c.set("trailing", "5 ");
  EXPECT_FALSE(refusal([&] { return c.get_int("trailing", 1); }).empty());
}

TEST(Config, RejectsTokensWithoutEquals) {
  Config c;
  EXPECT_TRUE(c.parse_token("no-equals").has_value());
  EXPECT_TRUE(c.parse_token("=value").has_value());
}

TEST(Config, NegativeUintRefuses) {
  Config c;
  c.set("n", "-4");
  EXPECT_NE(refusal([&] { return c.get_uint("n", 11u); }).find("'n=-4'"),
            std::string::npos);
  c.set("n", "+4");
  EXPECT_FALSE(refusal([&] { return c.get_uint("n", 11u); }).empty());
}

TEST(Config, UintReadsWholeRangeAndRefusesOverflow) {
  Config c;
  c.set("max", "18446744073709551615");
  EXPECT_EQ(c.get_uint("max", 0), std::numeric_limits<std::uint64_t>::max());
  c.set("hex", "0x10");
  EXPECT_EQ(c.get_uint("hex", 0), 16u);
  c.set("over", "18446744073709551616");
  EXPECT_FALSE(refusal([&] { return c.get_uint("over", 0); }).empty());
  c.set("big", "9223372036854775808");
  EXPECT_FALSE(refusal([&] { return c.get_int("big", 0); }).empty());
  c.set("neg", "-9223372036854775808");
  EXPECT_EQ(c.get_int("neg", 0), std::numeric_limits<std::int64_t>::min());
  c.set("huge", "1e999");
  EXPECT_FALSE(refusal([&] { return c.get_double("huge", 0.0); }).empty());
}

TEST(Config, U32ReadsItsRangeAndRefusesWhatDoesNotFit) {
  Config c;
  c.set("max", "4294967295");
  EXPECT_EQ(c.get_u32("max", 0), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(c.get_u32("absent", 7u), 7u);
  // One past the range, and a value that used to truncate to 1.
  c.set("over", "4294967296");
  EXPECT_NE(refusal([&] { return c.get_u32("over", 0); }).find("'over=4294967296'"),
            std::string::npos);
  c.set("repeats", "4294967297");
  EXPECT_NE(refusal([&] { return c.get_u32("repeats", 1); }).find("'repeats=4294967297'"),
            std::string::npos);
  c.set("neg", "-1");
  EXPECT_FALSE(refusal([&] { return c.get_u32("neg", 0); }).empty());
}

TEST(Config, EnvFlagRefusesNonBoolean) {
  ::setenv("MEMSCHED_TEST_FLAG", "on", 1);
  EXPECT_TRUE(env_flag("MEMSCHED_TEST_FLAG", false));
  ::setenv("MEMSCHED_TEST_FLAG", "maybe", 1);
  EXPECT_NE(refusal([] { return env_flag("MEMSCHED_TEST_FLAG", false); })
                .find("MEMSCHED_TEST_FLAG=maybe"),
            std::string::npos);
  ::setenv("MEMSCHED_TEST_FLAG", "", 1);
  EXPECT_TRUE(env_flag("MEMSCHED_TEST_FLAG", true));
  ::unsetenv("MEMSCHED_TEST_FLAG");
  EXPECT_FALSE(env_flag("MEMSCHED_TEST_FLAG", false));
}

TEST(Config, KeysSorted) {
  Config c;
  c.set("b", "1");
  c.set("a", "2");
  const auto keys = c.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

// ---------------------------------------------------------------- json ----

TEST(Json, ScalarsAndCompactDump) {
  EXPECT_EQ(Json(true).dump(-1), "true");
  EXPECT_EQ(Json(42).dump(-1), "42");
  EXPECT_EQ(Json(2.5).dump(-1), "2.5");
  EXPECT_EQ(Json("hi").dump(-1), "\"hi\"");
  EXPECT_EQ(Json().dump(-1), "null");
  EXPECT_EQ(Json(std::uint64_t{1234567890123}).dump(-1), "1234567890123");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["b"] = 1;
  j["a"] = 2;
  j["b"] = 3;  // overwrite, position kept
  EXPECT_EQ(j.dump(-1), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, ArrayAndNesting) {
  Json arr = Json::array();
  arr.push_back(1);
  Json inner = Json::object();
  inner["x"] = false;
  arr.push_back(std::move(inner));
  EXPECT_EQ(arr.dump(-1), "[1,{\"x\":false}]");
  EXPECT_EQ(arr.size(), 2u);
}

TEST(Json, StringEscaping) {
  Json j = Json::object();
  j["k\"ey"] = "line\nbreak\tand \\slash\"";
  EXPECT_EQ(j.dump(-1),
            "{\"k\\\"ey\":\"line\\nbreak\\tand \\\\slash\\\"\"}");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(-1), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(-1), "null");
}

TEST(Json, PrettyPrintIndents) {
  Json j = Json::object();
  j["a"] = 1;
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1\n}");
}

TEST(Json, NullAutoPromotes) {
  Json j;  // null
  j["k"] = 1;  // becomes object
  EXPECT_TRUE(j.is_object());
  Json a;
  a.push_back(2);
  EXPECT_TRUE(a.is_array());
}

TEST(Json, WriteFileRoundTripsBytes) {
  const std::string path = ::testing::TempDir() + "out.json";
  Json j = Json::object();
  j["v"] = 7;
  j.write_file(path, -1);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const auto n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"v\":7}\n");
}

TEST(Json, WriteFileThrowsOnBadPath) {
  EXPECT_THROW(Json(1).write_file("/nonexistent/dir/x.json"), std::runtime_error);
}

TEST(Json, ParseRoundTripsDump) {
  Json j = Json::object();
  j["name"] = "2MEM-1/HF-RF";
  j["speedup"] = 3.25;
  j["n"] = std::uint64_t{12345};
  j["flag"] = true;
  j["none"] = Json();
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  j["arr"] = std::move(arr);
  const std::string text = j.dump(-1);
  EXPECT_EQ(Json::parse(text).dump(-1), text);
  // Pretty-printed form parses back to the same document.
  EXPECT_EQ(Json::parse(j.dump(2)).dump(-1), text);
}

TEST(Json, ParseHandlesEscapesAndNesting) {
  const Json j = Json::parse(R"({"s":"a\"b\nc\\d","o":{"x":[null,false,-2.5e1]}})");
  EXPECT_EQ(j.at("s").as_string(), "a\"b\nc\\d");
  EXPECT_EQ(j.at("o").at("x").at(2).as_number(), -25.0);
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW((void)j.at("missing"), std::runtime_error);
}

TEST(Json, ParseReportsOffsetOnGarbage) {
  try {
    Json::parse("{\"a\": tru}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos) << e.what();
  }
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Json, RawSplicesVerbatim) {
  Json j = Json::object();
  j["result"] = Json::raw(R"({"v": 1.0})");  // note: internal spacing kept
  EXPECT_EQ(j.dump(-1), "{\"result\":{\"v\": 1.0}}");
}

// ---------------------------------------------------- unknown-key guard ----

TEST(Config, CheckKnownAcceptsKnownAndPrefixed) {
  Config c;
  c.set("insts", "100");
  c.set("fault.drop_read", "0.5");
  c.set("trace0", "a.bin");
  EXPECT_FALSE(c.check_known({"insts"}, {"fault.", "trace"}).has_value());
}

TEST(Config, CheckKnownRejectsWithDidYouMean) {
  Config c;
  c.set("inst", "100");  // typo'd "insts"
  const auto err = c.check_known({"insts", "repeats", "seed"});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown config key 'inst'"), std::string::npos) << *err;
  EXPECT_NE(err->find("did you mean 'insts'"), std::string::npos) << *err;
}

TEST(Config, CheckKnownRejectsFarFromAnything) {
  Config c;
  c.set("zzzzzz", "1");
  const auto err = c.check_known({"insts", "repeats"});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown config key 'zzzzzz'"), std::string::npos) << *err;
  EXPECT_EQ(err->find("did you mean"), std::string::npos) << *err;
}

TEST(Config, DidYouMeanUsesOneCutOff) {
  EXPECT_EQ(did_you_mean("stauts", {"submit", "status"}), " (did you mean 'status'?)");
  // max(2, |name| / 3) edits: 2 for short names, more for long ones.
  EXPECT_EQ(did_you_mean("abc", {"xyz"}), "");
  EXPECT_EQ(did_you_mean("progress_wndw", {"progress_window"}),
            " (did you mean 'progress_window'?)");
  // A tie goes to the earliest candidate.
  EXPECT_EQ(did_you_mean("seed", {"sead", "seek"}), " (did you mean 'sead'?)");
  EXPECT_EQ(did_you_mean("x", {}), "");
}

TEST(Config, EditDistanceBasics) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("insts", "inst"), 1u);    // deletion
  EXPECT_EQ(edit_distance("seed", "sead"), 1u);     // substitution
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

// ---------------------------------------------------------------------------
// Atomic file replacement under concurrent writers.

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AtomicFile, WritesAndReplaces) {
  const std::string path = testing::TempDir() + "memsched_atomic_basic";
  atomic_write_file(path, "first");
  EXPECT_EQ(slurp_file(path), "first");
  atomic_write_file(path, "second, longer payload");
  EXPECT_EQ(slurp_file(path), "second, longer payload");
  std::remove(path.c_str());
}

TEST(AtomicFile, TmpPathIsUniquePerWrite) {
  const std::string a = atomic_tmp_path("/some/dir/file.json");
  const std::string b = atomic_tmp_path("/some/dir/file.json");
  EXPECT_NE(a, b);  // monotonic counter: successive writes never collide
  EXPECT_EQ(a.rfind("/some/dir/file.json.tmp.", 0), 0u);
  // PID in the suffix: two processes writing the same path never collide.
  EXPECT_NE(a.find("." + std::to_string(::getpid()) + "."), std::string::npos);
}

TEST(AtomicFile, TwoInterleavedWritersNeverPublishTornBytes) {
  // Regression for the fixed `path + ".tmp"` temp name: two processes
  // replacing the same file concurrently would O_TRUNC each other's
  // in-flight temp file, and a rename could publish a torn mix. With
  // writer-unique temp names the final file is always exactly one writer's
  // complete payload.
  const std::string path = testing::TempDir() + "memsched_atomic_race";
  std::remove(path.c_str());
  const std::string a(64 * 1024, 'A');
  const std::string b(64 * 1024, 'B');
  constexpr int kRounds = 50;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child writer. No gtest in here — report via exit code only.
    try {
      for (int i = 0; i < kRounds; ++i) atomic_write_file(path, b);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  for (int i = 0; i < kRounds; ++i) atomic_write_file(path, a);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child writer hit an I/O error";

  const std::string got = slurp_file(path);
  ASSERT_EQ(got.size(), a.size());
  EXPECT_TRUE(got == a || got == b) << "published file mixes two writers";

  // Every temp file was consumed by its own rename — no litter.
  std::size_t leftovers = 0;
  for (const auto& e : std::filesystem::directory_iterator(testing::TempDir())) {
    if (e.path().filename().string().rfind("memsched_atomic_race.tmp", 0) == 0)
      ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace memsched::util
