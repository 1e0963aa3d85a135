#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace ftsched::obs {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, WrapsModulo2To64) {
  Counter c;
  c.add(std::numeric_limits<std::uint64_t>::max());
  c.add(2);  // unsigned wrap, defined behavior
  EXPECT_EQ(c.value(), 1u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(2.5);
  g.set(-7.0);
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST(Histogram, BinBoundariesUnderflowOverflow) {
  Histogram h(0.0, 10.0, 10);  // bins [0,1) [1,2) ... [9,10)
  h.observe(-0.001);           // underflow: x < lo
  h.observe(0.0);              // bin 0: lo is inclusive
  h.observe(0.999);            // still bin 0
  h.observe(1.0);              // bin 1: edges belong to the upper bucket
  h.observe(9.999);            // bin 9
  h.observe(10.0);             // overflow: hi is exclusive
  h.observe(100.0);            // overflow

  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 7u);
  // Every observation lands somewhere: buckets + under + over == count.
  std::uint64_t total = h.underflow() + h.overflow();
  for (std::size_t i = 0; i < h.bins(); ++i) total += h.bin(i);
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, FloatEdgeJustBelowHiStaysInLastBin) {
  // (x - lo) / width can round up to exactly bins() for x slightly below hi;
  // the clamp must keep it in the last real bucket, not drop or overflow it.
  Histogram h(0.0, 0.3, 3);
  h.observe(std::nextafter(0.3, 0.0));
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.bin(2), 1u);
}

TEST(Histogram, SumAccumulatesAllObservations) {
  Histogram h(0.0, 1.0, 4);
  h.observe(-1.0);  // under and overflow still count toward sum
  h.observe(0.5);
  h.observe(2.0);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
}

TEST(HistogramPercentile, MatchesUniformSpreadWithinBins) {
  // 10 observations spread one per bin of [0,10): the estimator places the
  // j-th of n bucket observations at lo + width*(bin + (j+0.5)/n), so each
  // order statistic sits at bin_center = bin + 0.5.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.observe(static_cast<double>(i) + 0.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);   // first order statistic
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 9.5);   // last order statistic
  // Median of 10 values: halfway between the 4th and 5th order statistics
  // (type-7 interpolation), i.e. between bin centers 4.5 and 5.5.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
}

TEST(HistogramPercentile, SingleObservationEveryQuantile) {
  Histogram h(0.0, 4.0, 4);
  h.observe(2.5);  // bin 2, center 2.5
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.5);
}

TEST(HistogramPercentile, InterpolatesAcrossBins) {
  Histogram h(0.0, 2.0, 2);  // bins [0,1) and [1,2)
  h.observe(0.5);            // order stat 0 -> 0.5 (sole obs of bin 0)
  h.observe(1.5);            // order stat 1 -> 1.5
  // rank(q=0.25) = 0.25 between the two statistics.
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 0.75);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 1.25);
}

TEST(HistogramPercentile, UnderflowHeavyClampsToLo) {
  // 9 of 10 observations below lo: every quantile up to 80% must report
  // lo exactly (underflow has no width to interpolate in), and the max must
  // come from the one real bucket.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 9; ++i) h.observe(-5.0);
  h.observe(7.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.8), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.5);  // sole obs of bin 7: center 7.5
}

TEST(HistogramPercentile, OverflowHeavyClampsToHi) {
  Histogram h(0.0, 10.0, 10);
  h.observe(2.5);
  for (int i = 0; i < 9; ++i) h.observe(99.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.5);  // sole obs of bin 2: center 2.5
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramPercentile, AllUnderflowAndAllOverflow) {
  Histogram lo_only(0.0, 1.0, 4);
  lo_only.observe(-3.0);
  lo_only.observe(-4.0);
  EXPECT_DOUBLE_EQ(lo_only.percentile(0.5), 0.0);
  Histogram hi_only(0.0, 1.0, 4);
  hi_only.observe(2.0);
  EXPECT_DOUBLE_EQ(hi_only.percentile(0.5), 1.0);
}

TEST(HistogramPercentile, MonotoneInQ) {
  Histogram h(0.0, 8.0, 8);
  h.observe(-1.0);
  h.observe(0.5);
  h.observe(0.6);
  h.observe(3.2);
  h.observe(3.9);
  h.observe(7.7);
  h.observe(12.0);
  double prev = h.percentile(0.0);
  for (int i = 1; i <= 20; ++i) {
    const double cur = h.percentile(static_cast<double>(i) / 20.0);
    EXPECT_GE(cur, prev) << "q=" << i / 20.0;
    prev = cur;
  }
}

TEST(HistogramPercentileDeath, EmptyAndOutOfRangeRejected) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_DEATH(h.percentile(0.5), "precondition");  // no observations
  h.observe(0.5);
  EXPECT_DEATH(h.percentile(-0.1), "precondition");
  EXPECT_DEATH(h.percentile(1.1), "precondition");
}

TEST(MetricsRegistry, SameNameReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("sched.grants");
  Counter& b = reg.counter("sched.grants");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, HistogramShapeIsPinnedAtFirstRegistration) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("sched.popcount", 0.0, 8.0, 8);
  Histogram& b = reg.histogram("sched.popcount", 0.0, 8.0, 8);
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryDeath, KindMismatchRejected) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_DEATH(reg.gauge("x"), "precondition");
}

TEST(MetricsRegistryDeath, HistogramShapeMismatchRejected) {
  MetricsRegistry reg;
  reg.histogram("h", 0.0, 1.0, 10);
  EXPECT_DEATH(reg.histogram("h", 0.0, 2.0, 10), "precondition");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(MetricsRegistry, JsonlLinesAllParse) {
  MetricsRegistry reg;
  reg.counter("sched.grants").add(7);
  reg.gauge("sched.ratio").set(0.875);
  Histogram& h = reg.histogram("sched.popcount", 0.0, 4.0, 4);
  h.observe(-1.0);
  h.observe(1.5);
  h.observe(9.0);

  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string text = os.str();
  std::istringstream in(text);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    EXPECT_EQ(parse_json(line).message(), "") << "line: " << line;
  }
  EXPECT_EQ(lines, 3u);  // one object per metric
  EXPECT_NE(text.find("\"metric\":\"sched.grants\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(MetricsRegistry, JsonlHistogramCarriesPercentiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.observe(static_cast<double>(i) + 0.25);
  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string text = os.str();
  // One observation per bin: the median interpolates between bin centers
  // 4.5 and 5.5 (the percentile-test fixture), so p50 serializes as 5.
  EXPECT_NE(text.find("\"p50\":5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"p90\":"), std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(parse_json(text.substr(0, text.find('\n'))).message(), "");
}

TEST(MetricsRegistry, EmptyHistogramOmitsPercentiles) {
  MetricsRegistry reg;
  reg.histogram("lat", 0.0, 10.0, 10);  // registered, never observed
  std::ostringstream jsonl;
  reg.write_jsonl(jsonl);
  EXPECT_EQ(jsonl.str().find("\"p50\""), std::string::npos)
      << "empty histogram must not invent percentile values";
}

}  // namespace
}  // namespace ftsched::obs
