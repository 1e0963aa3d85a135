#include "fault/retry_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

namespace ftsched {
namespace {

TEST(RetryPolicy, NoneNeverRetries) {
  Xoshiro256ss rng(1);
  const RetryPolicy p = RetryPolicy::none();
  EXPECT_FALSE(p.delay_for(1, rng).has_value());
}

TEST(RetryPolicy, ImmediateIsZeroUntilBudgetExhausted) {
  Xoshiro256ss rng(1);
  const RetryPolicy p = RetryPolicy::immediate(3);
  EXPECT_EQ(p.delay_for(1, rng), 0u);
  EXPECT_EQ(p.delay_for(3, rng), 0u);
  EXPECT_FALSE(p.delay_for(4, rng).has_value());
}

TEST(RetryPolicy, FixedIsConstant) {
  Xoshiro256ss rng(1);
  const RetryPolicy p = RetryPolicy::fixed(7, 2);
  EXPECT_EQ(p.delay_for(1, rng), 7u);
  EXPECT_EQ(p.delay_for(2, rng), 7u);
  EXPECT_FALSE(p.delay_for(3, rng).has_value());
}

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  Xoshiro256ss rng(1);
  const RetryPolicy p = RetryPolicy::backoff(2, 2.0, 16, 10);
  EXPECT_EQ(p.delay_for(1, rng), 2u);
  EXPECT_EQ(p.delay_for(2, rng), 4u);
  EXPECT_EQ(p.delay_for(3, rng), 8u);
  EXPECT_EQ(p.delay_for(4, rng), 16u);
  EXPECT_EQ(p.delay_for(5, rng), 16u);  // capped
  EXPECT_FALSE(p.delay_for(11, rng).has_value());
}

TEST(RetryPolicy, JitterBoundedAndDeterministicPerSeed) {
  const RetryPolicy p = RetryPolicy::backoff(10, 2.0, 100, 5, 0.5);
  Xoshiro256ss a(42);
  Xoshiro256ss b(42);
  for (std::uint32_t attempt = 1; attempt <= 5; ++attempt) {
    const auto da = p.delay_for(attempt, a);
    const auto db = p.delay_for(attempt, b);
    ASSERT_TRUE(da.has_value());
    EXPECT_EQ(da, db);  // same seed, same schedule
    const std::uint64_t base = std::min<std::uint64_t>(100, 10u << (attempt - 1));
    EXPECT_GE(*da, base);
    EXPECT_LE(*da, base + base / 2);
  }
}

TEST(RetryPolicy, JitterFreePoliciesLeaveRngUntouched) {
  Xoshiro256ss used(9);
  Xoshiro256ss untouched(9);
  const RetryPolicy p = RetryPolicy::backoff(1, 2.0, 64, 8, 0.0);
  (void)p.delay_for(1, used);
  (void)p.delay_for(2, used);
  EXPECT_EQ(used(), untouched());
}

TEST(RetryPolicy, ParseRoundTrips) {
  for (const char* spec :
       {"none", "immediate:4", "fixed:5:3", "backoff:2:6", "backoff:2:6:0.25"}) {
    const auto parsed = parse_retry_policy(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.message();
    const auto again = parse_retry_policy(parsed.value().spec());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().kind, parsed.value().kind);
    EXPECT_EQ(again.value().base_delay, parsed.value().base_delay);
    EXPECT_EQ(again.value().max_retries, parsed.value().max_retries);
  }
}

TEST(RetryPolicy, ParseDefaults) {
  const auto p = parse_retry_policy("backoff:3");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().kind, RetryPolicy::Kind::kBackoff);
  EXPECT_EQ(p.value().base_delay, 3u);
  EXPECT_EQ(p.value().max_retries, 8u);
  EXPECT_EQ(p.value().max_delay, 192u);  // 64 · base
}

TEST(RetryPolicy, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_retry_policy("").ok());
  EXPECT_FALSE(parse_retry_policy("sometimes").ok());
  EXPECT_FALSE(parse_retry_policy("fixed").ok());
  EXPECT_FALSE(parse_retry_policy("fixed:0").ok());
  EXPECT_FALSE(parse_retry_policy("fixed:abc").ok());
  EXPECT_FALSE(parse_retry_policy("backoff:1:2:3:4").ok());
  EXPECT_FALSE(parse_retry_policy("none:1").ok());
}

TEST(RetryPolicy, ParseRejectsOutOfRangeFieldsNamingThem) {
  // Each input used to be accepted as something else (or to abort): a u64
  // digit string wrapped, a retry count narrowed to 32 bits, a backoff
  // base whose 64·base cap overflowed into FT_REQUIRE(max_delay >= base).
  const std::pair<const char*, const char*> cases[] = {
      {"fixed:18446744073709551617", "'delay'"},      // 2^64 + 1 → was 1
      {"fixed:99999999999999999999999", "'delay'"},   // wrapped too
      {"immediate:4294967297", "'retries'"},          // 2^32 + 1 → was 1
      {"fixed:5:4294967296", "'retries'"},            // 2^32 → was 0
      {"backoff:2:18446744073709551616", "'retries'"},
      {"backoff:288230376151711745", "'base'"},       // 2^58 + 1: cap wraps
      {"backoff:288230376151711744:3", "'base'"},     // 2^58: cap wraps to 0
      {"backoff:1:2:0.99999999999999999999", "'jitter'"},
  };
  for (const auto& [spec, field] : cases) {
    const auto parsed = parse_retry_policy(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_NE(parsed.message().find(field), std::string::npos)
        << spec << ": " << parsed.message();
  }
  // The largest in-range values still parse, unchanged.
  const auto retries = parse_retry_policy("immediate:4294967295");
  ASSERT_TRUE(retries.ok());
  EXPECT_EQ(retries.value().max_retries, 4294967295u);
  const auto delay = parse_retry_policy("fixed:18446744073709551615");
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(delay.value().base_delay, 18446744073709551615u);
  const auto base = parse_retry_policy("backoff:288230376151711743");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().max_delay, 64 * 288230376151711743u);
}

TEST(RetryPolicy, DelayAtTheTopOfTheRangeClampsInsteadOfOverflowing) {
  // The largest backoff base the parser takes: its 64·base cap is within
  // 64 of 2^64 and rounds up to 2^64 as a double, which the doubling loop
  // reaches at attempt 7.
  constexpr std::uint64_t kBase = 288230376151711743;  // (2^64 - 1) / 64
  const RetryPolicy p =
      parse_retry_policy("backoff:288230376151711743").value();
  Xoshiro256ss rng(1);
  for (std::uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const auto d = p.delay_for(attempt, rng);
    ASSERT_TRUE(d.has_value());
    // kBase rounds to 2^58 as a double; each doubling stays exact.
    EXPECT_EQ(*d, std::uint64_t{1} << (57 + attempt)) << attempt;
  }
  EXPECT_EQ(p.delay_for(7, rng), 64 * kBase);
  EXPECT_EQ(p.delay_for(8, rng), 64 * kBase);

  // Jitter extra ticks saturate at the u64 range.
  const RetryPolicy wide =
      RetryPolicy::backoff(1u << 20, 2.0, 64u << 20, 8, 1e30);
  Xoshiro256ss jitter(3);
  EXPECT_EQ(wide.delay_for(1, jitter),
            std::numeric_limits<std::uint64_t>::max());
  const RetryPolicy top = RetryPolicy::backoff(kBase, 2.0, 64 * kBase, 8, 0.5);
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    const auto d = top.delay_for(attempt, jitter);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, std::min<std::uint64_t>(64 * kBase, kBase << (attempt - 1)));
  }
}

TEST(RetryPolicyDeath, ZeroAttemptRejected) {
  Xoshiro256ss rng(1);
  const RetryPolicy p = RetryPolicy::immediate(1);
  EXPECT_DEATH((void)p.delay_for(0, rng), "precondition");
}

}  // namespace
}  // namespace ftsched
