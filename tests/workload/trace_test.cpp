#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(Trace, RoundTrip) {
  Trace trace;
  trace.node_count = 64;
  Xoshiro256ss rng(1);
  trace.requests = random_permutation(64, rng);

  std::stringstream buffer;
  write_trace(buffer, trace);
  const auto loaded = read_trace(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_count, 64u);
  EXPECT_EQ(loaded.value().requests, trace.requests);
}

TEST(Trace, EmptyRequestListRoundTrips) {
  Trace trace;
  trace.node_count = 16;
  std::stringstream buffer;
  write_trace(buffer, trace);
  const auto loaded = read_trace(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().requests.empty());
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "# ftsched-trace v1\n"
      "# nodes 8\n"
      "\n"
      "# a comment\n"
      "1 2\n"
      "3 4\n");
  const auto loaded = read_trace(is);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().requests.size(), 2u);
  EXPECT_EQ(loaded.value().requests[0], (Request{1, 2}));
}

TEST(Trace, MissingVersionHeaderRejected) {
  std::istringstream is("1 2\n");
  const auto loaded = read_trace(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("version"), std::string::npos);
}

TEST(Trace, MalformedNodeHeaderRejected) {
  std::istringstream is("# ftsched-trace v1\n# knots 8\n");
  EXPECT_FALSE(read_trace(is).ok());
}

TEST(Trace, ZeroNodesRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes 0\n");
  EXPECT_FALSE(read_trace(is).ok());
}

TEST(Trace, NonNumericRequestRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes 8\nfoo bar\n");
  const auto loaded = read_trace(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("line 3"), std::string::npos);
}

TEST(Trace, TrailingTokensRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes 8\n1 2 3\n");
  EXPECT_FALSE(read_trace(is).ok());
}

TEST(Trace, OutOfRangeEndpointRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes 8\n1 8\n");
  const auto loaded = read_trace(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("out of range"), std::string::npos);
}

// istream extraction into an unsigned field negates a leading '-', so these
// three would otherwise load as 2^64 - k.
TEST(Trace, SignedNodeCountRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes -1\n");
  const auto loaded = read_trace(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("line 2"), std::string::npos);
}

TEST(Trace, SignedSourceRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes 8\n1 2\n-3 0\n");
  const auto loaded = read_trace(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("line 4"), std::string::npos);
}

TEST(Trace, SignedDestinationRejected) {
  std::istringstream is("# ftsched-trace v1\n# nodes 8\n0 +3\n");
  const auto loaded = read_trace(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("line 3"), std::string::npos);
}

TEST(Trace, MissingNodeHeaderRejected) {
  std::istringstream is("# ftsched-trace v1\n");
  EXPECT_FALSE(read_trace(is).ok());
}

}  // namespace
}  // namespace ftsched
