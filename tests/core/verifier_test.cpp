#include "core/verifier.hpp"

#include <gtest/gtest.h>

#include "core/levelwise_scheduler.hpp"

namespace ftsched {
namespace {

FatTree make_ft34() { return FatTree::symmetric(3, 4); }

ScheduleResult granted_result(const std::vector<Request>& batch,
                              const std::vector<Path>& paths) {
  ScheduleResult result;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    RequestOutcome out;
    out.granted = true;
    out.path = paths[i];
    result.outcomes.push_back(out);
  }
  return result;
}

RequestOutcome rejected_outcome(const Request& r, RejectReason reason,
                                std::uint32_t fail_level) {
  RequestOutcome out;
  out.granted = false;
  out.reason = reason;
  out.fail_level = fail_level;
  out.path = Path{r.src, r.dst, 0, {}};
  return out;
}

TEST(Verifier, AcceptsConsistentSchedule) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}, {4, 20}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}},
                                {4, 20, 2, DigitVec{1, 1}}};
  LinkState state(tree);
  for (const Path& p : paths) state.occupy_path(tree, p);
  EXPECT_TRUE(
      verify_schedule(tree, batch, granted_result(batch, paths), &state).ok());
}

TEST(Verifier, RejectsOutcomeCountMismatch) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  ScheduleResult result;  // zero outcomes
  EXPECT_FALSE(verify_schedule(tree, batch, result).ok());
}

TEST(Verifier, RejectsWrongEndpoints) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  const std::vector<Path> paths{{0, 62, 2, DigitVec{0, 0}}};  // wrong dst
  EXPECT_FALSE(
      verify_schedule(tree, batch, granted_result(batch, paths)).ok());
}

TEST(Verifier, RejectsIllegalPath) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  const std::vector<Path> paths{{0, 63, 1, DigitVec{0}}};  // wrong H
  const Status s = verify_schedule(tree, batch, granted_result(batch, paths));
  EXPECT_FALSE(s.ok());
}

TEST(Verifier, RejectsSharedChannel) {
  const FatTree tree = make_ft34();
  // Two circuits from the same leaf switch using the same up port at level 0.
  const std::vector<Request> batch{{0, 63}, {1, 62}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}},
                                {1, 62, 2, DigitVec{0, 1}}};
  const Status s = verify_schedule(tree, batch, granted_result(batch, paths));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("claimed by two"), std::string::npos);
}

TEST(Verifier, RejectsDuplicateSource) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 20}, {0, 40}};
  const std::vector<Path> paths{{0, 20, 2, DigitVec{0, 0}},
                                {0, 40, 2, DigitVec{1, 1}}};
  const Status s = verify_schedule(tree, batch, granted_result(batch, paths));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injects"), std::string::npos);
}

TEST(Verifier, RejectsDuplicateDestination) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 40}, {4, 40}};
  const std::vector<Path> paths{{0, 40, 2, DigitVec{0, 0}},
                                {4, 40, 2, DigitVec{1, 1}}};
  const Status s = verify_schedule(tree, batch, granted_result(batch, paths));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("receives"), std::string::npos);
}

TEST(Verifier, RejectsResidualOccupancyByDefault) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}}};
  LinkState state(tree);
  state.occupy_path(tree, paths[0]);
  state.occupy(0, 5, 6, 2);  // unrelated residue
  const Status s =
      verify_schedule(tree, batch, granted_result(batch, paths), &state);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("residue"), std::string::npos);
}

TEST(Verifier, ResidualAllowedWhenAttributableToRejection) {
  const FatTree tree = make_ft34();
  // One granted circuit plus one request rejected at level 1, which in the
  // no-release ablation legitimately keeps its level-0 pair occupied.
  const std::vector<Request> batch{{0, 63}, {21, 37}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}}};
  ScheduleResult result = granted_result({batch[0]}, paths);
  result.outcomes.push_back(
      rejected_outcome(batch[1], RejectReason::kNoCommonPort, 1));
  LinkState state(tree);
  state.occupy_path(tree, paths[0]);
  state.occupy(0, 5, 9, 2);  // the rejected request's level-0 leftovers
  VerifyOptions options;
  options.allow_residual_occupancy = true;
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state, options).ok());
}

TEST(Verifier, RelaxedRejectsUnattributableResidue) {
  const FatTree tree = make_ft34();
  // No rejected request can explain the residue, so even relaxed mode must
  // flag it as a leaked reservation.
  const std::vector<Request> batch{{0, 63}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}}};
  LinkState state(tree);
  state.occupy_path(tree, paths[0]);
  state.occupy(0, 5, 6, 2);
  VerifyOptions options;
  options.allow_residual_occupancy = true;
  const Status s = verify_schedule(tree, batch, granted_result(batch, paths),
                                   &state, options);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("residual"), std::string::npos);
}

TEST(Verifier, RelaxedRejectsResidueAtOrAboveFailLevel) {
  const FatTree tree = make_ft34();
  // The request was rejected at level 1, so it may hold reservations only at
  // level 0; residue at level 1 is a leak even in relaxed mode.
  const std::vector<Request> batch{{21, 37}};
  ScheduleResult result;
  result.outcomes.push_back(
      rejected_outcome(batch[0], RejectReason::kNoCommonPort, 1));
  LinkState state(tree);
  state.occupy(1, 3, 7, 0);  // residue ABOVE the failure level
  VerifyOptions options;
  options.allow_residual_occupancy = true;
  const Status s = verify_schedule(tree, batch, result, &state, options);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("residual"), std::string::npos);
}

TEST(Verifier, RelaxedModeStillRequiresGrantsOccupied) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}}};
  LinkState state(tree);  // grant NOT applied
  VerifyOptions options;
  options.allow_residual_occupancy = true;
  const Status s = verify_schedule(tree, batch, granted_result(batch, paths),
                                   &state, options);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not occupied"), std::string::npos);
}

TEST(Verifier, RejectedRequestsNeedNoPath) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  ScheduleResult result;
  result.outcomes.push_back(
      rejected_outcome(batch[0], RejectReason::kNoCommonPort, 0));
  LinkState state(tree);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
}

TEST(Verifier, RelaxedReportsOutOfRangeRejectedEndpoint) {
  const FatTree tree = make_ft34();
  // A corrupted batch names a PE the tree does not have. The rejection
  // cannot be attributed any residue; relaxed mode must say so instead of
  // tripping a topology precondition.
  const std::vector<Request> batch{{0, 63}, {5, 9999}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}}};
  ScheduleResult result = granted_result({batch[0]}, paths);
  result.outcomes.push_back(
      rejected_outcome(batch[1], RejectReason::kNoCommonPort, 1));
  LinkState state(tree);
  state.occupy_path(tree, paths[0]);
  VerifyOptions options;
  options.allow_residual_occupancy = true;
  const VerifyReport report =
      ScheduleVerifier(tree, options).verify(batch, result, &state);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.first().find("rejected request 1"), std::string::npos);
  EXPECT_NE(report.first().find("out of range"), std::string::npos);
}

// --- ScheduleVerifier: deep checks over deliberately corrupted schedules ---

TEST(ScheduleVerifier, RejectsGrantedOutcomeCarryingRejectReason) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  ScheduleResult result =
      granted_result(batch, {{0, 63, 2, DigitVec{0, 0}}});
  result.outcomes[0].reason = RejectReason::kNoCommonPort;  // corrupt
  const VerifyReport report =
      ScheduleVerifier(tree).verify(batch, result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.first().find("granted but carries reject reason"),
            std::string::npos);
}

TEST(ScheduleVerifier, RejectsRejectedOutcomeWithoutReason) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  ScheduleResult result;
  result.outcomes.push_back(
      rejected_outcome(batch[0], RejectReason::kNone, 0));  // corrupt
  const VerifyReport report = ScheduleVerifier(tree).verify(batch, result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.first().find("no reject reason"), std::string::npos);
}

TEST(ScheduleVerifier, RejectsRejectedOutcomeRetainingPathData) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  ScheduleResult result;
  RequestOutcome out =
      rejected_outcome(batch[0], RejectReason::kNoCommonPort, 1);
  out.path.ports.push_back(0);  // corrupt: partial circuit left in outcome
  out.path.ancestor_level = 2;
  result.outcomes.push_back(out);
  const VerifyReport report = ScheduleVerifier(tree).verify(batch, result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.first().find("retains path data"), std::string::npos);
}

TEST(ScheduleVerifier, RejectsFailLevelBeyondTree) {
  const FatTree tree = make_ft34();
  const std::vector<Request> batch{{0, 63}};
  ScheduleResult result;
  result.outcomes.push_back(
      rejected_outcome(batch[0], RejectReason::kNoCommonPort, 9));  // corrupt
  const VerifyReport report = ScheduleVerifier(tree).verify(batch, result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.first().find("beyond the last inter-switch level"),
            std::string::npos);
}

TEST(ScheduleVerifier, ReportCollectsEveryViolation) {
  const FatTree tree = make_ft34();
  // Three independent corruptions: shared channel (two findings share one
  // insert), duplicate source, rejected-without-reason.
  const std::vector<Request> batch{{0, 63}, {1, 62}, {0, 40}, {5, 6}};
  ScheduleResult result;
  result.outcomes.push_back(granted_result({batch[0]},
                                           {{0, 63, 2, DigitVec{0, 0}}})
                                .outcomes[0]);
  result.outcomes.push_back(granted_result({batch[1]},
                                           {{1, 62, 2, DigitVec{0, 1}}})
                                .outcomes[0]);
  result.outcomes.push_back(granted_result({batch[2]},
                                           {{0, 40, 2, DigitVec{1, 1}}})
                                .outcomes[0]);
  result.outcomes.push_back(
      rejected_outcome(batch[3], RejectReason::kNone, 0));
  const VerifyReport report = ScheduleVerifier(tree).verify(batch, result);
  EXPECT_GE(report.violations.size(), 3u);
  EXPECT_EQ(report.requests_checked, 4u);
  EXPECT_EQ(report.granted, 3u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_FALSE(report.status().ok());
  EXPECT_NE(report.to_string().find("violation"), std::string::npos);
}

TEST(ScheduleVerifier, MirrorCheckDetectsCorruptedExpansion) {
  const FatTree tree = make_ft34();
  const Path path{0, 63, 2, DigitVec{1, 2}};
  PathExpansion expansion = expand_path(tree, path);
  ASSERT_TRUE(ScheduleVerifier::check_mirror(expansion, 2).ok());
  // Corrupt the descent: level-0 down channel now uses a different port than
  // the level-0 up channel — a Theorem-2 violation no Path can express.
  expansion.channels.back().cable.port ^= 1u;
  const Status s = ScheduleVerifier::check_mirror(expansion, 2);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("do not mirror"), std::string::npos);
}

TEST(ScheduleVerifier, MirrorCheckDetectsTruncatedExpansion) {
  const FatTree tree = make_ft34();
  PathExpansion expansion = expand_path(tree, Path{0, 63, 2, DigitVec{1, 2}});
  expansion.channels.pop_back();
  EXPECT_FALSE(ScheduleVerifier::check_mirror(expansion, 2).ok());
}

TEST(ScheduleVerifier, RederivationMatchesTopologyExpansion) {
  // The verifier's private digit arithmetic and the topology layer's
  // neighbor algebra must agree on every channel of every granted circuit,
  // including slimmed (m != w) and fattened (w > m) trees.
  const std::vector<FatTreeParams> shapes{
      {2, 4, 4}, {3, 4, 4}, {4, 2, 2}, {3, 4, 2}, {3, 2, 4}};
  for (const FatTreeParams& params : shapes) {
    const FatTree tree = FatTree::create(params).value();
    LevelwiseScheduler scheduler;
    LinkState state(tree);
    std::vector<Request> batch;
    for (NodeId n = 0; n < tree.node_count(); ++n) {
      batch.push_back(Request{n, (n + 5) % tree.node_count()});
    }
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    const ScheduleVerifier verifier(tree);
    ASSERT_GT(result.granted_count(), 0u);
    for (const RequestOutcome& out : result.outcomes) {
      if (!out.granted) continue;
      EXPECT_EQ(verifier.rederive_channels(out.path),
                expand_path(tree, out.path).channels)
          << to_string(out.path);
    }
    EXPECT_TRUE(verifier.verify(batch, result, &state).ok());
  }
}

TEST(ScheduleVerifier, BeforeAfterDeltaAccounting) {
  const FatTree tree = make_ft34();
  // A circuit from an earlier round stays up; the new batch must verify in
  // STRICT mode when the pre-batch state is supplied …
  const Path prior{8, 55, 2, DigitVec{2, 2}};
  LinkState before(tree);
  before.occupy_path(tree, prior);

  const std::vector<Request> batch{{0, 63}};
  const std::vector<Path> paths{{0, 63, 2, DigitVec{0, 0}}};
  LinkState after = before;
  after.occupy_path(tree, paths[0]);

  const ScheduleResult result = granted_result(batch, paths);
  const ScheduleVerifier verifier(tree);
  EXPECT_TRUE(verifier.verify(batch, result, &after, &before).ok());
  // … and must fail without it (the prior circuit looks like residue).
  EXPECT_FALSE(verifier.verify(batch, result, &after).ok());
}

TEST(ScheduleVerifier, DetectsGrantOverPreoccupiedChannel) {
  const FatTree tree = make_ft34();
  // The batch "grants" a circuit through a channel that was already taken
  // before the batch ran — a double allocation across rounds.
  const Path prior{4, 55, 2, DigitVec{0, 2}};  // shares Ulink(0, 1, 0)
  LinkState before(tree);
  before.occupy_path(tree, prior);

  const std::vector<Request> batch{{5, 62}};
  const std::vector<Path> paths{{5, 62, 2, DigitVec{0, 1}}};
  LinkState after = before;  // the corrupt grant was never applied cleanly

  const VerifyReport report = ScheduleVerifier(tree).verify(
      batch, granted_result(batch, paths), &after, &before);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("already occupied before the batch"),
            std::string::npos);
}

TEST(ScheduleVerifier, CleanBatchReportsCoverage) {
  const FatTree tree = make_ft34();
  LevelwiseScheduler scheduler;
  LinkState state(tree);
  std::vector<Request> batch;
  for (NodeId n = 0; n < tree.node_count(); ++n) {
    batch.push_back(Request{n, (n + 17) % tree.node_count()});
  }
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  const VerifyReport report =
      ScheduleVerifier(tree).verify(batch, result, &state);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.requests_checked, batch.size());
  EXPECT_EQ(report.granted + report.rejected, batch.size());
  EXPECT_GT(report.channels_checked, 0u);
  EXPECT_TRUE(report.status().ok());
  EXPECT_NE(report.to_string().find("schedule verified"), std::string::npos);
}

// --- Pinned violation list --------------------------------------------------
//
// One batch carrying many corruptions at once. The expected lists are the
// exact output of the reference (set-based) verifier on these inputs: a
// rewrite of the hot path must report the same violations, in the same order,
// with the same wording.

RequestOutcome granted_outcome(const Path& path) {
  RequestOutcome out;
  out.granted = true;
  out.path = path;
  return out;
}

struct CorruptedBatch {
  std::vector<Request> batch;
  ScheduleResult result;
  LinkState before;
  LinkState after;
};

// FT(3,4): shared channel, duplicate source and destination PE, wrong
// endpoints on a legal path, an illegal path, a granted outcome carrying a
// reject reason, a grant over a pre-occupied channel, corrupt rejections,
// and residue no rejection can explain.
CorruptedBatch corrupted_ft34(const FatTree& tree) {
  CorruptedBatch c{{}, {}, LinkState(tree), LinkState(tree)};
  const std::vector<Request> requests{
      {0, 63}, {1, 62},  {0, 40},  {5, 40},  {8, 30},  {12, 50},
      {16, 17}, {20, 44}, {24, 28}, {33, 2},  {36, 9},  {21, 37}};
  c.batch = requests;
  auto& out = c.result.outcomes;
  out.push_back(granted_outcome({0, 63, 2, DigitVec{0, 0}}));
  out.push_back(granted_outcome({1, 62, 2, DigitVec{0, 1}}));  // shares
  out.push_back(granted_outcome({0, 40, 2, DigitVec{1, 1}}));  // dup src
  out.push_back(granted_outcome({5, 40, 2, DigitVec{2, 2}}));  // dup dst
  out.push_back(granted_outcome({8, 31, 2, DigitVec{3, 3}}));  // wrong dst
  out.push_back(granted_outcome({12, 50, 1, DigitVec{0}}));    // wrong H
  RequestOutcome reasoned = granted_outcome({16, 17, 0, {}});
  reasoned.reason = RejectReason::kNoCommonPort;
  out.push_back(reasoned);
  out.push_back(granted_outcome({20, 44, 2, DigitVec{0, 0}}));  // pre-occ.
  out.push_back(rejected_outcome(requests[8], RejectReason::kNone, 0));
  RequestOutcome retained =
      rejected_outcome(requests[9], RejectReason::kNoCommonPort, 1);
  retained.path.ports.push_back(2);
  retained.path.ancestor_level = 2;
  out.push_back(retained);
  out.push_back(rejected_outcome(requests[10], RejectReason::kNoLocalUplink,
                                 9));
  out.push_back(rejected_outcome(requests[11], RejectReason::kNoCommonPort,
                                 1));

  c.before.occupy_path(tree, Path{21, 56, 2, DigitVec{0, 3}});
  c.after = c.before;
  for (const std::size_t i : {0u, 2u, 3u, 4u}) c.after.occupy_path(tree, out[i].path);
  for (std::uint32_t p = 0; p < 4; ++p) {
    c.after.set_ulink(0, 13, p, false);
    c.after.set_dlink(0, 13, p, false);
    c.after.set_ulink(1, 15, p, false);
    c.after.set_dlink(1, 15, p, false);
  }
  c.after.set_ulink(0, 12, 0, false);
  c.after.set_dlink(0, 12, 1, false);
  return c;
}

// Slimmed FT(3,6,5): 180 and 150 cables per level, so the directed channels
// of a level do not fill whole 64-bit words and the corruptions below sit on
// word edges (the last cable of level 0 and of level 1, and the cables on
// either side of a word boundary).
CorruptedBatch corrupted_ft365(const FatTree& tree) {
  CorruptedBatch c{{}, {}, LinkState(tree), LinkState(tree)};
  const std::vector<Request> requests{{186, 0},   {187, 6},  {192, 215},
                                      {212, 100}, {211, 101}, {50, 120}};
  c.batch = requests;
  auto& out = c.result.outcomes;
  out.push_back(granted_outcome({186, 0, 2, DigitVec{4, 2}}));
  out.push_back(granted_outcome({187, 6, 2, DigitVec{4, 3}}));  // shares
  out.push_back(granted_outcome({192, 215, 1, DigitVec{0}}));
  out.push_back(granted_outcome({212, 100, 2, DigitVec{4, 4}}));
  out.push_back(granted_outcome({211, 101, 2, DigitVec{3, 4}}));  // pre-occ.
  out.push_back(rejected_outcome(requests[5], RejectReason::kNoCommonPort,
                                 1));

  c.before.occupy_path(tree, Path{210, 102, 2, DigitVec{3, 4}});
  c.after = c.before;
  for (const std::size_t i : {0u, 2u, 3u}) c.after.occupy_path(tree, out[i].path);
  c.after.set_ulink(1, 0, 0, false);
  c.after.set_dlink(1, 0, 0, false);
  return c;
}

VerifyReport verify_corrupted(const FatTree& tree, const CorruptedBatch& c,
                              bool relaxed) {
  VerifyOptions options;
  options.allow_residual_occupancy = relaxed;
  return ScheduleVerifier(tree, options)
      .verify(c.batch, c.result, &c.after, &c.before);
}

TEST(ScheduleVerifier, PinnedViolationListDefaultMode) {
  const FatTree tree = make_ft34();
  const VerifyReport report =
      verify_corrupted(tree, corrupted_ft34(tree), false);
  const std::vector<std::string> expected{
      "channel Ulink(0,0,0) is claimed by two granted circuits (second: node "
        "1 -> node 62 via P=(0,1))",
      "channel Dlink(0,15,0) is claimed by two granted circuits (second: "
        "node 1 -> node 62 via P=(0,1))",
      "PE 0 injects two granted circuits",
      "PE 40 receives two granted circuits",
      "outcome 4 carries a path for the wrong endpoints",
      "request 5 (node 12 -> node 50 via P=(0)): path ancestor_level 1 "
        "differs from the true common-ancestor level 2",
      "request 6 is granted but carries reject reason 'no-common-port'",
      "request 8 is rejected but carries no reject reason",
      "rejected request 9 retains path data (ports or ancestor level)",
      "rejected request 10 fails at level 9, beyond the last inter-switch "
        "level",
      "channel Ulink(0,0,0) of granted circuit node 1 -> node 62 via P=(0,1) "
        "was already occupied before the batch",
      "channel Dlink(0,15,0) of granted circuit node 1 -> node 62 via "
        "P=(0,1) was already occupied before the batch",
      "channel Ulink(0,5,0) of granted circuit node 20 -> node 44 via "
        "P=(0,0) was already occupied before the batch",
      "final link state differs from the union of granted circuits (rejected "
        "requests left residue, or grants were not applied)"};
  EXPECT_EQ(report.violations, expected);
}

TEST(ScheduleVerifier, PinnedViolationListRelaxedMode) {
  const FatTree tree = make_ft34();
  const VerifyReport report =
      verify_corrupted(tree, corrupted_ft34(tree), true);
  const std::vector<std::string> expected{
      "channel Ulink(0,0,0) is claimed by two granted circuits (second: node "
        "1 -> node 62 via P=(0,1))",
      "channel Dlink(0,15,0) is claimed by two granted circuits (second: "
        "node 1 -> node 62 via P=(0,1))",
      "PE 0 injects two granted circuits",
      "PE 40 receives two granted circuits",
      "outcome 4 carries a path for the wrong endpoints",
      "request 5 (node 12 -> node 50 via P=(0)): path ancestor_level 1 "
        "differs from the true common-ancestor level 2",
      "request 6 is granted but carries reject reason 'no-common-port'",
      "request 8 is rejected but carries no reject reason",
      "rejected request 9 retains path data (ports or ancestor level)",
      "rejected request 10 fails at level 9, beyond the last inter-switch "
        "level",
      "channel Ulink(0,0,0) of granted circuit node 1 -> node 62 via P=(0,1) "
        "was already occupied before the batch",
      "channel Dlink(0,15,0) of granted circuit node 1 -> node 62 via "
        "P=(0,1) was already occupied before the batch",
      "channel Ulink(0,5,0) of granted circuit node 20 -> node 44 via "
        "P=(0,0) was already occupied before the batch",
      "channel Ulink(1,0,1) of granted circuit node 1 -> node 62 via P=(0,1) "
        "is not occupied in the final state",
      "channel Dlink(1,12,1) of granted circuit node 1 -> node 62 via "
        "P=(0,1) is not occupied in the final state",
      "channel Ulink(1,4,0) of granted circuit node 20 -> node 44 via "
        "P=(0,0) is not occupied in the final state",
      "channel Dlink(1,8,0) of granted circuit node 20 -> node 44 via "
        "P=(0,0) is not occupied in the final state",
      "channel Dlink(0,11,0) of granted circuit node 20 -> node 44 via "
        "P=(0,0) is not occupied in the final state",
      "level 0 holds 5 residual up-channels but the rejected requests "
        "account for at most 3 (a request rejected at level h may hold "
        "reservations only below h)",
      "level 0 holds 4 residual down-channels but the rejected requests "
        "account for at most 2",
      "level 1 holds 2 residual up-channels but the rejected requests "
        "account for at most 1 (a request rejected at level h may hold "
        "reservations only below h)",
      "level 1 holds 2 residual down-channels but the rejected requests "
        "account for at most 0"};
  EXPECT_EQ(report.violations, expected);
}

TEST(ScheduleVerifier, PinnedViolationListSlimmedWordEdges) {
  const FatTree tree = FatTree::create(FatTreeParams{3, 6, 5}).value();
  const CorruptedBatch c = corrupted_ft365(tree);
  const std::vector<std::string> expected_default{
      "channel Ulink(0,31,4) is claimed by two granted circuits (second: "
        "node 187 -> node 6 via P=(4,3))",
      "channel Ulink(0,31,4) of granted circuit node 187 -> node 6 via "
        "P=(4,3) was already occupied before the batch",
      "channel Ulink(0,35,3) of granted circuit node 211 -> node 101 via "
        "P=(3,4) was already occupied before the batch",
      "channel Ulink(1,28,4) of granted circuit node 211 -> node 101 via "
        "P=(3,4) was already occupied before the batch",
      "channel Dlink(1,13,4) of granted circuit node 211 -> node 101 via "
        "P=(3,4) was already occupied before the batch",
      "final link state differs from the union of granted circuits (rejected "
        "requests left residue, or grants were not applied)"};
  EXPECT_EQ(verify_corrupted(tree, c, false).violations, expected_default);
  const std::vector<std::string> expected_relaxed{
      "channel Ulink(0,31,4) is claimed by two granted circuits (second: "
        "node 187 -> node 6 via P=(4,3))",
      "channel Ulink(0,31,4) of granted circuit node 187 -> node 6 via "
        "P=(4,3) was already occupied before the batch",
      "channel Ulink(0,35,3) of granted circuit node 211 -> node 101 via "
        "P=(3,4) was already occupied before the batch",
      "channel Ulink(1,28,4) of granted circuit node 211 -> node 101 via "
        "P=(3,4) was already occupied before the batch",
      "channel Dlink(1,13,4) of granted circuit node 211 -> node 101 via "
        "P=(3,4) was already occupied before the batch",
      "channel Ulink(1,29,3) of granted circuit node 187 -> node 6 via "
        "P=(4,3) is not occupied in the final state",
      "channel Dlink(1,4,3) of granted circuit node 187 -> node 6 via "
        "P=(4,3) is not occupied in the final state",
      "channel Dlink(0,1,4) of granted circuit node 187 -> node 6 via "
        "P=(4,3) is not occupied in the final state",
      "channel Dlink(0,16,3) of granted circuit node 211 -> node 101 via "
        "P=(3,4) is not occupied in the final state"};
  EXPECT_EQ(verify_corrupted(tree, c, true).violations, expected_relaxed);
}

}  // namespace
}  // namespace ftsched
