#include "core/levelwise_scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(Levelwise, PaperFigure8WorkedTrace) {
  // Paper §4: FT(4,4), request node 3 -> node 95. Source switch (0,"000"),
  // destination switch (0,"113") = 23, ancestor level H = 3. With
  // Ulink(1, σ1="000")[0] pre-occupied the trace selects P = (0, 1, 0).
  const FatTree tree = FatTree::symmetric(4, 4);
  LinkState state(tree);

  ASSERT_EQ(tree.leaf_switch(3).index, 0u);
  ASSERT_EQ(tree.leaf_switch(95).index, 23u);
  ASSERT_EQ(tree.common_ancestor_level(0, 23), 3u);

  // Step-2 premise: port 0 at level 1 is not available on the source side.
  const std::uint64_t sigma1 = tree.ascend(0, 0, 0);
  state.set_ulink(1, sigma1, 0, false);

  LevelwiseScheduler scheduler;
  const Request request{3, 95};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);

  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ports, (DigitVec{0, 1, 0}));
  EXPECT_EQ(to_string(result.outcomes[0].path),
            "node 3 -> node 95 via P=(0,1,0)");
}

TEST(Levelwise, GrantsTrivialIntraSwitchRequest) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const Request request{0, 3};  // same leaf switch
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ancestor_level, 0u);
  EXPECT_EQ(state.total_occupied(), 0u);  // no inter-switch channels used
}

TEST(Levelwise, SelfRequestGranted) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const Request request{5, 5};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  EXPECT_TRUE(result.outcomes[0].granted);
}

TEST(Levelwise, RejectsWhenAndRowEmpty) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  // Source leaf 0, destination leaf 3: make their availability disjoint.
  state.set_ulink(0, 0, 0, false);
  state.set_ulink(0, 0, 1, false);
  state.set_dlink(0, 3, 2, false);
  state.set_dlink(0, 3, 3, false);
  LevelwiseScheduler scheduler;
  const Request request{0, 12};  // leaf 0 -> leaf 3
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].reason, RejectReason::kNoCommonPort);
  EXPECT_EQ(result.outcomes[0].fail_level, 0u);
}

TEST(Levelwise, ReleaseRejectedReturnsPartialAllocations) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  // Request 0 -> 63 (H=2). Block ALL level-1 destination-side down channels
  // so the request allocates level 0 first and then fails at level 1.
  const std::uint64_t dst_leaf = tree.leaf_switch(63).index;
  for (std::uint32_t port = 0; port < 4; ++port) {
    // δ_1 depends on P_0; block every possible δ_1 row entirely.
    for (std::uint32_t p0 = 0; p0 < 4; ++p0) {
      const std::uint64_t delta1 = tree.ascend(0, dst_leaf, p0);
      if (state.dlink(1, delta1, port)) state.set_dlink(1, delta1, port, false);
    }
  }
  const std::uint64_t occupied_before = state.total_occupied();

  LevelwiseScheduler scheduler;  // release_rejected defaults to true
  const Request request{0, 63};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].fail_level, 1u);
  // The level-0 allocation must have been rolled back.
  EXPECT_EQ(state.total_occupied(), occupied_before);
}

TEST(Levelwise, NoReleaseModeKeepsPartialAllocations) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  const std::uint64_t dst_leaf = tree.leaf_switch(63).index;
  for (std::uint32_t port = 0; port < 4; ++port) {
    for (std::uint32_t p0 = 0; p0 < 4; ++p0) {
      const std::uint64_t delta1 = tree.ascend(0, dst_leaf, p0);
      if (state.dlink(1, delta1, port)) state.set_dlink(1, delta1, port, false);
    }
  }
  const std::uint64_t occupied_before = state.total_occupied();

  LevelwiseOptions options;
  options.release_rejected = false;  // hardware-fidelity mode
  LevelwiseScheduler scheduler(options);
  const Request request{0, 63};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(state.total_occupied(), occupied_before + 2);  // level-0 pair held
}

TEST(Levelwise, FirstFitPicksLowestCommonPort) {
  const FatTree tree = FatTree::symmetric(2, 8);
  LinkState state(tree);
  state.set_ulink(0, 0, 0, false);
  state.set_dlink(0, 5, 1, false);
  LevelwiseScheduler scheduler;
  const Request request{0, 45};  // leaf 0 -> leaf 5
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ports[0], 2u);
}

TEST(Levelwise, DuplicateDestinationRejectedAtLeaf) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const std::vector<Request> batch{{0, 9}, {5, 9}};
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(result.outcomes[0].granted);
  EXPECT_FALSE(result.outcomes[1].granted);
  EXPECT_EQ(result.outcomes[1].reason, RejectReason::kLeafBusy);
}

TEST(Levelwise, PaperFigure4BothRequestsGranted) {
  // Fig. 4(b): with global information the two requests aimed at leaf
  // switch 8 take distinct ports and BOTH succeed.
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},   // SW(0,0) -> SW(0,8)
      {tree.node_at(1, 0), tree.node_at(8, 1)}};  // SW(0,1) -> SW(0,8)
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  ASSERT_TRUE(result.outcomes[1].granted);
  // The conflict is on Dlink(0, 8, ·): the grants must use distinct P_0.
  EXPECT_NE(result.outcomes[0].path.ports[0], result.outcomes[1].path.ports[0]);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
}

TEST(Levelwise, FullPermutationOnRearrangeableTwoLevelIsNearPerfect) {
  // A two-level FT(2,w) is rearrangeably non-blocking; first-fit is not an
  // exact edge coloring but must stay close to 100%.
  const FatTree tree = FatTree::symmetric(2, 8);
  LinkState state(tree);
  Xoshiro256ss rng(1);
  LevelwiseScheduler scheduler;
  double worst = 1.0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    state.reset();
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    worst = std::min(worst, result.schedulability_ratio());
    ASSERT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  }
  EXPECT_GT(worst, 0.85);
}

TEST(Levelwise, RequestMajorMatchesLevelMajorOnConflictFreeBatch) {
  // When no rejection occurs the two orders must produce identical paths
  // (first-fit is deterministic and level state is consumed identically).
  const FatTree tree = FatTree::symmetric(3, 4);
  const std::vector<Request> batch{{0, 20}, {4, 40}, {8, 60}};
  LinkState a(tree);
  LinkState b(tree);
  LevelwiseScheduler level_major;
  LevelwiseOptions options;
  options.order = LevelwiseOptions::Order::kRequestMajor;
  LevelwiseScheduler request_major(options);
  const ScheduleResult ra = level_major.schedule(tree, batch, a);
  const ScheduleResult rb = request_major.schedule(tree, batch, b);
  ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
  for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
    ASSERT_TRUE(ra.outcomes[i].granted);
    ASSERT_TRUE(rb.outcomes[i].granted);
    EXPECT_EQ(ra.outcomes[i].path, rb.outcomes[i].path);
  }
  EXPECT_TRUE(a == b);
}

TEST(Levelwise, RandomPolicyStillVerifies) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  Xoshiro256ss rng(7);
  LevelwiseOptions options;
  options.policy = PortPolicy::kRandom;
  LevelwiseScheduler scheduler(options);
  const auto batch = random_permutation(tree.node_count(), rng);
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  EXPECT_GT(result.schedulability_ratio(), 0.5);
}

TEST(Levelwise, RoundRobinPolicyStillVerifies) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  Xoshiro256ss rng(8);
  LevelwiseOptions options;
  options.policy = PortPolicy::kRoundRobin;
  LevelwiseScheduler scheduler(options);
  const auto batch = random_permutation(tree.node_count(), rng);
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  EXPECT_GT(result.schedulability_ratio(), 0.5);
}

TEST(Levelwise, DeterministicAcrossRuns) {
  const FatTree tree = FatTree::symmetric(3, 4);
  Xoshiro256ss rng(9);
  const auto batch = random_permutation(tree.node_count(), rng);
  LinkState a(tree);
  LinkState b(tree);
  LevelwiseScheduler s1;
  LevelwiseScheduler s2;
  const ScheduleResult ra = s1.schedule(tree, batch, a);
  const ScheduleResult rb = s2.schedule(tree, batch, b);
  for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
    EXPECT_EQ(ra.outcomes[i].granted, rb.outcomes[i].granted);
    EXPECT_EQ(ra.outcomes[i].path, rb.outcomes[i].path);
  }
}

TEST(Levelwise, NameReflectsConfiguration) {
  EXPECT_EQ(LevelwiseScheduler().name(), "levelwise-first-fit");
  LevelwiseOptions options;
  options.policy = PortPolicy::kRandom;
  options.order = LevelwiseOptions::Order::kRequestMajor;
  EXPECT_EQ(LevelwiseScheduler(options).name(), "levelwise-random-reqmajor");
}

TEST(Levelwise, EmptyBatch) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const ScheduleResult result = scheduler.schedule(tree, {}, state);
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_EQ(result.schedulability_ratio(), 1.0);
}

TEST(LevelwiseWordEdges, BalancedPoliciesVerifyOnFaultedFabric) {
  // Widths 63/64/65 straddle the one-word/two-word row boundary, where a
  // row scan would mishandle the spare high bits. With cables pre-failed
  // the rows also carry fault-forced busy bits, so the weighted argmax runs
  // over exactly the residual fabric. Every grant must verify against the
  // pre-batch state, and the column counters must still audit clean.
  for (std::uint32_t w : {63u, 64u, 65u}) {
    const FatTree tree = FatTree::symmetric(2, w);
    for (PortPolicy policy :
         {PortPolicy::kBalanced, PortPolicy::kBalancedRR,
          PortPolicy::kBalancedRandom}) {
      LevelwiseOptions options;
      options.policy = policy;
      options.seed = 5;
      LevelwiseScheduler scheduler(options);
      LinkState state(tree);
      // Damage concentrated on column 0 plus the top ports of both word
      // halves: the balanced weights differ per column.
      for (std::uint64_t sw = 0; sw < 5; ++sw) {
        state.fail_cable(0, sw, 0);
      }
      state.fail_cable(0, 6, w - 1);
      state.fail_cable(0, 7, w / 2);
      const LinkState before = state;
      Xoshiro256ss rng(13);
      const auto batch = random_permutation(tree.node_count(), rng);
      const ScheduleResult result = scheduler.schedule(tree, batch, state);

      const std::string where = "w=" + std::to_string(w) + " policy=" +
                                std::string(to_string(policy));
      const VerifyReport report =
          ScheduleVerifier(tree).verify(batch, result, &state, &before);
      EXPECT_TRUE(report.ok()) << where << ": " << report.first();
      EXPECT_TRUE(state.audit().ok()) << where;
      EXPECT_GT(report.granted, 0u) << where;
    }
  }
}

TEST(RoundRobinPin, PickSequencePinned) {
  // The rr_hint_ update rule — advance to (port + 1) mod w after a
  // successful pick, leave untouched on failure. This pins the granted port
  // digits of a full FT(2,4) permutation under levelwise-rr against a
  // committed literal; any drift in the rule fails.
  const FatTree tree = FatTree::symmetric(2, 4);
  Xoshiro256ss rng(9);
  const auto batch = random_permutation(tree.node_count(), rng);

  LevelwiseOptions options;
  options.policy = PortPolicy::kRoundRobin;
  LevelwiseScheduler scheduler(options);
  LinkState state(tree);
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  std::vector<DigitVec> sequence;
  for (const RequestOutcome& out : result.outcomes) {
    sequence.push_back(out.granted ? out.path.ports : DigitVec{});
  }

  const std::vector<DigitVec> expected = {
      // GENERATED: FT(2,4), levelwise-rr, seed-9 permutation ({} = request
      // rejected — the rejects are pinned too, a failed pick must not move
      // the hint). Regenerate by printing `sequence` if the workload
      // generator ever changes.
      {0}, {}, {1}, {2}, {2}, {3}, {0}, {1},
      {0}, {1}, {3}, {}, {0}, {2}, {3}, {},
  };
  EXPECT_EQ(sequence, expected);
}

/// Order-sensitive FNV-1a 64 over `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// Every outcome's granted flag, reason, fail level and port digits, in
/// batch order.
std::uint64_t outcome_digest(const ScheduleResult& result) {
  std::ostringstream os;
  for (const RequestOutcome& out : result.outcomes) {
    os << out.granted << ' ' << static_cast<int>(out.reason) << ' '
       << out.fail_level << ':';
    for (const std::uint32_t port : out.path.ports) os << port << ',';
    os << ';';
  }
  return fnv1a(os.str());
}

struct PinWorkload {
  const char* name;
  FatTree tree;
  std::vector<Request> batch;
  LinkState state;
};

/// A fresh FT(l,w) fabric and the seed-9 permutation.
PinWorkload pristine_seed9(const char* name, std::uint32_t levels,
                           std::uint32_t w) {
  const FatTree tree = FatTree::symmetric(levels, w);
  Xoshiro256ss rng(9);
  auto batch = random_permutation(tree.node_count(), rng);
  return {name, tree, std::move(batch), LinkState(tree)};
}

/// The damaged fabric of BalancedPoliciesVerifyOnFaultedFabric at w = 65:
/// two-word rows, column 0 depleted, faults in both word halves.
PinWorkload ft265_faulted() {
  const std::uint32_t w = 65;
  const FatTree tree = FatTree::symmetric(2, w);
  LinkState state(tree);
  for (std::uint64_t sw = 0; sw < 5; ++sw) state.fail_cable(0, sw, 0);
  state.fail_cable(0, 6, w - 1);
  state.fail_cable(0, 7, w / 2);
  Xoshiro256ss rng(13);
  auto batch = random_permutation(tree.node_count(), rng);
  return {"FT(2,65) faulted", tree, std::move(batch), std::move(state)};
}

TEST(RoundRobinPin, EveryPickPathPinned) {
  // Per (scheduler, workload), two digests: one over every outcome's
  // granted, reason, fail_level and ports in batch order, one over the
  // probe's metrics JSONL (pick and popcount counters included) from an
  // instrumented rerun, which must also grant exactly the same. Covers
  // every port policy of the level-wise and local schedulers and
  // turnback's candidate walk; any change to a pick, an RNG draw, the rr
  // hint rule or a balanced tie-break moves a digest.
  const std::vector<PinWorkload> workloads = {
      pristine_seed9("FT(2,4) seed 9", 2, 4),
      ft265_faulted(),
      pristine_seed9("FT(3,4) seed 9", 3, 4),
  };
  using Digests = std::array<std::uint64_t, 6>;  // (outcomes, probe) each
  struct Pin {
    const char* scheduler;
    Digests digests;
  };
  // GENERATED: printed by this test on a mismatch.
  const std::vector<Pin> pins = {
      {"levelwise",
       {0x9ae120781fa9c4c7ULL, 0xe9affd9ec731d65eULL,
        0x1126181485503954ULL, 0xe6713135b268fdecULL,
        0xeffcbd8c0d6a9c07ULL, 0xb660fa5803231934ULL}},
      {"levelwise-random",
       {0xd4382c04d4581c65ULL, 0x4f1913c6e10a7f96ULL,
        0x8b52ebe5bd566d09ULL, 0x6618b75e12931fb4ULL,
        0xec509773d6269745ULL, 0xc643df36eaa1b931ULL}},
      {"levelwise-rr",
       {0x9ae120781fa9c4c7ULL, 0xe9affd9ec731d65eULL,
        0xe1d72fe4f6c5a641ULL, 0x7d9c686419e010efULL,
        0x250f4681eba5d38cULL, 0xcdf6dcdf0d47e24aULL}},
      {"levelwise-balanced",
       {0xbc8fa4a66eb43702ULL, 0x5e258709ffccff50ULL,
        0xa1ca76d0e28b76f3ULL, 0x431e0adf8606f40aULL,
        0x4acad73830fccd58ULL, 0x322ef840fffa91aULL}},
      {"levelwise-balanced-rr",
       {0xbc8fa4a66eb43702ULL, 0x5e258709ffccff50ULL,
        0xb57f1cb66a36994ULL, 0x9edec26048f9cebdULL,
        0xdb2b22c6c138a61bULL, 0xfff9dc7c438cf1daULL}},
      {"levelwise-balanced-random",
       {0x8f6d03494fe0641fULL, 0xe9c8cb7cba5b6aa8ULL,
        0x2126c5d4a35274caULL, 0xda12b2026e84350fULL,
        0x8c04e20ae86eedeaULL, 0x43b5a85eda26ed39ULL}},
      {"levelwise-reqmajor",
       {0x9ae120781fa9c4c7ULL, 0xe9affd9ec731d65eULL,
        0x1126181485503954ULL, 0xe6713135b268fdecULL,
        0x2f3460f9bee6cf68ULL, 0x6ebb443ac83ddef7ULL}},
      {"local",
       {0x3571c9ec7f2065acULL, 0x905335be22a13923ULL,
        0x6a45023ae4364e3cULL, 0x2bdb852bdf41d6b2ULL,
        0x72cbf03de1efce64ULL, 0xf3336bab7a9cce8dULL}},
      {"local-random",
       {0x9f14b004649700b3ULL, 0xe34f1ace22cdef23ULL,
        0x165348f364bafa47ULL, 0x5cf88646a7e9250ULL,
        0xc046a410f97d0a94ULL, 0x4e806d6576495c10ULL}},
      {"local-rr",
       {0x871105886c168bbdULL, 0x6bfdf9d995e8f62ULL,
        0x7ec69f6e9f4bc761ULL, 0x8c6da8b86587d337ULL,
        0xb714c41f43f999a7ULL, 0xadd5b653aa07ef6aULL}},
      {"local-hold",
       {0x871105886c168bbdULL, 0x26655f2159a7da14ULL,
        0x62dc1b91e155a14bULL, 0x1dc71c2d352c8b59ULL,
        0xbb1365e09be3717aULL, 0x6785bde6f8fe058eULL}},
      {"turnback",
       {0x84c5517f7f2accebULL, 0x3a83bebea5504952ULL,
        0xce08fcf31358335ULL, 0x7bf3a0a7a1e3a254ULL,
        0x3209af0403fa6648ULL, 0xd3d52b74a0aa8f4ULL}},
  };
  for (const Pin& pin : pins) {
    Digests got{};
    for (std::size_t k = 0; k < workloads.size(); ++k) {
      const PinWorkload& work = workloads[k];
      auto detached = make_scheduler(pin.scheduler, 5);
      auto attached = make_scheduler(pin.scheduler, 5);
      ASSERT_TRUE(detached.ok() && attached.ok()) << pin.scheduler;
      LinkState a = work.state;
      LinkState b = work.state;
      const ScheduleResult plain =
          detached.value()->schedule(work.tree, work.batch, a);
      obs::SchedulerProbe probe;
      obs::Sink sink;
      sink.probe = &probe;
      attached.value()->set_sink(&sink);
      const ScheduleResult seen =
          attached.value()->schedule(work.tree, work.batch, b);
      EXPECT_EQ(plain.outcomes, seen.outcomes)
          << pin.scheduler << " on " << work.name;
      EXPECT_TRUE(a == b) << pin.scheduler << " on " << work.name;
      obs::MetricsRegistry registry;
      probe.export_metrics(registry, reject_reason_name);
      std::ostringstream os;
      registry.write_jsonl(os);
      got[2 * k] = outcome_digest(plain);
      got[2 * k + 1] = fnv1a(os.str());
    }
    std::ostringstream literal;
    literal << std::hex << "{\"" << pin.scheduler << "\", {";
    for (const std::uint64_t d : got) literal << "0x" << d << "ULL, ";
    literal << "}},";
    EXPECT_EQ(got, pin.digests) << literal.str();
  }
}

}  // namespace
}  // namespace ftsched
