// MatchingScheduler — a near-optimal reference point for two-level trees.
//
// Beyond-paper extension. On a two-level fat tree a batch of requests is an
// edge set of a bipartite multigraph on leaf switches, and assigning up-ports
// is edge coloring with w colors (a color p is usable on edge (a, b) iff
// Ulink(0,a)[p] and Dlink(0,b)[p] are free). For a (partial) permutation on
// a symmetric FT(2, w) the degree bound is w, so by König's theorem a
// perfect w-coloring exists — the true optimum is 100 % schedulability, and
// when the link state is fresh this scheduler ACHIEVES it exactly: it pads
// the multigraph to w-regular with dummy edges and peels one perfect
// matching (Hopcroft–Karp) per color. With pre-occupied channels the
// problem becomes list edge coloring (NP-hard), so it falls back to a
// greedy color-by-color maximum matching heuristic. Either way it is the
// upper-reference line in the ablation benches showing how much headroom
// the level-wise first-fit scheduler leaves on the table.
//
// Only supports trees with levels() == 2 (schedule() aborts otherwise —
// check tree.levels() before constructing one for user-provided input).
#pragma once

#include "core/scheduler.hpp"

namespace ftsched {

class MatchingScheduler final : public Scheduler {
 public:
  MatchingScheduler() = default;

  std::string_view name() const override { return "matching2"; }

  void reseed(std::uint64_t) override {}  // deterministic

 private:
  ScheduleResult schedule_batch(const FatTree& tree,
                                std::span<const Request> requests,
                                LinkState& state) override;
};

}  // namespace ftsched
