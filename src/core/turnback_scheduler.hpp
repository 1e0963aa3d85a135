// TurnbackScheduler — a stronger local baseline inspired by TBWP
// (Kariniemi & Nurmi, paper ref. [9]: "Turn Back When Possible").
//
// Like LocalAdaptiveScheduler it sees only local state, but a request that
// hits an occupied forced downward channel is allowed to turn back and try
// an alternative upward path instead of dying. We model this as a
// depth-first search over up-port choices with two faithful restrictions:
//   * availability is only discovered by walking into the conflict (each
//     failed descent costs one probe of the budget — in the real network a
//     turn-back costs a round trip), and
//   * a conflict at level c can only be repaired by re-choosing a port at
//     some level <= c (Theorem 2: δ_c and the port used at c depend only on
//     P_0 … P_c), so the search unwinds directly to the highest level that
//     can matter instead of thrashing above it.
// With an unlimited budget this finds a free path whenever one exists for
// the request in isolation; the probe budget is what keeps it "local".
#pragma once

#include "core/scheduler.hpp"

namespace ftsched {

/// The search tries each level's locally free up-ports in ascending order
/// (first-fit), so it is deterministic.
struct TurnbackOptions {
  /// Maximum number of complete descent attempts per request (1 = plain
  /// LocalAdaptiveScheduler behaviour).
  std::uint32_t max_probes = 8;
};

class TurnbackScheduler final : public Scheduler {
 public:
  explicit TurnbackScheduler(TurnbackOptions options = {});

  std::string_view name() const override { return name_; }

  void reseed(std::uint64_t) override {}  // deterministic

  const TurnbackOptions& options() const { return options_; }

 private:
  ScheduleResult schedule_batch(const FatTree& tree,
                                std::span<const Request> requests,
                                LinkState& state) override;

  TurnbackOptions options_;
  std::string name_;
  BatchAdmission admission_;  ///< batch front end and its leaf tracker

  /// Per-level candidate lists for the DFS, reused across requests and
  /// batches. The search holds exactly one active depth per level (h
  /// strictly increases along a branch), so per-level slots never alias.
  std::vector<std::vector<std::uint32_t>> candidate_scratch_;
};

}  // namespace ftsched
