// StaticDestinationScheduler — destination-mod-k routing (OpenSM-style).
//
// Beyond-paper baseline. Production fat-tree subnet managers (e.g. OpenSM's
// fat-tree routing engine) assign UP-ports STATICALLY from the destination
// address — the d-mod-k family: at level h use digit h of the destination
// PE's base-m index, P_h = (dst / m^h) mod m. The attraction is a theorem
// of its own: circuits to DIFFERENT destination PEs can never share a
// downward channel. The down channel at level h is Dlink(h, δ_h, P_h) with
// δ_h = (d_{l-2} … d_h, P_0 … P_{h-1}) and every P_i a destination digit —
// so the triple is a function of the destination alone, and two circuits
// colliding there are headed to the same PE (which endpoint admission
// already excludes). All contention therefore moves to the UP side, where
// sources sharing σ_h and a destination digit collide — the classic
// d-mod-k weakness under low-digit-sharing (e.g. shift/stride) traffic.
//
// Requires w >= m so every destination digit is a valid port (the standard
// deployment shape). A blocked request is rejected with kNoCommonPort at
// the first unavailable up level; down conflicts cannot happen (asserted).
#pragma once

#include "core/scheduler.hpp"
#include "linkstate/transaction.hpp"

namespace ftsched {

class StaticDestinationScheduler final : public Scheduler {
 public:
  StaticDestinationScheduler() = default;

  std::string_view name() const override { return "dmodk"; }

  void reseed(std::uint64_t) override {}  // fully deterministic

  /// The forced port string for a destination PE: P_h = (dst / m^h) mod m.
  static DigitVec static_ports(const FatTree& tree, NodeId dst,
                               std::uint32_t ancestor);

 private:
  ScheduleResult schedule_batch(const FatTree& tree,
                                std::span<const Request> requests,
                                LinkState& state) override;

  BatchAdmission admission_;  ///< batch front end and its leaf tracker
  Transaction tx_;            ///< rebound for every request
};

}  // namespace ftsched
