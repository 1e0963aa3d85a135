// DistributedSetupSim — the adaptive local baseline as a clocked protocol.
//
// Where LocalAdaptiveScheduler processes requests one at a time, this model
// releases ALL request tokens into the fabric at cycle 0 and lets them race,
// the way a real distributed circuit-setup protocol behaves (and the way the
// paper's SystemC simulation drove its switch nodes "in parallel"):
//
//   * ascending tokens at one switch contend for that switch's free up-ports
//     in the same cycle; the switch arbiter assigns distinct ports (policy
//     order) and tokens move one level per cycle,
//   * a token that reaches its common ancestor turns around; descending it
//     must claim the forced channel Dlink(h, δ_h, P_h) — if the channel is
//     held, or two tokens claim it in the same cycle, the losers die,
//   * dying tokens tear their held channels down one level per cycle
//     (a backward release wave), so channels freed by a casualty can be
//     grabbed by tokens that arrive later,
//   * a token claiming its level-0 down channel is granted next cycle.
//
// The run reports grants, per-token setup latency, and teardown traffic.
// Its schedulability tracks the sequential LocalAdaptiveScheduler closely
// but not exactly — simultaneity changes which token wins a conflict — and
// the cross-check between the two engines is one of the integration tests.
#pragma once

#include <optional>
#include <vector>

#include "core/request.hpp"
#include "core/scheduler.hpp"
#include "fault/retry_policy.hpp"
#include "linkstate/link_state.hpp"
#include "obs/link_telemetry.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"

namespace ftsched {

struct SetupSimOptions {
  PortPolicy policy = PortPolicy::kFirstFit;
  std::uint64_t seed = 0xd15713ULL;
  /// A token that dies re-launches from its source after its teardown wave
  /// completes, up to this many total attempts (1 = no retry). Retries model
  /// the practical protocol: by the time a loser has torn down, earlier
  /// winners have settled and later attempts see the true residual fabric.
  std::uint32_t max_attempts = 1;
  /// When set, relaunches are paced by the fault layer's RetryPolicy instead
  /// of max_attempts: a torn-down token waits delay_for(retry#) cycles at
  /// its source before re-entering the race, and gives up when the policy
  /// says so (the policy's max_retries replaces max_attempts). Spacing the
  /// losers out drains convoys that immediate relaunch re-creates. A wait
  /// that would end at or past max_cycles gives the token up instead. Unset
  /// (the default) preserves the relaunch-next-cycle behavior above.
  std::optional<RetryPolicy> relaunch;
  /// Safety valve: abort the run after this many cycles (a correct run
  /// quiesces within ~attempts · (2·levels + teardown chain)).
  std::uint64_t max_cycles = 1u << 20;
  /// Optional fabric telemetry: the LinkState is sampled at the end of
  /// every protocol cycle (t = cycle), so the series shows tokens claiming
  /// and tearing down channels as the setup race unfolds. Must outlive
  /// run(); null = no sampling, one branch per cycle.
  obs::LinkTelemetry* telemetry = nullptr;
};

struct SetupSimReport {
  ScheduleResult result;              ///< same shape the schedulers return
  std::uint64_t cycles = 0;           ///< cycles until the fabric quiesced
  std::uint64_t teardowns = 0;        ///< token deaths (incl. retried ones)
  std::uint64_t retries = 0;          ///< re-launches after a teardown
  std::vector<std::uint64_t> setup_latency;  ///< cycles, granted tokens only
};

class DistributedSetupSim {
 public:
  explicit DistributedSetupSim(const FatTree& tree,
                               SetupSimOptions options = {});

  /// Runs one batch to quiescence. `state` is reset first and holds the
  /// granted circuits afterwards, like Scheduler::schedule.
  SetupSimReport run(std::span<const Request> requests, LinkState& state);

 private:
  /// Cycles a token torn down after `attempts` launches waits before it
  /// relaunches, or nullopt when it gives up.
  std::optional<std::uint64_t> relaunch_delay(std::uint32_t attempts,
                                              std::uint64_t cycle);

  const FatTree& tree_;
  SetupSimOptions options_;
  Xoshiro256ss rng_;
};

}  // namespace ftsched
