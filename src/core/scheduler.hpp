// Scheduler — common interface of all connection schedulers.
//
// A scheduler takes a batch of requests and the current global LinkState and
// decides, for each request, whether a circuit can be established; granted
// circuits remain occupied in the LinkState afterwards (callers reset() or
// release_path() to reuse the state). Leaf injection/ejection channels are
// tracked by the scheduler itself via LeafTracker, since LinkState only
// covers inter-switch levels.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.hpp"
#include "linkstate/link_state.hpp"
#include "obs/sched_probe.hpp"
#include "obs/trace.hpp"
#include "topology/fat_tree.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ftsched {

/// How a scheduler picks one port from an availability vector.
enum class PortPolicy : std::uint8_t {
  kFirstFit,    ///< lowest-numbered free port (the paper's priority selector)
  kRandom,      ///< uniform among free ports
  kRoundRobin,  ///< first free port at or after a rotating pointer
  // Fault-aware variants: weight each free port by the residual capacity of
  // its subtree plane (LinkState column-free counters, maintained as
  // circuits come and go and cables fail/repair) and pick within the
  // max-weight tie set. On a pristine fabric with a symmetric load they
  // reduce to their oblivious counterparts' tie-break rule; on a damaged
  // one they steer circuits off the depleted planes.
  kBalanced,        ///< max residual plane capacity, lowest port on ties
  kBalancedRR,      ///< max capacity, rotating pointer within the tie set
  kBalancedRandom,  ///< max capacity, seeded uniform draw within the tie set
};

std::string_view to_string(PortPolicy policy);

/// Inverse of to_string ("first-fit", "random", "round-robin", "balanced",
/// "balanced-rr", "balanced-random"); nullopt on anything else.
std::optional<PortPolicy> parse_port_policy(std::string_view name);

/// Policies that keep a per-row rotating pointer (the rr hint rule).
constexpr bool policy_uses_hint(PortPolicy policy) {
  return policy == PortPolicy::kRoundRobin || policy == PortPolicy::kBalancedRR;
}

/// Occupancy of the PE<->leaf-switch channels, which LinkState does not
/// model. Under a (partial) permutation these never conflict; under hot-spot
/// or many-to-one workloads the ejection channel serializes access to a PE.
class LeafTracker {
 public:
  explicit LeafTracker(std::uint64_t node_count)
      : injection_(node_count, false), ejection_(node_count, false) {}

  bool try_claim(NodeId src, NodeId dst) {
    if (injection_[src] || ejection_[dst]) return false;
    injection_[src] = true;
    ejection_[dst] = true;
    return true;
  }

  /// Whether try_claim(src, dst) would succeed, without claiming.
  bool can_claim(NodeId src, NodeId dst) const {
    return !injection_[src] && !ejection_[dst];
  }

  void release(NodeId src, NodeId dst) {
    FT_REQUIRE(injection_[src] && ejection_[dst]);
    injection_[src] = false;
    ejection_[dst] = false;
  }

  void reset() {
    injection_.assign(injection_.size(), false);
    ejection_.assign(ejection_.size(), false);
  }

 private:
  std::vector<bool> injection_;
  std::vector<bool> ejection_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string_view name() const = 0;

  /// Schedules `requests` against `state`. Granted circuits stay occupied in
  /// `state`; rejected requests leave no residual occupancy (any partial
  /// allocation is rolled back before returning unless a scheduler option
  /// explicitly says otherwise).
  virtual ScheduleResult schedule(const FatTree& tree,
                                  std::span<const Request> requests,
                                  LinkState& state) = 0;

  /// Re-seeds any internal randomness (port policies, tie breaking).
  virtual void reseed(std::uint64_t seed) = 0;

  /// Attaches an accounting probe (null detaches). The probe must outlive
  /// every schedule() call made while attached. Probes observe, never steer:
  /// an attached probe does not change any scheduling decision.
  void set_probe(obs::SchedulerProbe* probe) { probe_ = probe; }
  obs::SchedulerProbe* probe() const { return probe_; }

  /// Attaches a trace-span sink (null detaches); same lifetime rule.
  void set_tracer(obs::TraceWriter* tracer) { tracer_ = tracer; }
  obs::TraceWriter* tracer() const { return tracer_; }

 protected:
  /// Uniform end-of-batch accounting: every outcome reports to the probe
  /// exactly once — grants by ancestor level, rejections by first-failure
  /// level and reason (admission failures land on level 0), leaf-channel
  /// claim failures additionally on their own counter. Callers guard with
  /// `if (probe_)`.
  void record_outcomes(const ScheduleResult& result) {
    for (const RequestOutcome& out : result.outcomes) {
      if (out.granted) {
        probe_->on_grant(out.path.ancestor_level);
        continue;
      }
      probe_->on_reject(out.fail_level,
                        static_cast<std::uint8_t>(out.reason));
      if (out.reason == RejectReason::kLeafBusy) {
        probe_->on_leaf_claim_fail();
      }
    }
  }

  obs::SchedulerProbe* probe_ = nullptr;
  obs::TraceWriter* tracer_ = nullptr;
};

}  // namespace ftsched
