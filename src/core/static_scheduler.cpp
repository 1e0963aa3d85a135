#include "core/static_scheduler.hpp"

#include <array>

#include "linkstate/transaction.hpp"
#include "topology/circuit_labels.hpp"

namespace ftsched {

DigitVec StaticDestinationScheduler::static_ports(const FatTree& tree,
                                                  NodeId dst,
                                                  std::uint32_t ancestor) {
  FT_REQUIRE(dst < tree.node_count());
  FT_REQUIRE(ancestor <= tree.levels());
  // P_h = (dst / m^h) mod m, peeled digit by digit — no MixedRadix needed.
  const std::uint64_t m = tree.child_arity();
  std::uint64_t rest = dst;
  DigitVec ports;
  for (std::uint32_t h = 0; h < ancestor; ++h) {
    ports.push_back(static_cast<std::uint32_t>(rest % m));
    rest /= m;
  }
  return ports;
}

ScheduleResult StaticDestinationScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  FT_REQUIRE(tree.parent_arity() >= tree.child_arity());
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  const auto batch = admission_.begin(tree, requests);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = result.outcomes[i];
    const auto admitted = admission_.admit(r, out);
    if (!admitted) continue;
    const std::uint32_t H = admitted->ancestor;
    const DigitVec ports = static_ports(tree, r.dst, H);

    // The whole path is forced; only the up side can be contended (see
    // header: a down collision implies an identical destination PE).
    // δ_h is recorded during the ascent so the descent never recomposes
    // labels (same trick as the local scheduler).
    tx_.rebind(state);
    bool rejected = false;
    CircuitLabels labels =
        CircuitLabels::start(tree, admitted->src_leaf, admitted->dst_leaf);
    std::array<std::uint64_t, kMaxTreeLevels> delta_at{};
    for (std::uint32_t h = 0; h < H; ++h) {
      const std::uint64_t sigma = labels.sigma();
      delta_at[h] = labels.delta();
      if (!state.ulink(h, sigma, ports[h])) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx_.occupy_up(h, sigma, ports[h]);
      if (sink_) sink_->pick(h, ports[h]);
      labels.ascend(tree, ports[h]);
    }
    if (!rejected) {
      for (std::uint32_t h = H; h-- > 0;) {
        const std::uint64_t delta = delta_at[h];
        // Among this scheduler's own circuits the channel is free by the
        // destination-uniqueness theorem; it can still be held externally
        // (pre-occupied state, faults), which is an honest rejection.
        if (!state.dlink(h, delta, ports[h])) {
          out.reason = RejectReason::kDownConflict;
          out.fail_level = h;
          rejected = true;
          break;
        }
        tx_.occupy_down(h, delta, ports[h]);
      }
    }

    if (rejected) {
      admission_.release(r, out);
      if (sink_) sink_->rollback(tx_.size());
      tx_.rollback();
    } else {
      out.granted = true;
      out.path.ports = ports;
      tx_.commit();
    }
  }
  return result;
}

}  // namespace ftsched
