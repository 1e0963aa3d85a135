#include "core/static_scheduler.hpp"

#include <array>

#include "core/label_math.hpp"
#include "linkstate/transaction.hpp"

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

  const std::uint64_t w = tree.parent_arity();
  const auto wpow = parent_arity_powers(tree);
  const ChildDivider& divm = admission_.divm();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = result.outcomes[i];
    const auto admitted = admission_.admit(r, out);
    if (!admitted) continue;
    const std::uint32_t H = admitted->ancestor;
    const DigitVec ports = static_ports(tree, r.dst, H);

    // The whole path is forced; only the up side can be contended (see
    // header: a down collision implies an identical destination PE).
    // δ_h = Pval_h + w^h·⌊dst/m^h⌋ is recorded during the ascent so the
    // descent never recomposes labels (same trick as the local scheduler).
    tx_.rebind(state);
    bool rejected = false;
    std::uint64_t sigma = admitted->src_leaf;
    std::uint64_t pval = 0;
    std::uint64_t src_rest = admitted->src_leaf;
    std::uint64_t dst_rest = admitted->dst_leaf;
    std::array<std::uint64_t, kMaxTreeLevels> delta_at{};
    for (std::uint32_t h = 0; h < H; ++h) {
      delta_at[h] = pval + wpow[h] * dst_rest;
      if (!state.ulink(h, sigma, ports[h])) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx_.occupy_up(h, sigma, ports[h]);
      if (probe_) probe_->on_port_pick(h, ports[h]);
      pval = ports[h] + w * pval;
      src_rest = divm(src_rest);
      dst_rest = divm(dst_rest);
      sigma = pval + wpow[h + 1] * src_rest;
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
      if (probe_) probe_->on_rollback(tx_.size());
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
