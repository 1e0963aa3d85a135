#include "core/local_scheduler.hpp"

#include <array>

#include "core/port_picker.hpp"
#include "linkstate/transaction.hpp"
#include "topology/circuit_labels.hpp"

namespace ftsched {

LocalAdaptiveScheduler::LocalAdaptiveScheduler(LocalOptions options)
    : options_(options), rng_(options.seed) {
  // The balanced policies weigh both sides of a column; a scheduler that
  // sees only the source side has no such weight.
  FT_REQUIRE(options_.policy == PortPolicy::kFirstFit ||
             options_.policy == PortPolicy::kRandom ||
             options_.policy == PortPolicy::kRoundRobin);
  name_ = "local-" + std::string(to_string(options_.policy));
  if (!options_.release_on_fail) name_ += "-hold";
}

ScheduleResult LocalAdaptiveScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  const auto batch = admission_.begin(tree, requests);

  const std::uint32_t link_levels = tree.levels() - 1;
  rr_hint_by_level_.resize(link_levels);
  if (policy_uses_hint(options_.policy)) {
    for (std::uint32_t h = 0; h < link_levels; ++h) {
      rr_hint_by_level_[h].assign(state.rows_at(h), 0);
    }
  } else {
    for (std::uint32_t h = 0; h < link_levels; ++h) {
      rr_hint_by_level_[h].assign(1, 0);
    }
  }
  std::array<LinkState::LevelView, kMaxTreeLevels> rows{};
  for (std::uint32_t h = 0; h < link_levels; ++h) {
    rows[h] = state.level_view(h);
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = result.outcomes[i];
    const auto admitted = admission_.admit(r, out);
    if (!admitted) continue;
    const std::uint32_t H = admitted->ancestor;

    tx_.rebind(state);
    bool rejected = false;

    // Ascent: pick a locally free up-port at each level; the destination
    // side's availability is invisible here — that is the point. The
    // destination-side switch δ_h is fully determined by the ports chosen
    // so far (Theorem 2), so it is recorded on the way up and the descent
    // below never has to recompose it.
    CircuitLabels labels =
        CircuitLabels::start(tree, admitted->src_leaf, admitted->dst_leaf);
    std::array<std::uint64_t, kMaxTreeLevels> delta_at{};
    for (std::uint32_t h = 0; h < H; ++h) {
      const std::uint64_t sigma = labels.sigma();
      delta_at[h] = labels.delta();
      const std::uint32_t port =
          pick_port(options_.policy, rows[h], rows[h].ulink_row(sigma),
                    rr_hint_by_level_[h], rng_, sink_);
      if (port == LinkState::kNoPort) {
        out.reason = RejectReason::kNoLocalUplink;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx_.occupy_up(h, sigma, port);
      out.path.ports.push_back(port);
      labels.ascend(tree, port);
    }

    // Descent: the downward path is forced by Theorem 2; the first occupied
    // channel (checked top-down, the order a real network discovers it)
    // kills the request.
    if (!rejected) {
      for (std::uint32_t h = H; h-- > 0;) {
        const std::uint64_t delta = delta_at[h];
        if (!state.dlink(h, delta, out.path.ports[h])) {
          out.reason = RejectReason::kDownConflict;
          out.fail_level = h;
          rejected = true;
          break;
        }
        tx_.occupy_down(h, delta, out.path.ports[h]);
      }
    }

    if (rejected) {
      admission_.release(r, out);
      if (options_.release_on_fail) {
        if (sink_) sink_->rollback(tx_.size());
        tx_.rollback();
      } else {
        tx_.commit();
      }
    } else {
      out.granted = true;
      tx_.commit();
    }
  }
  return result;
}

}  // namespace ftsched
