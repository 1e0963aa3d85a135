#include "core/local_scheduler.hpp"

#include <array>

#include "core/label_math.hpp"
#include "linkstate/transaction.hpp"

namespace ftsched {

LocalAdaptiveScheduler::LocalAdaptiveScheduler(LocalOptions options)
    : options_(options), rng_(options.seed) {
  name_ = "local-" + std::string(to_string(options_.policy));
  if (!options_.release_on_fail) name_ += "-hold";
}

std::uint32_t LocalAdaptiveScheduler::pick_local_port(
    const LinkState& state, const LinkState::LevelView& rows,
    std::uint64_t src_sw, std::vector<std::uint32_t>& rr_hint) {
  if (probe_) [[unlikely]] {
    return pick_local_port_impl<true>(state, rows, src_sw, rr_hint);
  }
  return pick_local_port_impl<false>(state, rows, src_sw, rr_hint);
}

template <bool kProbed>
std::uint32_t LocalAdaptiveScheduler::pick_local_port_impl(
    const LinkState& state, const LinkState::LevelView& rows,
    std::uint64_t src_sw, std::vector<std::uint32_t>& rr_hint) {
  constexpr std::uint32_t kNoPort = LinkState::kNoPort;
  const std::uint32_t level = rows.level();
  if constexpr (kProbed) {
    probe_->on_and_popcount(level, rows.local_ulink_count(src_sw));
  }
  const auto picked = [&](std::uint32_t port) {
    if constexpr (kProbed) {
      if (port != kNoPort) probe_->on_port_pick(level, port);
    }
    return port;
  };
  switch (options_.policy) {
    case PortPolicy::kFirstFit:
      return picked(rows.first_local_ulink(src_sw));
    case PortPolicy::kRandom: {
      const std::uint32_t count = rows.local_ulink_count(src_sw);
      if (count == 0) return kNoPort;
      return picked(rows.nth_local_ulink(
          src_sw, static_cast<std::uint32_t>(rng_.below(count))));
    }
    case PortPolicy::kRoundRobin: {
      const std::uint32_t w = state.ports_per_switch();
      std::uint32_t& hint = rr_hint[src_sw];
      std::uint32_t port = rows.next_local_ulink(src_sw, hint);
      if (port == kNoPort) port = rows.first_local_ulink(src_sw);
      if (port != kNoPort) hint = (port + 1) % w;
      return picked(port);
    }
    // Balanced variants act on the source-side column weights only — the
    // residual-capacity signal a locally-informed scheduler could plausibly
    // aggregate — mirroring the levelwise variants' tie-break rules.
    case PortPolicy::kBalanced:
      return picked(
          state.balanced_local_ulink(level, src_sw).value_or(kNoPort));
    case PortPolicy::kBalancedRR: {
      const std::uint32_t w = state.ports_per_switch();
      std::uint32_t& hint = rr_hint[src_sw];
      const std::uint32_t port =
          state.balanced_local_ulink_from(level, src_sw, hint)
              .value_or(kNoPort);
      if (port != kNoPort) hint = (port + 1) % w;
      return picked(port);
    }
    case PortPolicy::kBalancedRandom: {
      const std::uint32_t count =
          state.balanced_local_ulink_count(level, src_sw);
      if (count == 0) return kNoPort;
      return picked(state
                        .nth_balanced_local_ulink(
                            level, src_sw,
                            static_cast<std::uint32_t>(rng_.below(count)))
                        .value_or(kNoPort));
    }
  }
  FT_UNREACHABLE();
}

ScheduleResult LocalAdaptiveScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  const auto batch = admission_.begin(tree, requests);

  const std::uint64_t w = tree.parent_arity();
  const auto wpow = parent_arity_powers(tree);
  const ChildDivider& divm = admission_.divm();

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
    // destination-side switch δ_h = Pval_h + w^h·⌊dst/m^h⌋ is fully
    // determined by the ports chosen so far (Theorem 2), so it is recorded
    // on the way up and the descent below never has to recompose it.
    std::uint64_t sigma = admitted->src_leaf;
    std::uint64_t pval = 0;
    std::uint64_t src_rest = admitted->src_leaf;
    std::uint64_t dst_rest = admitted->dst_leaf;
    std::array<std::uint64_t, kMaxTreeLevels> delta_at{};
    for (std::uint32_t h = 0; h < H; ++h) {
      delta_at[h] = pval + wpow[h] * dst_rest;
      const std::uint32_t port =
          pick_local_port(state, rows[h], sigma, rr_hint_by_level_[h]);
      if (port == LinkState::kNoPort) {
        out.reason = RejectReason::kNoLocalUplink;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx_.occupy_up(h, sigma, port);
      out.path.ports.push_back(port);
      pval = port + w * pval;
      src_rest = divm(src_rest);
      dst_rest = divm(dst_rest);
      sigma = pval + wpow[h + 1] * src_rest;
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
        if (probe_) probe_->on_rollback(tx_.size());
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
