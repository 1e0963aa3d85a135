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

std::optional<std::uint32_t> LocalAdaptiveScheduler::pick_local_port(
    const LinkState& state, std::uint32_t level, std::uint64_t src_sw,
    std::vector<std::uint32_t>& rr_hint) {
  if (probe_) [[unlikely]] {
    return pick_local_port_impl<true>(state, level, src_sw, rr_hint);
  }
  return pick_local_port_impl<false>(state, level, src_sw, rr_hint);
}

template <bool kProbed>
std::optional<std::uint32_t> LocalAdaptiveScheduler::pick_local_port_impl(
    const LinkState& state, std::uint32_t level, std::uint64_t src_sw,
    std::vector<std::uint32_t>& rr_hint) {
  if constexpr (kProbed) {
    probe_->on_and_popcount(level, state.local_ulink_count(level, src_sw));
  }
  const auto picked = [&](std::optional<std::uint32_t> port) {
    if constexpr (kProbed) {
      if (port) probe_->on_port_pick(level, *port);
    }
    return port;
  };
  switch (options_.policy) {
    case PortPolicy::kFirstFit:
      return picked(state.first_local_ulink(level, src_sw));
    case PortPolicy::kRandom: {
      const std::uint32_t count = state.local_ulink_count(level, src_sw);
      if (count == 0) return std::nullopt;
      return picked(state.nth_local_ulink(
          level, src_sw, static_cast<std::uint32_t>(rng_.below(count))));
    }
    case PortPolicy::kRoundRobin: {
      const std::uint32_t w = state.ports_per_switch();
      std::uint32_t& hint = rr_hint[src_sw];
      auto port = state.next_local_ulink(level, src_sw, hint);
      if (!port) port = state.first_local_ulink(level, src_sw);
      if (port) hint = (*port + 1) % w;
      return picked(port);
    }
    // Balanced variants act on the source-side column weights only — the
    // residual-capacity signal a locally-informed scheduler could plausibly
    // aggregate — mirroring the levelwise variants' tie-break rules.
    case PortPolicy::kBalanced:
      return picked(state.balanced_local_ulink(level, src_sw));
    case PortPolicy::kBalancedRR: {
      const std::uint32_t w = state.ports_per_switch();
      std::uint32_t& hint = rr_hint[src_sw];
      const auto port = state.balanced_local_ulink_from(level, src_sw, hint);
      if (port) hint = (*port + 1) % w;
      return picked(port);
    }
    case PortPolicy::kBalancedRandom: {
      const std::uint32_t count =
          state.balanced_local_ulink_count(level, src_sw);
      if (count == 0) return std::nullopt;
      return picked(state.nth_balanced_local_ulink(
          level, src_sw, static_cast<std::uint32_t>(rng_.below(count))));
    }
  }
  FT_UNREACHABLE();
}

ScheduleResult LocalAdaptiveScheduler::schedule(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  if (probe_) probe_->on_batch_begin(requests.size());
  obs::ScopedSpan batch_span(tracer_, name_, "sched.batch");
  ScheduleResult result;
  result.outcomes.reserve(requests.size());
  LeafTracker leaves(tree.node_count());

  const std::uint64_t m = tree.child_arity();
  const std::uint64_t w = tree.parent_arity();
  const auto wpow = parent_arity_powers(tree);
  const ChildDivider divm(m);

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

  for (const Request& r : requests) {
    RequestOutcome out;
    out.path = Path{r.src, r.dst, 0, {}};
    std::uint64_t src_leaf = 0;
    std::uint64_t dst_leaf = 0;
    std::uint32_t H = 0;
    bool resolved = false;
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      resolved = true;
    } else {
      src_leaf = tree.leaf_switch(r.src).index;
      dst_leaf = tree.leaf_switch(r.dst).index;
      H = divm.meet(src_leaf, dst_leaf);
      if (H == 0) {
        out.granted = true;
        resolved = true;
      }
    }
    if (resolved) {
      result.outcomes.push_back(out);
      continue;
    }
    out.path.ancestor_level = H;

    Transaction tx(state);
    bool rejected = false;

    // Ascent: pick a locally free up-port at each level; the destination
    // side's availability is invisible here — that is the point. The
    // destination-side switch δ_h = Pval_h + w^h·⌊dst/m^h⌋ is fully
    // determined by the ports chosen so far (Theorem 2), so it is recorded
    // on the way up and the descent below never has to recompose it.
    std::uint64_t sigma = src_leaf;
    std::uint64_t pval = 0;
    std::uint64_t src_rest = src_leaf;
    std::uint64_t dst_rest = dst_leaf;
    std::array<std::uint64_t, kMaxTreeLevels> delta_at{};
    for (std::uint32_t h = 0; h < H; ++h) {
      delta_at[h] = pval + wpow[h] * dst_rest;
      const auto port = pick_local_port(state, h, sigma, rr_hint_by_level_[h]);
      if (!port) {
        out.reason = RejectReason::kNoLocalUplink;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx.occupy_up(h, sigma, *port);
      out.path.ports.push_back(*port);
      pval = *port + w * pval;
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
        tx.occupy_down(h, delta, out.path.ports[h]);
      }
    }

    if (rejected) {
      out.path.ports.clear();
      out.path.ancestor_level = 0;
      leaves.release(r.src, r.dst);
      if (options_.release_on_fail) {
        if (probe_) probe_->on_rollback(tx.size());
        tx.rollback();
      } else {
        tx.commit();
      }
    } else {
      out.granted = true;
      tx.commit();
    }
    result.outcomes.push_back(out);
  }
  if (probe_) record_outcomes(result);
  return result;
}

}  // namespace ftsched
