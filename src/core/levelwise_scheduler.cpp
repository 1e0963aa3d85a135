#include "core/levelwise_scheduler.hpp"

#include <array>
#include <vector>

#include "core/label_math.hpp"
#include "linkstate/transaction.hpp"

namespace ftsched {

std::string_view to_string(PortPolicy policy) {
  switch (policy) {
    case PortPolicy::kFirstFit:
      return "first-fit";
    case PortPolicy::kRandom:
      return "random";
    case PortPolicy::kRoundRobin:
      return "round-robin";
    case PortPolicy::kBalanced:
      return "balanced";
    case PortPolicy::kBalancedRR:
      return "balanced-rr";
    case PortPolicy::kBalancedRandom:
      return "balanced-random";
  }
  FT_UNREACHABLE();
}

std::optional<PortPolicy> parse_port_policy(std::string_view name) {
  for (const PortPolicy policy :
       {PortPolicy::kFirstFit, PortPolicy::kRandom, PortPolicy::kRoundRobin,
        PortPolicy::kBalanced, PortPolicy::kBalancedRR,
        PortPolicy::kBalancedRandom}) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
}

LevelwiseScheduler::LevelwiseScheduler(LevelwiseOptions options)
    : options_(options), rng_(options.seed) {
  name_ = "levelwise-" + std::string(to_string(options_.policy));
  if (options_.order == LevelwiseOptions::Order::kRequestMajor) {
    name_ += "-reqmajor";
  }
}

std::uint32_t LevelwiseScheduler::pick_port(
    const LinkState& state, const LinkState::LevelView& rows,
    std::uint64_t src_sw, std::uint64_t dst_sw,
    std::vector<std::uint32_t>& rr_hint) {
  if (sink_) [[unlikely]] {
    return pick_port_impl<true>(state, rows, src_sw, dst_sw, rr_hint);
  }
  return pick_port_impl<false>(state, rows, src_sw, dst_sw, rr_hint);
}

template <bool kInstrumented>
std::uint32_t LevelwiseScheduler::pick_port_impl(
    const LinkState& state, const LinkState::LevelView& rows,
    std::uint64_t src_sw, std::uint64_t dst_sw,
    std::vector<std::uint32_t>& rr_hint) {
  constexpr std::uint32_t kNoPort = LinkState::kNoPort;
  const std::uint32_t level = rows.level();
  if constexpr (kInstrumented) {
    sink_->and_popcount(level,
                        state.available_port_count(level, src_sw, dst_sw));
  }
  const auto picked = [&](std::uint32_t port) {
    if constexpr (kInstrumented) {
      if (port != kNoPort) sink_->pick(level, port);
    }
    return port;
  };
  switch (options_.policy) {
    case PortPolicy::kFirstFit:
      return picked(rows.first_available_port(src_sw, dst_sw));
    case PortPolicy::kRandom: {
      const std::uint32_t count =
          state.available_port_count(level, src_sw, dst_sw);
      if (count == 0) return kNoPort;
      return picked(state
                        .nth_available_port(
                            level, src_sw, dst_sw,
                            static_cast<std::uint32_t>(rng_.below(count)))
                        .value_or(kNoPort));
    }
    case PortPolicy::kRoundRobin: {
      const std::uint32_t w = state.ports_per_switch();
      std::uint32_t& hint = rr_hint[src_sw];
      std::uint32_t port = rows.next_available_port(src_sw, dst_sw, hint);
      if (port == kNoPort) {  // wrap around
        port = rows.first_available_port(src_sw, dst_sw);
      }
      // The round-robin hint rule: after a successful pick the row's hint
      // becomes (port + 1) mod w; a failed pick leaves it untouched. The
      // RoundRobinPin regression test pins the resulting pick sequence.
      if (port != kNoPort) hint = (port + 1) % w;
      return picked(port);
    }
    case PortPolicy::kBalanced:
      return picked(
          state.balanced_port(level, src_sw, dst_sw).value_or(kNoPort));
    case PortPolicy::kBalancedRR: {
      const std::uint32_t w = state.ports_per_switch();
      std::uint32_t& hint = rr_hint[src_sw];
      // Same hint rule as round-robin, applied WITHIN the max-weight tie
      // set (balanced_port_from wraps to the lowest max-weight port when no
      // candidate sits at or after the hint).
      const std::uint32_t port =
          state.balanced_port_from(level, src_sw, dst_sw, hint)
              .value_or(kNoPort);
      if (port != kNoPort) hint = (port + 1) % w;
      return picked(port);
    }
    case PortPolicy::kBalancedRandom: {
      const std::uint32_t count =
          state.balanced_port_count(level, src_sw, dst_sw);
      if (count == 0) return kNoPort;
      return picked(state
                        .nth_balanced_port(
                            level, src_sw, dst_sw,
                            static_cast<std::uint32_t>(rng_.below(count)))
                        .value_or(kNoPort));
    }
  }
  FT_UNREACHABLE();
}

ScheduleResult LevelwiseScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  if (options_.order == LevelwiseOptions::Order::kLevelMajor) {
    return schedule_level_major(tree, requests, state);
  }
  return schedule_request_major(tree, requests, state);
}

ScheduleResult LevelwiseScheduler::schedule_level_major(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  const auto batch = admission_.begin(tree, requests);

  const std::uint64_t w = tree.parent_arity();
  const auto wpow = parent_arity_powers(tree);
  const ChildDivider& divm = admission_.divm();

  // Batch precomputation: decompose every request's labels ONCE — σ_0/δ_0,
  // the remainder quotients, and the meet level — into flat per-request
  // arrays the level sweeps touch contiguously. The per-level work then
  // reduces to the incremental digit shift (see the header's scratch note).
  sigma_.resize(requests.size());
  delta_.resize(requests.size());
  pval_.resize(requests.size());
  src_rest_.resize(requests.size());
  dst_rest_.resize(requests.size());
  ancestor_.resize(requests.size());
  live_.clear();

  // Admission: claim leaf channels, resolve intra-switch (H == 0) requests,
  // and initialize σ_0 / δ_0 for the rest.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto admitted = admission_.admit(requests[i], result.outcomes[i]);
    if (!admitted) continue;
    sigma_[i] = admitted->src_leaf;
    delta_[i] = admitted->dst_leaf;
    pval_[i] = 0;
    src_rest_[i] = admitted->src_leaf;
    dst_rest_[i] = admitted->dst_leaf;
    ancestor_[i] = admitted->ancestor;
    live_.push_back(i);
  }

  const std::uint32_t link_levels = tree.levels() - 1;
  for (std::uint32_t h = 0; h < link_levels; ++h) {
    // With no request left in flight the remaining sweeps are no-ops.
    if (live_.empty()) break;
    if (policy_uses_hint(options_.policy)) {
      rr_hint_.assign(state.rows_at(h), 0);
    }
    // The level's rows are fetched once; every pick below is an AND of two
    // of them (docs/PERFORMANCE.md §4).
    const LinkState::LevelView rows = state.level_view(h);
    const std::uint64_t wnext = wpow[h + 1];
    const std::size_t n_live = live_.size();
    std::size_t kept = 0;
    // Compaction (live_[kept++] = i below) writes at or before the read
    // cursor, so the sweep always reads not-yet-compacted entries.
    for (std::size_t j = 0; j < n_live; ++j) {
      const std::size_t i = live_[j];
      RequestOutcome& out = result.outcomes[i];
      const std::uint32_t port =
          pick_port(state, rows, sigma_[i], delta_[i], rr_hint_);
      if (port == LinkState::kNoPort) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        continue;  // dropped from the live list
      }
      // Direct occupation — no transaction journal. The recorded port
      // digits ARE the journal: a rejected request's partial circuit is
      // reconstructed in the cleanup sweep by replaying the digit shift
      // from the leaves, so the hot path records nothing beyond the path
      // it already builds.
      state.occupy_ulink(h, sigma_[i], port);
      state.occupy_dlink(h, delta_[i], port);
      out.path.ports.push_back(port);
      // Theorem-1 digit shift, incrementally: new port digit in front, one
      // source digit consumed on each side.
      pval_[i] = port + w * pval_[i];
      src_rest_[i] = divm(src_rest_[i]);
      dst_rest_[i] = divm(dst_rest_[i]);
      if (out.path.ports.size() == ancestor_[i]) {
        // Theorem 2: sides meet at level H (σ_H == δ_H ⇔ equal remainders).
        FT_ASSERT(src_rest_[i] == dst_rest_[i]);
        out.granted = true;
        continue;  // dropped from the live list
      }
      sigma_[i] = pval_[i] + wnext * src_rest_[i];
      delta_[i] = pval_[i] + wnext * dst_rest_[i];
      live_[kept++] = i;
    }
    live_.resize(kept);
  }

  // Cleanup: rejected requests release their leaf claims and (optionally)
  // their partial channel allocations. Since the sweep occupies channels
  // directly, a granted request needs no commit step at all; a rejected one
  // replays the Theorem-1 digit shift over its recorded port
  // digits to rediscover each level's (σ_h, δ_h) and release the pair —
  // exactly the entries a transaction journal would have held (the sink's
  // released-entry count is preserved: two channels per recorded port, and
  // the rollback event still fires, possibly with zero entries, for every
  // reject when release is enabled).
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestOutcome& out = result.outcomes[i];
    if (out.granted) continue;
    if (options_.release_rejected) {
      if (sink_) sink_->rollback(2 * out.path.ports.size());
      if (!out.path.ports.empty()) {
        std::uint64_t sigma = divm(requests[i].src);
        std::uint64_t delta = divm(requests[i].dst);
        std::uint64_t pval = 0;
        std::uint64_t src_rest = sigma;
        std::uint64_t dst_rest = delta;
        for (std::uint32_t h = 0; h < out.path.ports.size(); ++h) {
          const std::uint32_t port = out.path.ports[h];
          // The recorded path IS the journal; this loop is the rollback.
          state.set_ulink(h, sigma, port, true);  // ftlint:allow(transaction-discipline)
          state.set_dlink(h, delta, port, true);  // ftlint:allow(transaction-discipline)
          pval = port + w * pval;
          src_rest = divm(src_rest);
          dst_rest = divm(dst_rest);
          sigma = pval + wpow[h + 1] * src_rest;
          delta = pval + wpow[h + 1] * dst_rest;
        }
      }
    }
    // hardware-fidelity mode (!release_rejected): partial allocation
    // persists — the channels stay occupied, nothing to undo.
    if (out.reason != RejectReason::kLeafBusy) {
      admission_.release(requests[i], out);
    }
  }
  return result;
}

ScheduleResult LevelwiseScheduler::schedule_request_major(
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
    std::uint64_t sigma = admitted->src_leaf;
    std::uint64_t delta = admitted->dst_leaf;
    std::uint64_t pval = 0;
    std::uint64_t src_rest = sigma;
    std::uint64_t dst_rest = delta;
    bool rejected = false;
    for (std::uint32_t h = 0; h < H; ++h) {
      const std::uint32_t port =
          pick_port(state, rows[h], sigma, delta, rr_hint_by_level_[h]);
      if (port == LinkState::kNoPort) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx_.occupy(h, sigma, delta, port);
      out.path.ports.push_back(port);
      // Theorem-1 digit shift, incrementally (see schedule_level_major).
      pval = port + w * pval;
      src_rest = divm(src_rest);
      dst_rest = divm(dst_rest);
      sigma = pval + wpow[h + 1] * src_rest;
      delta = pval + wpow[h + 1] * dst_rest;
    }
    if (rejected) {
      admission_.release(r, out);
      if (options_.release_rejected) {
        if (sink_) sink_->rollback(tx_.size());
        tx_.rollback();
      } else {
        tx_.commit();  // hardware-fidelity mode: partial allocation persists
      }
    } else {
      FT_ASSERT(sigma == delta);
      out.granted = true;
      tx_.commit();
    }
  }
  return result;
}

}  // namespace ftsched
