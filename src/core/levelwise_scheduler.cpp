#include "core/levelwise_scheduler.hpp"

#include <array>
#include <vector>

#include "core/port_picker.hpp"
#include "linkstate/transaction.hpp"
#include "topology/circuit_labels.hpp"

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

LevelwiseScheduler::LevelwiseScheduler(LevelwiseOptions options)
    : options_(options), rng_(options.seed) {
  name_ = "levelwise-" + std::string(to_string(options_.policy));
  if (options_.order == LevelwiseOptions::Order::kRequestMajor) {
    name_ += "-reqmajor";
  }
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
  // The scratch is sized before the outcome vector, and in one step: a
  // fresh scheduler's first-batch allocations decide where glibc's heap top
  // settles, which the bench/e2e fig9 and admit numbers feel
  // (docs/PERFORMANCE.md §2).
  labels_.resize(requests.size());
  live_.clear();
  live_.reserve(requests.size());
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  const auto batch = admission_.begin(tree, requests);

  // Admission: claim leaf channels, resolve intra-switch (H == 0) requests,
  // and start a label cursor at σ_0 / δ_0 for the rest.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto admitted = admission_.admit(requests[i], result.outcomes[i]);
    if (!admitted) continue;
    labels_[i] =
        CircuitLabels::start(tree, admitted->src_leaf, admitted->dst_leaf);
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
    const std::size_t n_live = live_.size();
    std::size_t kept = 0;
    // Compaction (live_[kept++] = i below) writes at or before the read
    // cursor, so the sweep always reads not-yet-compacted entries.
    for (std::size_t j = 0; j < n_live; ++j) {
      const std::size_t i = live_[j];
      RequestOutcome& out = result.outcomes[i];
      CircuitLabels& labels = labels_[i];
      const std::uint64_t sigma = labels.sigma();
      const std::uint64_t delta = labels.delta();
      const std::uint32_t port =
          pick_port(options_.policy, rows, rows.and_row(sigma, delta),
                    rr_hint_, rng_, sink_);
      if (port == LinkState::kNoPort) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        continue;  // dropped from the live list
      }
      // Direct occupation — no transaction journal. The recorded port
      // digits ARE the journal: a rejected request's partial circuit is
      // reconstructed in the cleanup sweep by replaying the label walk
      // from the leaves, so the hot path records nothing beyond the path
      // it already builds.
      state.occupy_ulink(h, sigma, port);
      state.occupy_dlink(h, delta, port);
      out.path.ports.push_back(port);
      labels.ascend(tree, port);
      if (labels.met()) {
        // Theorem 2: the sides meet at level H, and the circuit exists.
        FT_ASSERT(out.path.ports.size() == out.path.ancestor_level);
        out.granted = true;
        continue;  // dropped from the live list
      }
      live_[kept++] = i;
    }
    live_.resize(kept);
  }

  // Cleanup: rejected requests release their leaf claims and (optionally)
  // their partial channel allocations. Since the sweep occupies channels
  // directly, a granted request needs no commit step at all; a rejected one
  // replays the label walk over its recorded port digits to rediscover
  // each level's (σ_h, δ_h) and release the pair —
  // exactly the entries a transaction journal would have held (the sink's
  // released-entry count is preserved: two channels per recorded port, and
  // the rollback event still fires, possibly with zero entries, for every
  // reject when release is enabled).
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestOutcome& out = result.outcomes[i];
    if (out.granted) continue;
    if (options_.release_rejected) {
      if (sink_) sink_->rollback(2 * out.path.ports.size());
      CircuitLabels labels =
          CircuitLabels::from_nodes(tree, requests[i].src, requests[i].dst);
      for (std::uint32_t h = 0; h < out.path.ports.size(); ++h) {
        const std::uint32_t port = out.path.ports[h];
        // The recorded path IS the journal; this loop is the rollback.
        state.set_ulink(h, labels.sigma(), port, true);  // ftlint:allow(transaction-discipline)
        state.set_dlink(h, labels.delta(), port, true);  // ftlint:allow(transaction-discipline)
        labels.ascend(tree, port);
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
    CircuitLabels labels =
        CircuitLabels::start(tree, admitted->src_leaf, admitted->dst_leaf);
    bool rejected = false;
    for (std::uint32_t h = 0; h < H; ++h) {
      const std::uint64_t sigma = labels.sigma();
      const std::uint64_t delta = labels.delta();
      const std::uint32_t port =
          pick_port(options_.policy, rows[h], rows[h].and_row(sigma, delta),
                    rr_hint_by_level_[h], rng_, sink_);
      if (port == LinkState::kNoPort) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx_.occupy(h, sigma, delta, port);
      out.path.ports.push_back(port);
      labels.ascend(tree, port);
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
      FT_ASSERT(labels.met());
      out.granted = true;
      tx_.commit();
    }
  }
  return result;
}

}  // namespace ftsched
