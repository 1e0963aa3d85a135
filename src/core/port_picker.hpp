// The port picker — the six PortPolicy rules, written once.
//
// Every scheduler pick chooses one port from a candidate row of the level's
// LinkState::LevelView (linkstate/link_state.hpp): the level-wise scheduler
// passes Ulink(h, σ_h) AND Dlink(h, δ_h), the local one Ulink(h, σ_h)
// alone. The schedulers differ only in that row — the paper's information
// model — so the rules below never know which one they serve.
//
// pick_port is inlined into the schedulers' level loops. With the sink
// detached, a first-fit pick is the view's one-word AND +
// count-trailing-zeros in place; every other rule is one call away
// (docs/PERFORMANCE.md "The per-level row pick").
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"
#include "linkstate/link_state.hpp"
#include "obs/sink.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ftsched {
namespace port_picker {

using View = LinkState::LevelView;
using Row = LinkState::LevelView::Row;
inline constexpr std::uint32_t kNoPort = LinkState::kNoPort;

/// A balanced candidate's weight: the free channels left in its column, up
/// and down — the residual capacity of the subtree plane it leads into.
inline std::uint64_t weight(const View& view, std::uint32_t port) {
  return view.column_free_ulinks(port) + view.column_free_dlinks(port);
}

/// The max-weight candidate of `row`: the first one at or after port
/// `from` if that reaches the row's maximum weight, else the lowest one
/// that does. One pass tracks both argmaxes; strictly-greater keeps the
/// lowest port on ties, the paper's priority selector within the tie set.
/// Forced inline into apply(): as a call of its own it cost `recovery`
/// about 1.5% of its throughput (tools/ab.py, 10 pairs × 5 s).
[[gnu::always_inline]] inline std::uint32_t heaviest(const View& view,
                                                     const Row& row,
                                                     std::uint32_t from) {
  std::uint32_t best = kNoPort;
  std::uint32_t best_from = kNoPort;
  std::uint64_t best_weight = 0;
  std::uint64_t best_from_weight = 0;
  view.find_set(row, [&](std::uint32_t p) {
    const std::uint64_t w = weight(view, p);
    if (best == kNoPort || w > best_weight) {
      best = p;
      best_weight = w;
    }
    if (p >= from && (best_from == kNoPort || w > best_from_weight)) {
      best_from = p;
      best_from_weight = w;
    }
    return false;
  });
  if (best_from != kNoPort && best_from_weight == best_weight) {
    return best_from;
  }
  return best;
}

/// The maximum weight over `row` and how many candidates reach it.
struct Ties {
  std::uint64_t weight = 0;
  std::uint32_t count = 0;  ///< 0 iff the row is empty
};

inline Ties max_weight(const View& view, const Row& row) {
  Ties ties;
  view.find_set(row, [&](std::uint32_t p) {
    const std::uint64_t w = weight(view, p);
    if (ties.count == 0 || w > ties.weight) {
      ties = {w, 1};
    } else if (w == ties.weight) {
      ++ties.count;
    }
    return false;
  });
  return ties;
}

/// The `index`-th (0-based, ascending) candidate of weight `w`, or kNoPort.
inline std::uint32_t nth_tie(const View& view, const Row& row, std::uint64_t w,
                             std::uint32_t index) {
  return view.find_set(row, [&](std::uint32_t p) {
    return weight(view, p) == w && index-- == 0;
  });
}

/// The round-robin hint rule: after a successful pick the row's hint
/// becomes (port + 1) mod w; a failed pick leaves it untouched.
inline std::uint32_t advance(const View& view, std::uint32_t& hint,
                             std::uint32_t port) {
  if (port != kNoPort) hint = (port + 1) % view.ports();
  return port;
}

/// The six rules. Out of line on purpose: inlined into a scheduler's level
/// loop, the scans of the random, round-robin and balanced rules cost the
/// first-fit pick there about 6% of `admit` throughput, so pick() takes
/// first-fit inline and calls this for the rest.
[[gnu::noinline]] inline std::uint32_t apply(
    PortPolicy policy, const View& view, const Row& row,
    std::vector<std::uint32_t>& rr_hint, Xoshiro256ss& rng) {
  // rr_hint has one entry per source row only under a hint policy, so it is
  // indexed inside those cases alone.
  switch (policy) {
    case PortPolicy::kFirstFit:  // the paper's priority selector
      return view.first_set(row);
    case PortPolicy::kRandom: {
      const std::uint32_t count = view.popcount(row);
      if (count == 0) return kNoPort;
      return view.nth_set(row, static_cast<std::uint32_t>(rng.below(count)));
    }
    case PortPolicy::kRoundRobin: {
      // The first candidate at or after the hint, wrapping to the first.
      std::uint32_t& hint = rr_hint[row.src_sw];
      const std::uint32_t port = view.next_set(row, hint);
      return advance(view, hint,
                     port != kNoPort ? port : view.first_set(row));
    }
    // The balanced family picks within the max-weight tie set, with the
    // oblivious policies' tie-break rules.
    case PortPolicy::kBalanced:
      return heaviest(view, row, 0);
    case PortPolicy::kBalancedRR: {
      std::uint32_t& hint = rr_hint[row.src_sw];
      return advance(view, hint, heaviest(view, row, hint));
    }
    case PortPolicy::kBalancedRandom: {
      const Ties ties = max_weight(view, row);
      if (ties.count == 0) return kNoPort;
      return nth_tie(view, row, ties.weight,
                     static_cast<std::uint32_t>(rng.below(ties.count)));
    }
  }
  FT_UNREACHABLE();
}

/// kInstrumented=false compiles to exactly the policy's pick (no popcount,
/// no events), so a detached sink costs one branch in pick_port().
/// kInstrumented adds the row's popcount and the pick event.
template <bool kInstrumented>
[[gnu::always_inline]] inline std::uint32_t pick(
    PortPolicy policy, const View& view, Row row,
    std::vector<std::uint32_t>& rr_hint, Xoshiro256ss& rng,
    const obs::Sink* sink) {
  if constexpr (kInstrumented) {
    sink->and_popcount(view.level(), view.popcount(row));
  }
  const std::uint32_t port = policy == PortPolicy::kFirstFit
                                 ? view.first_set(row)
                                 : apply(policy, view, row, rr_hint, rng);
  if constexpr (kInstrumented) {
    if (port != kNoPort) sink->pick(view.level(), port);
  }
  return port;
}

}  // namespace port_picker

/// Picks one port of `row`, a candidate row of `view`, under `policy`;
/// LinkState::kNoPort when the row is empty. `rr_hint` holds a rotating
/// pointer per source row and is read and advanced only by the hint
/// policies (policy_uses_hint); `rng` draws once per random pick, and only
/// when there is something to draw from. With `sink` attached the pick
/// reports the row's popcount and the chosen port.
[[gnu::always_inline]] inline std::uint32_t pick_port(
    PortPolicy policy, const LinkState::LevelView& view,
    LinkState::LevelView::Row row, std::vector<std::uint32_t>& rr_hint,
    Xoshiro256ss& rng, const obs::Sink* sink) {
  if (sink) [[unlikely]] {
    return port_picker::pick<true>(policy, view, row, rr_hint, rng, sink);
  }
  return port_picker::pick<false>(policy, view, row, rr_hint, rng, sink);
}

}  // namespace ftsched
