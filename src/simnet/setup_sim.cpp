#include "simnet/setup_sim.hpp"

#include <map>
#include <tuple>

#include "linkstate/telemetry.hpp"
#include "topology/circuit_labels.hpp"

namespace ftsched {

DistributedSetupSim::DistributedSetupSim(const FatTree& tree,
                                         SetupSimOptions options)
    : tree_(tree), options_(options), rng_(options.seed) {}

namespace {

struct Token {
  enum class State : std::uint8_t {
    kAscending,
    kDescending,
    kTearingDown,
    kWaiting,  ///< torn down, pacing a RetryPolicy delay before relaunch
    kGranted,
    kDead,
  };

  std::size_t request_index = 0;
  State state = State::kAscending;
  std::uint32_t level = 0;     ///< levels climbed so far (ascending)
  CircuitLabels labels;        ///< σ_level / δ_level while ascending
  std::uint32_t ancestor = 0;  ///< H
  std::uint64_t src_leaf = 0;
  std::uint64_t dst_leaf = 0;
  DigitVec ports;              ///< held P_0 … P_{level-1}
  /// σ_h for each held up channel (parallel to ports).
  SmallVec<std::uint64_t, kMaxTreeLevels> up_switches;
  /// δ_h for each held port, recorded on the way up for the descent.
  SmallVec<std::uint64_t, kMaxTreeLevels> down_switches;
  std::uint32_t down_claimed = 0;  ///< down channels held (levels H-1 …)
  std::uint64_t start_cycle = 0;
  std::uint32_t attempts = 1;      ///< launches so far (this one included)
  std::uint64_t relaunch_at = 0;   ///< kWaiting: first cycle it may ascend
};

bool active(const Token& t) {
  return t.state == Token::State::kAscending ||
         t.state == Token::State::kDescending ||
         t.state == Token::State::kTearingDown ||
         t.state == Token::State::kWaiting;
}

}  // namespace

std::optional<std::uint64_t> DistributedSetupSim::relaunch_delay(
    std::uint32_t attempts, std::uint64_t cycle) {
  if (!options_.relaunch) {
    return attempts < options_.max_attempts ? std::optional<std::uint64_t>(0)
                                            : std::nullopt;
  }
  // The delay is drawn exactly once per relaunch (attempt numbers are
  // 1-based retry counts), so jittered policies stay deterministic per seed.
  const std::optional<std::uint64_t> delay =
      options_.relaunch->delay_for(attempts, rng_);
  // A wait that would end at or past max_cycles gives the token up, as if
  // the policy had no retries left: cycle + 1 + delay could wrap near 2^64
  // and wake it at once, and a run that outlives max_cycles aborts.
  if (delay && *delay > 0 && *delay >= options_.max_cycles - cycle - 1) {
    return std::nullopt;
  }
  return delay;
}

SetupSimReport DistributedSetupSim::run(std::span<const Request> requests,
                                        LinkState& state) {
  state.reset();
  SetupSimReport report;
  report.result.outcomes.resize(requests.size());
  report.setup_latency.clear();
  LeafTracker leaves(tree_.node_count());

  std::vector<Token> tokens;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = report.result.outcomes[i];
    out.path = Path{r.src, r.dst, 0, {}};
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      continue;
    }
    const std::uint64_t src_leaf = tree_.leaf_switch(r.src).index;
    const std::uint64_t dst_leaf = tree_.leaf_switch(r.dst).index;
    const std::uint32_t H = tree_.common_ancestor_level(src_leaf, dst_leaf);
    if (H == 0) {
      out.granted = true;  // resolved inside the leaf crossbar, cycle 0
      continue;
    }
    Token t;
    t.request_index = i;
    t.labels = CircuitLabels::start(tree_, src_leaf, dst_leaf);
    t.src_leaf = src_leaf;
    t.dst_leaf = dst_leaf;
    t.ancestor = H;
    out.path.ancestor_level = H;
    tokens.push_back(t);
  }

  std::uint64_t cycle = 0;
  auto any_active = [&] {
    for (const Token& t : tokens) {
      if (active(t)) return true;
    }
    return false;
  };

  while (any_active()) {
    FT_REQUIRE(cycle < options_.max_cycles);

    // ---- Phase 0: release waiting tokens whose backoff has elapsed. ------
    for (Token& t : tokens) {
      if (t.state == Token::State::kWaiting && cycle >= t.relaunch_at) {
        t.state = Token::State::kAscending;
      }
    }

    // ---- Phase 1: collect intents against the cycle-start state. --------
    // Ascending: per-switch list of contenders. Descending: per-channel.
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<std::size_t>>
        up_intents;  // (level, switch) -> token indices
    std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>,
             std::vector<std::size_t>>
        down_intents;  // (level, δ_h, port) -> token indices

    for (std::size_t ti = 0; ti < tokens.size(); ++ti) {
      Token& t = tokens[ti];
      if (t.state == Token::State::kAscending) {
        up_intents[{t.level, t.labels.sigma()}].push_back(ti);
      } else if (t.state == Token::State::kDescending) {
        const std::uint32_t h = t.ancestor - 1 - t.down_claimed;
        down_intents[{h, t.down_switches[h], t.ports[h]}].push_back(ti);
      }
    }

    // ---- Phase 2a: per-switch up-port arbitration. -----------------------
    struct UpMove {
      std::size_t token;
      std::uint32_t port;
    };
    std::vector<UpMove> up_moves;
    std::vector<std::size_t> casualties;

    const std::uint32_t w = tree_.parent_arity();
    for (auto& [key, contenders] : up_intents) {
      const auto [h, sw] = key;
      // Priority = request order (lower index wins), as a hardware daisy
      // chain would resolve it. Each token scans the cycle-start free ports
      // starting from its own offset: 0 on the first attempt (plain
      // greedy), rotated by the attempt count on retries so a relaunched
      // token does not deterministically re-walk into the same conflict.
      std::vector<bool> taken(w, false);
      for (const std::size_t ti : contenders) {
        Token& t = tokens[ti];
        std::uint32_t offset = 0;
        switch (options_.policy) {
          case PortPolicy::kFirstFit:
          case PortPolicy::kRoundRobin:
          // The token protocol carries no global capacity signal; the
          // balanced policies degrade to their oblivious scan rules here.
          case PortPolicy::kBalanced:
          case PortPolicy::kBalancedRR:
            offset = (t.attempts - 1) % w;
            break;
          case PortPolicy::kRandom:
          case PortPolicy::kBalancedRandom:
            offset = static_cast<std::uint32_t>(rng_.below(w));
            break;
        }
        std::optional<std::uint32_t> pick;
        for (std::uint32_t i = 0; i < w; ++i) {
          const std::uint32_t p = (offset + i) % w;
          if (!taken[p] && state.ulink(h, sw, p)) {
            pick = p;
            break;
          }
        }
        if (pick) {
          taken[*pick] = true;
          up_moves.push_back(UpMove{ti, *pick});
        } else {
          casualties.push_back(ti);
          RequestOutcome& out = report.result.outcomes[t.request_index];
          out.reason = RejectReason::kNoLocalUplink;
          out.fail_level = t.level;
        }
      }
    }

    // ---- Phase 2b: per-channel down arbitration. -------------------------
    struct DownMove {
      std::size_t token;
      std::uint32_t level;
      std::uint64_t delta;
      std::uint32_t port;
    };
    std::vector<DownMove> down_moves;

    for (auto& [key, claimants] : down_intents) {
      const auto [h, delta, port] = key;
      std::size_t winner_slot = claimants.size();  // none
      if (state.dlink(h, delta, port)) winner_slot = 0;
      for (std::size_t k = 0; k < claimants.size(); ++k) {
        if (k == winner_slot) {
          down_moves.push_back(DownMove{claimants[k], h, delta, port});
        } else {
          Token& t = tokens[claimants[k]];
          casualties.push_back(claimants[k]);
          RequestOutcome& out = report.result.outcomes[t.request_index];
          out.reason = RejectReason::kDownConflict;
          out.fail_level = h;
        }
      }
    }

    // ---- Phase 3: commit moves. ------------------------------------------
    for (const UpMove& mv : up_moves) {
      Token& t = tokens[mv.token];
      state.set_ulink(t.level, t.labels.sigma(), mv.port, false);
      t.up_switches.push_back(t.labels.sigma());
      t.down_switches.push_back(t.labels.delta());
      t.ports.push_back(mv.port);
      t.labels.ascend(tree_, mv.port);
      ++t.level;
      if (t.level == t.ancestor) t.state = Token::State::kDescending;
    }
    for (const DownMove& mv : down_moves) {
      Token& t = tokens[mv.token];
      state.set_dlink(mv.level, mv.delta, mv.port, false);
      ++t.down_claimed;
      if (mv.level == 0) {
        t.state = Token::State::kGranted;
        RequestOutcome& out = report.result.outcomes[t.request_index];
        out.granted = true;
        out.reason = RejectReason::kNone;  // may have failed earlier attempts
        out.path.ports = t.ports;
        report.setup_latency.push_back(cycle + 1 - t.start_cycle);
      }
    }
    for (std::size_t ti : casualties) {
      Token& t = tokens[ti];
      t.state = Token::State::kTearingDown;
      ++report.teardowns;
      // Leaf channels stay claimed while a retry is still possible; they are
      // released at final death below.
    }

    // ---- Phase 4: teardown wave — one channel per cycle, newest first. ---
    for (Token& t : tokens) {
      if (t.state != Token::State::kTearingDown) continue;
      if (t.down_claimed > 0) {
        --t.down_claimed;
        const std::uint32_t h = t.ancestor - 1 - t.down_claimed;
        state.set_dlink(h, t.down_switches[h], t.ports[h], true);
      } else if (!t.ports.empty()) {
        const auto h = static_cast<std::uint32_t>(t.ports.size() - 1);
        state.set_ulink(h, t.up_switches[h], t.ports[h], true);
        t.ports.pop_back();
        t.up_switches.pop_back();
        t.down_switches.pop_back();
      } else if (std::optional<std::uint64_t> delay =
                     relaunch_delay(t.attempts, cycle)) {
        // Relaunch from the source — next cycle by default, or after the
        // RetryPolicy's backoff when one is configured.
        ++t.attempts;
        ++report.retries;
        if (*delay > 0) {
          t.state = Token::State::kWaiting;
          t.relaunch_at = cycle + 1 + *delay;
        } else {
          t.state = Token::State::kAscending;
        }
        t.level = 0;
        t.labels = CircuitLabels::start(tree_, t.src_leaf, t.dst_leaf);
        // start_cycle is intentionally NOT reset: setup latency measures
        // injection-to-grant, teardown and relaunch time included.
      } else {
        t.state = Token::State::kDead;
        leaves.release(requests[t.request_index].src,
                       requests[t.request_index].dst);
        RequestOutcome& out = report.result.outcomes[t.request_index];
        out.path.ports.clear();
        out.path.ancestor_level = 0;
      }
    }

    // Cycle boundary: the fabric now holds every channel claimed up to and
    // including this cycle, minus the teardown wave's releases.
    if (options_.telemetry) {
      sample_link_state(state, cycle, *options_.telemetry);
    }

    ++cycle;
  }

  report.cycles = cycle;
  return report;
}

}  // namespace ftsched
