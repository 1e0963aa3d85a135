// LocalAdaptiveScheduler — the paper's baseline ("conventional scheduler").
//
// Models adaptive distributed scheduling with local routing information
// (paper §1, refs [7,8]): while ascending, each switch picks an up-port that
// is free LOCALLY — it cannot see the destination side's Dlink state. Once
// the common ancestor is reached the downward path is forced (Theorem 2),
// and a request dies if any forced downward channel is already occupied —
// the paper's Fig. 4(a) failure mode. The schedulability gap between this
// and LevelwiseScheduler is the paper's headline result.
//
// `release_on_fail` controls whether a dying request's partial allocation is
// torn down before the next request is processed (circuit-switched setup
// teardown, the default) or left held (modeling switches that do not reclaim
// reservations within the scheduling window) — an ablation in DESIGN.md.
#pragma once

#include "core/scheduler.hpp"
#include "linkstate/transaction.hpp"

namespace ftsched {

struct LocalOptions {
  /// The paper evaluates "greedy or random local scheduling": greedy =
  /// first-fit on the local free-port vector, random = uniform among them.
  PortPolicy policy = PortPolicy::kFirstFit;
  bool release_on_fail = true;
  std::uint64_t seed = 0x10ca1ULL;
};

class LocalAdaptiveScheduler final : public Scheduler {
 public:
  explicit LocalAdaptiveScheduler(LocalOptions options = {});

  std::string_view name() const override { return name_; }

  void reseed(std::uint64_t seed) override { rng_ = Xoshiro256ss(seed); }

  const LocalOptions& options() const { return options_; }

 private:
  ScheduleResult schedule_batch(const FatTree& tree,
                                std::span<const Request> requests,
                                LinkState& state) override;

  /// Inlined into the ascent loop, like LevelwiseScheduler::pick_port.
  [[gnu::always_inline]] inline std::uint32_t pick_local_port(
      const LinkState& state, const LinkState::LevelView& rows,
      std::uint64_t src_sw, std::vector<std::uint32_t>& rr_hint);

  /// kInstrumented=false compiles to exactly the uninstrumented pick, so a
  /// detached sink costs a branch in pick_local_port(), not a slower
  /// codepath.
  template <bool kInstrumented>
  [[gnu::always_inline]] inline std::uint32_t pick_local_port_impl(
      const LinkState& state, const LinkState::LevelView& rows,
      std::uint64_t src_sw, std::vector<std::uint32_t>& rr_hint);

  LocalOptions options_;
  Xoshiro256ss rng_;
  std::string name_;

  /// Per-batch round-robin cursors (one row per switch at each level),
  /// hoisted out of schedule() so steady-state batches allocate nothing.
  std::vector<std::vector<std::uint32_t>> rr_hint_by_level_;
  BatchAdmission admission_;  ///< batch front end and its leaf tracker
  Transaction tx_;            ///< rebound for every request
};

}  // namespace ftsched
