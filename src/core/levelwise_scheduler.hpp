// LevelwiseScheduler — the paper's contribution (Section 4, Fig. 7).
//
// Scheduling proceeds level by level over the whole batch. For a request at
// level h with source-side switch σ_h and destination-side switch δ_h, the
// available-port vector is Ulink(h, σ_h) AND Dlink(h, δ_h); a port chosen
// from it is guaranteed conflict-free on BOTH the upward and (by Theorem 2)
// the downward traversal of level h. A request whose AND is all-zero is
// rejected at that level. σ/δ propagate upward with the Theorem-1 digit
// shift; by construction they coincide at the request's common-ancestor
// level, at which point the full circuit exists.
//
// Options cover the paper's fixed choices and the ablations DESIGN.md lists:
// port policy (the paper's hardware uses a first-available priority
// selector), processing order (the pseudo-code and the pipelined hardware
// are level-major; request-major is the software-friendly variant), and
// whether a rejected request's lower-level allocations are released (the
// hardware as described has no rollback path; release is what a software
// scheduler would do before retrying). Note that under level-major order the
// release choice cannot change the current batch's grants — a request's
// lower-level channels can only be re-wanted by decisions already made — so
// it only affects residual occupancy seen by later batches.
#pragma once

#include "core/scheduler.hpp"
#include "linkstate/transaction.hpp"
#include "topology/circuit_labels.hpp"

namespace ftsched {

struct LevelwiseOptions {
  PortPolicy policy = PortPolicy::kFirstFit;

  enum class Order : std::uint8_t {
    kLevelMajor,    ///< all requests at level h before any at level h+1 (paper)
    kRequestMajor,  ///< each request fully scheduled before the next
  };
  Order order = Order::kLevelMajor;

  /// Release the partial allocations of rejected requests before returning.
  bool release_rejected = true;

  std::uint64_t seed = 0x5eedULL;
};

class LevelwiseScheduler final : public Scheduler {
 public:
  explicit LevelwiseScheduler(LevelwiseOptions options = {});

  std::string_view name() const override { return name_; }

  void reseed(std::uint64_t seed) override { rng_ = Xoshiro256ss(seed); }

  const LevelwiseOptions& options() const { return options_; }

 private:
  ScheduleResult schedule_batch(const FatTree& tree,
                                std::span<const Request> requests,
                                LinkState& state) override;

  ScheduleResult schedule_level_major(const FatTree& tree,
                                      std::span<const Request> requests,
                                      LinkState& state);
  ScheduleResult schedule_request_major(const FatTree& tree,
                                        std::span<const Request> requests,
                                        LinkState& state);

  LevelwiseOptions options_;
  Xoshiro256ss rng_;
  std::string name_;

  // --- Per-batch scratch, reused across schedule() calls -------------------
  // The paper's pipelined hardware derives each request's Theorem-1 labels
  // once and streams them level by level; the software mirror of that is one
  // label cursor per request (topology/circuit_labels.hpp), started at
  // admission and stepped by each level's sweep. The vectors keep their
  // capacity batch to batch, so the steady-state hot path allocates nothing.
  std::vector<CircuitLabels> labels_;  ///< σ_h / δ_h per request
  /// In-flight request indices, compacted in place each level (stable order,
  /// so pick order — and with it every RNG/sink stream — matches a sweep
  /// over all requests in batch order exactly).
  std::vector<std::size_t> live_;
  std::vector<std::uint32_t> rr_hint_;   ///< level-major: current level's rows
  std::vector<std::vector<std::uint32_t>> rr_hint_by_level_;  ///< req-major
  BatchAdmission admission_;  ///< batch front end and its leaf tracker
  Transaction tx_;            ///< request-major: rebound for every request
};

}  // namespace ftsched
