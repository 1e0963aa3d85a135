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

  /// Applies the port policy to the AND row of `rows` (the current level's
  /// view of `state`); LinkState::kNoPort when the row is zero. Inlined
  /// into both loops, so the first-fit pick is the view's AND + ctz in
  /// place.
  [[gnu::always_inline]] inline std::uint32_t pick_port(
      const LinkState& state, const LinkState::LevelView& rows,
      std::uint64_t src_sw, std::uint64_t dst_sw,
      std::vector<std::uint32_t>& rr_hint);

  /// kInstrumented=false compiles to exactly the uninstrumented pick
  /// (direct returns, no popcount) so a detached sink costs a branch in
  /// pick_port(), not a slower codepath. kInstrumented adds the popcount
  /// and pick events. The round-robin hint update follows
  /// docs/PERFORMANCE.md "Round-robin hint rule".
  template <bool kInstrumented>
  [[gnu::always_inline]] inline std::uint32_t pick_port_impl(
      const LinkState& state, const LinkState::LevelView& rows,
      std::uint64_t src_sw, std::uint64_t dst_sw,
      std::vector<std::uint32_t>& rr_hint);

  LevelwiseOptions options_;
  Xoshiro256ss rng_;
  std::string name_;

  // --- Per-batch scratch, reused across schedule() calls -------------------
  // The paper's pipelined hardware derives each request's Theorem-1 labels
  // once and streams them level by level; the software mirror of that is a
  // batch precomputation pass into flat arrays (below) swept level-major,
  // plus an incremental label update in place of FatTree::ascend's full
  // mixed-radix decompose/compose. Writing σ_h = Pval_h + w^h·⌊src/m^h⌋
  // (and δ_h with dst), where Pval_h is the value of the port-digit prefix
  // P_{h-1}…P_0, the Theorem-1 digit shift becomes
  //   Pval ← port + w·Pval,  src_rest ← src_rest / m,  dst_rest ← dst_rest / m
  // — three integer ops per level instead of two decompose/compose rounds.
  // The vectors keep their capacity batch to batch, so the steady-state hot
  // path allocates nothing (including `rr_hint`, hoisted here from the old
  // per-call local).
  std::vector<std::uint64_t> sigma_;     ///< σ_h per request (current level)
  std::vector<std::uint64_t> delta_;     ///< δ_h per request (current level)
  std::vector<std::uint64_t> pval_;      ///< Pval_h per request
  std::vector<std::uint64_t> src_rest_;  ///< ⌊src_leaf / m^h⌋ per request
  std::vector<std::uint64_t> dst_rest_;  ///< ⌊dst_leaf / m^h⌋ per request
  std::vector<std::uint32_t> ancestor_;  ///< H per request
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
