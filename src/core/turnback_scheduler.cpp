#include "core/turnback_scheduler.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "core/label_math.hpp"
#include "linkstate/transaction.hpp"

namespace ftsched {

TurnbackScheduler::TurnbackScheduler(TurnbackOptions options)
    : options_(options), rng_(options.seed) {
  FT_REQUIRE(options_.max_probes >= 1);
  name_ = "turnback-" + std::string(to_string(options_.policy)) + "-p" +
          std::to_string(options_.max_probes);
}

namespace {

/// DFS driver for one request. Holds up-channels along the current branch
/// through a Transaction and releases them entry-by-entry on backtrack.
/// Labels along the branch are carried incrementally (see label_math.hpp):
/// the σ and Pval stacks grow/shrink with the DFS, and the per-request
/// ⌊leaf/m^h⌋ remainders are fixed arrays filled once in the constructor,
/// so neither the walk nor the descent ever decomposes a label.
class TurnbackSearch {
 public:
  TurnbackSearch(const FatTree& tree, LinkState& state, std::uint64_t src_leaf,
                 std::uint64_t dst_leaf, std::uint32_t ancestor,
                 const TurnbackOptions& options, Xoshiro256ss& rng,
                 const obs::Sink* sink,
                 std::vector<std::vector<std::uint32_t>>& scratch)
      : state_(state),
        tx_(state),
        ancestor_(ancestor),
        options_(options),
        rng_(rng),
        sink_(sink),
        scratch_(scratch),
        w_(tree.parent_arity()),
        wpow_(parent_arity_powers(tree)) {
    const std::uint64_t m = tree.child_arity();
    std::uint64_t s = src_leaf;
    std::uint64_t d = dst_leaf;
    for (std::uint32_t h = 0; h <= ancestor_; ++h) {
      src_rest_[h] = s;
      dst_rest_[h] = d;
      s /= m;
      d /= m;
    }
    sigma_.push_back(src_leaf);
    pval_.push_back(0);
  }

  /// On success, `ports` is filled and all channels (up and down) are
  /// occupied in the state. On failure nothing stays occupied.
  bool run(DigitVec& ports, RejectReason& reason, std::uint32_t& fail_level) {
    probes_left_ = options_.max_probes;
    reason_ = RejectReason::kNoLocalUplink;
    fail_level_ = 0;
    const std::uint32_t outcome = descend_from(0);
    if (outcome == kSuccess) {
      ports = ports_;
      tx_.commit();
      return true;
    }
    reason = reason_;
    fail_level = fail_level_;
    if (sink_) sink_->rollback(tx_.size());
    return false;  // ~Transaction releases anything still held
  }

 private:
  // descend_from returns kSuccess or the highest level whose port choice
  // could repair the failure (callers at levels above it give up
  // immediately).
  static constexpr std::uint32_t kSuccess = UINT32_MAX;

  std::uint32_t descend_from(std::uint32_t h) {
    if (h == ancestor_) return try_descent();

    const std::vector<std::uint32_t>& candidates = candidate_ports(h);
    if (sink_) {
      sink_->and_popcount(h, static_cast<std::uint32_t>(candidates.size()));
    }
    if (candidates.empty()) {
      // No locally free up-port: only a different σ_h (i.e. a choice at a
      // lower level) can help.
      note_failure(RejectReason::kNoLocalUplink, h);
      return h == 0 ? 0 : h - 1;
    }
    for (std::uint32_t p : candidates) {
      tx_.occupy_up(h, sigma_.back(), p);  // hold tentatively
      if (sink_) sink_->pick(h, p);
      ports_.push_back(p);
      pval_.push_back(p + w_ * pval_.back());
      sigma_.push_back(pval_.back() + wpow_[h + 1] * src_rest_[h + 1]);
      const std::uint32_t res = descend_from(h + 1);
      if (res == kSuccess) return kSuccess;
      sigma_.pop_back();
      pval_.pop_back();
      ports_.pop_back();
      if (sink_) sink_->rollback(1);
      tx_.release_last();
      if (probes_left_ == 0 || res < h) return res;  // cannot repair here
    }
    // All candidates exhausted; a different σ_h might still work.
    return h == 0 ? 0 : h - 1;
  }

  std::uint32_t try_descent() {
    FT_ASSERT(probes_left_ > 0);
    --probes_left_;
    for (std::uint32_t h = ancestor_; h-- > 0;) {
      if (!state_.dlink(h, delta_at(h), ports_[h])) {
        note_failure(RejectReason::kDownConflict, h);
        return h;  // only levels <= h can repair this conflict
      }
    }
    // Free path found: occupy the downward channels (upward ones are already
    // held along the DFS branch).
    for (std::uint32_t h = ancestor_; h-- > 0;) {
      tx_.occupy_down(h, delta_at(h), ports_[h]);
    }
    return kSuccess;
  }

  /// Destination-side switch at level h for the ports currently held:
  /// δ_h = Pval_h + w^h·⌊dst/m^h⌋ (Theorem 2).
  std::uint64_t delta_at(std::uint32_t h) const {
    return pval_[h] + wpow_[h] * dst_rest_[h];
  }

  const std::vector<std::uint32_t>& candidate_ports(std::uint32_t h) {
    std::vector<std::uint32_t>& candidates = scratch_[h];
    candidates.clear();
    const std::uint64_t sw = sigma_.back();
    for (auto p = state_.first_local_ulink(h, sw); p;
         p = state_.next_local_ulink(h, sw, *p + 1)) {
      candidates.push_back(*p);
    }
    if (options_.policy == PortPolicy::kRandom) {
      rng_.shuffle(candidates.begin(), candidates.end());
    }
    return candidates;
  }

  void note_failure(RejectReason reason, std::uint32_t level) {
    reason_ = reason;
    fail_level_ = level;
  }

  LinkState& state_;  // read-only queries; all mutation goes through tx_
  Transaction tx_;
  std::uint32_t ancestor_;
  const TurnbackOptions& options_;
  Xoshiro256ss& rng_;
  const obs::Sink* sink_;
  std::vector<std::vector<std::uint32_t>>& scratch_;

  std::uint64_t w_;
  std::array<std::uint64_t, kMaxTreeLevels + 1> wpow_;
  std::array<std::uint64_t, kMaxTreeLevels + 1> src_rest_{};
  std::array<std::uint64_t, kMaxTreeLevels + 1> dst_rest_{};
  SmallVec<std::uint64_t, kMaxTreeLevels> sigma_;  // σ_0 … σ_h along branch
  SmallVec<std::uint64_t, kMaxTreeLevels> pval_;   // Pval_0 … Pval_h
  DigitVec ports_;
  std::uint32_t probes_left_ = 0;
  RejectReason reason_ = RejectReason::kNoLocalUplink;
  std::uint32_t fail_level_ = 0;
};

}  // namespace

ScheduleResult TurnbackScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  ScheduleResult result;
  result.outcomes.reserve(requests.size());
  LeafTracker leaves(tree.node_count());

  const std::uint64_t m = tree.child_arity();
  candidate_scratch_.resize(tree.levels() - 1);

  for (const Request& r : requests) {
    RequestOutcome out;
    out.path = Path{r.src, r.dst, 0, {}};
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      result.outcomes.push_back(out);
      continue;
    }
    const std::uint64_t src_leaf = tree.leaf_switch(r.src).index;
    const std::uint64_t dst_leaf = tree.leaf_switch(r.dst).index;
    const std::uint32_t H = meet_level(src_leaf, dst_leaf, m);
    if (H == 0) {
      out.granted = true;
      result.outcomes.push_back(out);
      continue;
    }

    TurnbackSearch search(tree, state, src_leaf, dst_leaf, H, options_, rng_,
                          sink_, candidate_scratch_);
    DigitVec ports;
    if (search.run(ports, out.reason, out.fail_level)) {
      out.granted = true;
      out.path.ancestor_level = H;
      out.path.ports = ports;
    } else {
      leaves.release(r.src, r.dst);
    }
    result.outcomes.push_back(out);
  }
  return result;
}

}  // namespace ftsched
