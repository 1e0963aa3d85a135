#include "core/turnback_scheduler.hpp"

#include <array>
#include <vector>

#include "linkstate/transaction.hpp"
#include "topology/circuit_labels.hpp"

namespace ftsched {

TurnbackScheduler::TurnbackScheduler(TurnbackOptions options)
    : options_(options) {
  FT_REQUIRE(options_.max_probes >= 1);
  name_ = "turnback-first-fit-p" + std::to_string(options_.max_probes);
}

namespace {

/// DFS driver for one request. Holds up-channels along the current branch
/// through a Transaction and releases them entry-by-entry on backtrack.
/// The branch's labels are one cursor per level: labels_[h] stands at σ_h
/// and δ_h for the ports held below h, so neither the walk nor the descent
/// ever recomposes a label.
class TurnbackSearch {
 public:
  TurnbackSearch(const FatTree& tree, LinkState& state,
                 const Admitted& admitted, const TurnbackOptions& options,
                 const obs::Sink* sink,
                 std::vector<std::vector<std::uint32_t>>& scratch)
      : tree_(tree),
        state_(state),
        tx_(state),
        ancestor_(admitted.ancestor),
        options_(options),
        sink_(sink),
        scratch_(scratch) {
    labels_[0] =
        CircuitLabels::start(tree, admitted.src_leaf, admitted.dst_leaf);
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
      tx_.occupy_up(h, labels_[h].sigma(), p);  // hold tentatively
      if (sink_) sink_->pick(h, p);
      ports_.push_back(p);
      labels_[h + 1] = labels_[h];
      labels_[h + 1].ascend(tree_, p);
      const std::uint32_t res = descend_from(h + 1);
      if (res == kSuccess) return kSuccess;
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
      if (!state_.dlink(h, labels_[h].delta(), ports_[h])) {
        note_failure(RejectReason::kDownConflict, h);
        return h;  // only levels <= h can repair this conflict
      }
    }
    // Free path found: occupy the downward channels (upward ones are already
    // held along the DFS branch).
    for (std::uint32_t h = ancestor_; h-- > 0;) {
      tx_.occupy_down(h, labels_[h].delta(), ports_[h]);
    }
    return kSuccess;
  }

  const std::vector<std::uint32_t>& candidate_ports(std::uint32_t h) {
    std::vector<std::uint32_t>& candidates = scratch_[h];
    candidates.clear();
    const LinkState::LevelView view = state_.level_view(h);
    const LinkState::LevelView::Row row = view.ulink_row(labels_[h].sigma());
    for (std::uint32_t p = view.first_set(row); p != LinkState::kNoPort;
         p = view.next_set(row, p + 1)) {
      candidates.push_back(p);
    }
    return candidates;
  }

  void note_failure(RejectReason reason, std::uint32_t level) {
    reason_ = reason;
    fail_level_ = level;
  }

  const FatTree& tree_;
  LinkState& state_;  // read-only queries; all mutation goes through tx_
  Transaction tx_;
  std::uint32_t ancestor_;
  const TurnbackOptions& options_;
  const obs::Sink* sink_;
  std::vector<std::vector<std::uint32_t>>& scratch_;

  std::array<CircuitLabels, kMaxTreeLevels> labels_;  // σ_h/δ_h along branch
  DigitVec ports_;
  std::uint32_t probes_left_ = 0;
  RejectReason reason_ = RejectReason::kNoLocalUplink;
  std::uint32_t fail_level_ = 0;
};

}  // namespace

ScheduleResult TurnbackScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  const auto batch = admission_.begin(tree, requests);
  candidate_scratch_.resize(tree.levels() - 1);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestOutcome& out = result.outcomes[i];
    const auto admitted = admission_.admit(requests[i], out);
    if (!admitted) continue;
    TurnbackSearch search(tree, state, *admitted, options_, sink_,
                          candidate_scratch_);
    if (search.run(out.path.ports, out.reason, out.fail_level)) {
      out.granted = true;
    } else {
      admission_.release(requests[i], out);
    }
  }
  return result;
}

}  // namespace ftsched
