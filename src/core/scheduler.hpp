// Scheduler — common interface of all connection schedulers.
//
// A scheduler takes a batch of requests and the current global LinkState and
// decides, for each request, whether a circuit can be established; granted
// circuits remain occupied in the LinkState afterwards (callers reset() or
// release_path() to reuse the state). Leaf injection/ejection channels are
// tracked by the scheduler itself via LeafTracker, since LinkState only
// covers inter-switch levels.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.hpp"
#include "linkstate/link_state.hpp"
#include "obs/sink.hpp"
#include "topology/fat_tree.hpp"
#include "util/bitvec.hpp"
#include "util/child_divider.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ftsched {

/// How a scheduler picks one port from an availability vector.
enum class PortPolicy : std::uint8_t {
  kFirstFit,    ///< lowest-numbered free port (the paper's priority selector)
  kRandom,      ///< uniform among free ports
  kRoundRobin,  ///< first free port at or after a rotating pointer
  // Fault-aware variants: weight each free port by the residual capacity of
  // its subtree plane (LinkState column-free counters, maintained as
  // circuits come and go and cables fail/repair) and pick within the
  // max-weight tie set. On a pristine fabric with a symmetric load they
  // reduce to their oblivious counterparts' tie-break rule; on a damaged
  // one they steer circuits off the depleted planes.
  kBalanced,        ///< max residual plane capacity, lowest port on ties
  kBalancedRR,      ///< max capacity, rotating pointer within the tie set
  kBalancedRandom,  ///< max capacity, seeded uniform draw within the tie set
};

std::string_view to_string(PortPolicy policy);

/// Policies that keep a per-row rotating pointer (the rr hint rule).
constexpr bool policy_uses_hint(PortPolicy policy) {
  return policy == PortPolicy::kRoundRobin || policy == PortPolicy::kBalancedRR;
}

/// Occupancy of the PE<->leaf-switch channels, which LinkState does not
/// model. Under a (partial) permutation these never conflict; under hot-spot
/// or many-to-one workloads the ejection channel serializes access to a PE.
class LeafTracker {
 public:
  LeafTracker() = default;
  explicit LeafTracker(std::uint64_t node_count)
      : injection_(node_count), ejection_(node_count) {}

  std::uint64_t node_count() const { return injection_.size(); }

  bool try_claim(NodeId src, NodeId dst) {
    if (!can_claim(src, dst)) return false;
    injection_.set(src);
    ejection_.set(dst);
    return true;
  }

  /// Whether try_claim(src, dst) would succeed, without claiming.
  bool can_claim(NodeId src, NodeId dst) const {
    FT_REQUIRE(src < injection_.size() && dst < ejection_.size());
    return !injection_.test(src) && !ejection_.test(dst);
  }

  void release(NodeId src, NodeId dst) {
    FT_REQUIRE(src < injection_.size() && dst < ejection_.size());
    FT_REQUIRE(injection_.test(src) && ejection_.test(dst));
    injection_.reset(src);
    ejection_.reset(dst);
  }

  /// Releases every claim: O(node_count).
  void reset() {
    injection_.reset_all();
    ejection_.reset_all();
  }

  /// Releases the listed claims, held or not: O(claims). Listing every
  /// claim made since the tracker was last empty empties it again.
  void reset(std::span<const Request> claims) {
    for (const Request& r : claims) {
      injection_.reset(r.src);
      ejection_.reset(r.dst);
    }
  }

 private:
  BitVec injection_;
  BitVec ejection_;
};

/// A request that needs inter-switch channels: its leaf switches and meet
/// level H >= 1.
struct Admitted {
  std::uint64_t src_leaf = 0;
  std::uint64_t dst_leaf = 0;
  std::uint32_t ancestor = 0;
};

/// The batch front end every per-request scheduler shares, with the scratch
/// it owns. For each request it stubs the outcome's path, claims the leaf
/// channels and resolves what needs no inter-switch channel: a busy leaf
/// (kLeafBusy) and a circuit inside one leaf crossbar (H == 0, granted).
class BatchAdmission {
 public:
  /// One batch in flight. When it goes out of scope every leaf claim of
  /// the batch is released through the batch's own requests, or by
  /// clearing the tracker's bit words when there are no more words than
  /// requests, so a batch costs O(batch) however large the fabric.
  class [[nodiscard]] Batch {
   public:
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    ~Batch() { owner_->end(requests_); }

   private:
    friend class BatchAdmission;
    Batch(BatchAdmission* owner, std::span<const Request> requests)
        : owner_(owner), requests_(requests) {}

    BatchAdmission* owner_;
    std::span<const Request> requests_;
  };

  /// Arms the front end for `requests` on `tree`; the leaf tracker is
  /// re-sized only when the fabric's PE count changed.
  Batch begin(const FatTree& tree, std::span<const Request> requests) {
    if (leaves_.node_count() != tree.node_count()) {
      leaves_ = LeafTracker(tree.node_count());
    }
    divm_ = tree.child_divider();
    return Batch(this, requests);
  }

  /// Returns the request's leaf switches and meet level, or nullopt when
  /// `out` is already final. An admitted request's outcome carries
  /// ancestor_level = H; a scheduler that rejects it later calls release().
  [[gnu::always_inline]] std::optional<Admitted> admit(const Request& r,
                                                       RequestOutcome& out) {
    out.path.src = r.src;
    out.path.dst = r.dst;
    if (!leaves_.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      return std::nullopt;
    }
    const std::uint64_t src_leaf = divm_(r.src);
    const std::uint64_t dst_leaf = divm_(r.dst);
    const std::uint32_t H = divm_.meet(src_leaf, dst_leaf);
    if (H == 0) {
      out.granted = true;  // circuit lives inside one leaf crossbar
      return std::nullopt;
    }
    out.path.ancestor_level = H;
    return Admitted{src_leaf, dst_leaf, H};
  }

  /// Undoes admit() for a request rejected later: returns its leaf claims
  /// and drops its path. The caller records the reason and fail_level.
  void release(const Request& r, RequestOutcome& out) {
    leaves_.release(r.src, r.dst);
    out.path.ports.clear();
    out.path.ancestor_level = 0;
  }

 private:
  void end(std::span<const Request> requests) {
    if (requests.size() < BitVec::word_count(leaves_.node_count())) {
      leaves_.reset(requests);
    } else {
      leaves_.reset();
    }
  }

  LeafTracker leaves_;
  ChildDivider divm_{1};
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string_view name() const = 0;

  /// Schedules `requests` against `state`. Granted circuits stay occupied in
  /// `state`; rejected requests leave no residual occupancy (any partial
  /// allocation is rolled back before returning unless a scheduler option
  /// explicitly says otherwise).
  ///
  /// The batch bookkeeping lives here, once, around each scheduler's own
  /// schedule_batch(): with a sink attached, the batch is counted, a
  /// `sched.batch` span wraps it, and every outcome then reports exactly
  /// once — grants by ancestor level, rejections by first-failure level and
  /// reason (admission failures land on level 0), leaf-channel claim
  /// failures additionally on their own counter.
  ScheduleResult schedule(const FatTree& tree,
                          std::span<const Request> requests,
                          LinkState& state) {
    if (!sink_) return schedule_batch(tree, requests, state);
    sink_->batch(requests.size());
    const obs::ScopedSpan batch_span = sink_->span(name(), "sched.batch");
    ScheduleResult result = schedule_batch(tree, requests, state);
    for (const RequestOutcome& out : result.outcomes) {
      if (out.granted) {
        sink_->grant(out.path.ancestor_level);
      } else {
        sink_->reject(out.fail_level, static_cast<std::uint8_t>(out.reason),
                      out.reason == RejectReason::kLeafBusy);
      }
    }
    return result;
  }

  /// Re-seeds any internal randomness (port policies, tie breaking).
  virtual void reseed(std::uint64_t seed) = 0;

  /// Attaches an instrumentation sink (null detaches). The sink must
  /// outlive every schedule() call made while attached. Sinks observe,
  /// never steer: an attached sink does not change any scheduling decision.
  void set_sink(obs::Sink* sink) { sink_ = sink; }

 protected:
  /// The scheduler's own batch: one outcome per request, in input order.
  /// It reports its in-batch work (picks, popcounts, rollbacks) to `sink_`;
  /// the outcomes are reported by schedule().
  virtual ScheduleResult schedule_batch(const FatTree& tree,
                                        std::span<const Request> requests,
                                        LinkState& state) = 0;

  obs::Sink* sink_ = nullptr;
};

}  // namespace ftsched
