// SchedulerProbe — per-level accounting of one or more scheduling batches.
//
// The schedulers' end-of-run averages cannot say WHERE requests die or how
// contended the availability vectors are; the probe records exactly that:
// rejections by level and by reason, grants by common-ancestor level,
// AND-vector popcounts at every port pick (free-port contention), the port
// indices the policies actually choose, Transaction rollback volume, and
// LeafTracker claim failures. Attach one via Scheduler::set_probe (or
// ExperimentConfig::probe) and it accumulates across every schedule() call
// until reset(). The probe counts; it keeps no per-request record (the
// lifecycle ledger's GRANTED/REJECTED events are ConnectionManager's).
//
// Hook methods are inline unconditional increments; the null check lives at
// the call site (`if (probe_) probe_->on_...`), so an unattached scheduler
// pays one predicted branch per hook.
//
// This layer deliberately does not depend on core/: rejection reasons
// arrive as raw uint8 codes and are named only at export time through a
// ReasonNameFn (core passes ftsched::to_string(RejectReason)).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace ftsched::obs {

/// Maps a rejection-reason code to a display name at export time.
using ReasonNameFn = std::string_view (*)(std::uint8_t);

class SchedulerProbe {
 public:
  // --- Hot-path hooks -------------------------------------------------------

  void on_batch_begin(std::size_t request_count) {
    ++batches_;
    requests_ += request_count;
  }

  void on_grant(std::uint32_t ancestor_level) {
    ++grants_;
    bump(grant_by_ancestor_, ancestor_level);
  }

  /// Every rejection reports exactly once, at the level of first failure
  /// (admission-time failures report level 0), so the per-level histogram
  /// sums to the rejected-request count.
  void on_reject(std::uint32_t level, std::uint8_t reason_code) {
    ++rejects_;
    bump(reject_by_level_, level);
    bump(reject_by_reason_, reason_code);
  }

  void on_leaf_claim_fail() { ++leaf_claim_failures_; }

  /// Popcount of the availability vector a port pick selected from (the
  /// levelwise AND row, or a local scheduler's free-up-port row).
  void on_and_popcount(std::uint32_t level, std::uint32_t popcount) {
    bump2(popcount_by_level_, level, popcount);
  }

  /// The absolute port index a policy chose at `level`.
  void on_port_pick(std::uint32_t level, std::uint32_t port) {
    bump2(pick_by_level_, level, port);
  }

  /// A Transaction released `released_entries` channel allocations (a
  /// rejected request's partial circuit, or one backtracking step).
  void on_rollback(std::size_t released_entries) {
    ++rollbacks_;
    rollback_entries_ += released_entries;
  }

  // --- Accessors ------------------------------------------------------------

  std::uint64_t batches() const { return batches_; }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t rejects() const { return rejects_; }
  std::uint64_t leaf_claim_failures() const { return leaf_claim_failures_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t rollback_entries() const { return rollback_entries_; }
  const std::vector<std::uint64_t>& reject_by_level() const {
    return reject_by_level_;
  }
  const std::vector<std::uint64_t>& reject_by_reason() const {
    return reject_by_reason_;
  }
  const std::vector<std::uint64_t>& grant_by_ancestor() const {
    return grant_by_ancestor_;
  }
  /// [level][popcount] — how often a pick saw exactly `popcount` free ports.
  const std::vector<std::vector<std::uint64_t>>& popcount_by_level() const {
    return popcount_by_level_;
  }
  /// [level][port] — how often each absolute port index was chosen.
  const std::vector<std::vector<std::uint64_t>>& pick_by_level() const {
    return pick_by_level_;
  }

  void reset();

  /// Adds `other`'s counts into this probe, slot by slot (vectors grow to
  /// the larger length). Everything the probe records is a sum of per-event
  /// increments, so merging per-thread shards — in any order — equals having
  /// recorded all events into one probe. The parallel experiment runner
  /// gives each thread a private shard and folds them in repetition order.
  void merge_from(const SchedulerProbe& other);

  // --- Export ---------------------------------------------------------------

  /// Registers everything under the `sched.` prefix (counters plus one
  /// counter per level/reason/popcount/port slot; see docs/OBSERVABILITY.md
  /// for the exact names).
  void export_metrics(MetricsRegistry& registry, ReasonNameFn reason_name) const;

  /// One self-contained JSON object (not JSON-lines).
  void write_json(std::ostream& os, ReasonNameFn reason_name) const;

 private:
  static void bump(std::vector<std::uint64_t>& v, std::size_t index) {
    if (v.size() <= index) v.resize(index + 1, 0);
    ++v[index];
  }
  static void bump2(std::vector<std::vector<std::uint64_t>>& v,
                    std::size_t outer, std::size_t inner) {
    if (v.size() <= outer) v.resize(outer + 1);
    bump(v[outer], inner);
  }

  std::uint64_t batches_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t rejects_ = 0;
  std::uint64_t leaf_claim_failures_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t rollback_entries_ = 0;
  std::vector<std::uint64_t> grant_by_ancestor_;
  std::vector<std::uint64_t> reject_by_level_;
  std::vector<std::uint64_t> reject_by_reason_;
  std::vector<std::vector<std::uint64_t>> popcount_by_level_;
  std::vector<std::vector<std::uint64_t>> pick_by_level_;
};

}  // namespace ftsched::obs
