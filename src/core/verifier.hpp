// Schedule verification — the safety net behind every experiment.
//
// A scheduler bug that over-grants would inflate the paper's headline metric
// silently, so every test (and optionally every bench run) pushes its
// ScheduleResult through a ScheduleVerifier. The verifier is deliberately
// INDEPENDENT of the scheduler implementation: it re-derives every granted
// path's switch/channel sequence from scratch with the Theorem-1 digit
// manipulation (its own mixed-radix arithmetic, not FatTree::ascend) and
// cross-checks the result against the topology layer's expansion. Checks:
//
//   (a) every granted path is legal and no inter-switch channel is claimed
//       by two granted circuits;
//   (b) rejected requests carry no path data, their reject metadata is
//       consistent, and (with link states supplied) any residual occupancy
//       is attributable level-by-level to the recorded failure levels —
//       a request rejected at level h can hold reservations only below h
//       (and only in the deliberate no-release ablation);
//   (c) up-path and down-path port sequences mirror per Theorem 2 (the same
//       port digit P_h is used on both sides of level h): the topology
//       layer's expansion must equal the verifier's digit re-derivation,
//       which mirrors by construction;
//   (d) the LinkState occupancy after a batch equals exactly the occupancy
//       before it plus the union of the granted circuits.
//
// Expected, recoverable failures travel through the VerifyReport — the
// verifier never aborts on a corrupted schedule, it reports every violation
// it finds (up to `max_violations`).
//
// Cost: a verifier holds its scratch — the claim bitmap over the tree's
// directed channels, the endpoint sets and check (d)'s claim planes — from
// its first verify() to its destruction, and derives each granted path once,
// level by level, for all four checks. A warm verifier allocates nothing on
// a clean batch (docs/PERFORMANCE.md §6). The scratch makes verify() a
// const call that is not safe to make concurrently: use one verifier per
// thread.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "linkstate/link_state.hpp"
#include "topology/fat_tree.hpp"
#include "topology/path.hpp"

namespace ftsched {

struct VerifyOptions {
  /// Set when the scheduler ran with release-on-reject disabled; occupancy
  /// equality (check d) is then relaxed to "granted circuits are a subset of
  /// the occupancy" plus the per-level residue accounting of check (b).
  bool allow_residual_occupancy = false;

  /// Stop collecting after this many violations (a corrupted batch can
  /// otherwise produce one diagnostic per request).
  std::size_t max_violations = 32;
};

/// Everything a verification pass found, plus coverage counters so callers
/// can assert the verifier actually looked at the batch.
struct VerifyReport {
  std::vector<std::string> violations;

  std::uint64_t requests_checked = 0;
  std::uint64_t granted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t channels_checked = 0;

  bool ok() const { return violations.empty(); }

  /// First violation, or the empty string when ok().
  const std::string& first() const;

  /// Status() when ok(), otherwise an error carrying the first violation
  /// (and the total count when there is more than one).
  Status status() const;

  /// Multi-line rendering of every violation.
  std::string to_string() const;
};

class ScheduleVerifier {
 public:
  explicit ScheduleVerifier(const FatTree& tree, VerifyOptions options = {});
  ~ScheduleVerifier();

  /// Verifies one batch. `state_after` enables the occupancy checks;
  /// `state_before` additionally enables exact before/after delta accounting
  /// (pass nullptr for a batch that started from a fresh state). Both must
  /// be sized for this verifier's tree. Reuses the verifier's scratch, so
  /// calls on one verifier must not overlap.
  VerifyReport verify(std::span<const Request> requests,
                      const ScheduleResult& result,
                      const LinkState* state_after = nullptr,
                      const LinkState* state_before = nullptr) const;

  /// Independent Theorem-1 re-derivation of the channel sequence of a
  /// (legal) path: pure label arithmetic over the request's endpoints and
  /// the tree's l, m, w, no calls into FatTree's neighbor algebra. Exposed
  /// for tests.
  std::vector<ChannelId> rederive_channels(const Path& path) const;

  /// Theorem-2 mirror check over an explicit expansion: the up-channel and
  /// down-channel at each level must carry the same port digit. verify()
  /// gets (c) from the re-derivation instead; this is for tests, which
  /// corrupt expansions directly.
  static Status check_mirror(const PathExpansion& expansion,
                             std::uint32_t ancestor_level);
  static Status check_mirror(std::span<const ChannelId> channels,
                             std::uint32_t ancestor_level);

 private:
  struct Scratch;

  const FatTree& tree_;
  VerifyOptions options_;
  mutable std::unique_ptr<Scratch> scratch_;
};

/// Single-status convenience wrapper used by tests and the experiment
/// runner: verifies and returns the first violation (if any).
Status verify_schedule(const FatTree& tree, std::span<const Request> requests,
                       const ScheduleResult& result,
                       const LinkState* state_after = nullptr,
                       const VerifyOptions& options = {});

}  // namespace ftsched
