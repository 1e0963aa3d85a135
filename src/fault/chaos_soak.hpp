// ChaosSoak — seeded fault/traffic interleavings with invariant gates.
//
// The degradation sweeps sample MTBF/MTTR processes; the soak engine is the
// adversarial complement: a seeded script of fail / repair / open / close
// operations driven through the FabricManager on the DES clock, with the
// full invariant bundle (LinkState audit, fault masking, residue
// re-derivation, circuit conservation) re-checked every epoch. Soaks are the
// robustness gate for the fault stack: any state leak a revocation or repair
// path introduces shows up as a residue mismatch within one epoch.
//
// Every operation carries its own payload (embedded workload seed, pick
// selector) and decides legality against the live fabric at execution time —
// a fail of an already-dead cable or a close on an empty fabric is skipped,
// not an error. That makes ANY subset of a script a legal run, which is what
// lets the shrinker reduce a violating interleaving to a minimal reproducer
// by plain ddmin-style chunk removal. Reproducers round-trip through a
// line-oriented script format (write_soak_script / parse_soak_script) so a
// CI soak failure is a committed artifact, replayable with
// `ftsched soak --replay=FILE`.
//
// Everything is deterministic per (tree, config): no wall clock, no global
// RNG, identical op streams and verdicts run-to-run and machine-to-machine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fabric_manager.hpp"
#include "topology/fat_tree.hpp"
#include "util/result.hpp"

namespace ftsched {

enum class SoakOpKind : std::uint8_t { kOpen, kClose, kFail, kRepair };

std::string_view to_string(SoakOpKind kind);

/// One chaos operation. Self-contained: kOpen regenerates its batch from
/// `draw`, kClose re-picks victims from `draw`, so replaying a subset of a
/// script reproduces each op's effect from the fabric state alone.
struct SoakOp {
  SimTime time = 0;
  SoakOpKind kind = SoakOpKind::kOpen;
  CableId cable;            ///< kFail / kRepair target
  std::uint32_t count = 0;  ///< kOpen: requests; kClose: circuits to close
  std::uint64_t draw = 0;   ///< kOpen: workload seed; kClose: pick seed

  friend bool operator==(const SoakOp&, const SoakOp&) = default;
};

struct SoakConfig {
  std::string scheduler = "levelwise-balanced";
  std::uint64_t seed = 2006;
  std::uint64_t ops = 4096;    ///< chaos ops to generate
  SimTime max_gap = 3;         ///< max tick gap between consecutive ops
  std::uint32_t open_max = 32; ///< max requests per kOpen (>= 1)
  std::uint32_t close_max = 8; ///< max circuits per kClose (>= 1)
  /// Relative op-kind weights. The defaults keep the fabric churning: more
  /// opens than closes so circuits accumulate, symmetric fail/repair
  /// pressure so damage oscillates instead of saturating.
  std::uint32_t open_weight = 5;
  std::uint32_t close_weight = 3;
  std::uint32_t fail_weight = 2;
  std::uint32_t repair_weight = 2;
  std::size_t epoch_ops = 64;  ///< invariant-check cadence in executed ops
  RetryPolicy retry = RetryPolicy::backoff(1, 2.0, 8, 4);
  std::size_t max_pending = 256;
  bool shrink = true;          ///< shrink a violating run to a reproducer
  obs::Sink* sink = nullptr;  ///< instrumentation (primary run only)
  /// Extra invariant evaluated at every epoch after the built-in bundle.
  /// Tests inject synthetic violations here and watch the shrinker converge
  /// without corrupting real state.
  std::function<Status(const FabricManager&)> extra_check;
};

struct SoakReport {
  bool ok = true;
  std::string violation;        ///< first failing check's message
  std::uint64_t violation_op = 0;  ///< executed-op count at detection
  std::uint64_t executed = 0;
  std::uint64_t skipped = 0;    ///< ops dropped by execution-time legality
  std::uint64_t epochs = 0;     ///< invariant bundles evaluated
  std::uint64_t shrink_runs = 0;  ///< replays the shrinker spent
  FabricStats stats;            ///< final fabric counters
  std::size_t open_at_end = 0;
  /// Minimal violating op list (empty when ok or shrinking disabled).
  std::vector<SoakOp> reproducer;
};

class ChaosSoak {
 public:
  /// The tree must outlive the soak.
  ChaosSoak(const FatTree& tree, SoakConfig config);

  /// The deterministic op script this config generates.
  std::vector<SoakOp> generate() const;

  /// generate() + execute; on violation (and config.shrink) reduces the
  /// script to a minimal reproducer, re-executing subsets as needed.
  SoakReport run();

  /// Executes a fixed op list (a reproducer) — no generation, no shrinking.
  SoakReport replay(const std::vector<SoakOp>& ops);

 private:
  SoakReport execute(const std::vector<SoakOp>& ops, bool primary) const;
  std::vector<SoakOp> shrink(std::vector<SoakOp> ops,
                             std::uint64_t& runs) const;

  const FatTree& tree_;
  SoakConfig config_;
};

/// Everything a reproducer script carries: enough to rebuild the tree and
/// the soak configuration and replay the exact op list.
struct SoakScript {
  FatTreeParams tree;
  SoakConfig config;
  std::vector<SoakOp> ops;
};

/// Renders a self-contained reproducer script (round-trips through
/// parse_soak_script). The flight ring and extra_check hooks are runtime
/// attachments and are not serialized.
std::string write_soak_script(const FatTreeParams& tree,
                              const SoakConfig& config,
                              const std::vector<SoakOp>& ops);

/// Parses a reproducer script; fails with a line-diagnosed message on
/// malformed input.
Result<SoakScript> parse_soak_script(const std::string& text);

}  // namespace ftsched
