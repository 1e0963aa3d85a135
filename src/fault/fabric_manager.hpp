// FabricManager — centralized recovery engine over the DES kernel.
//
// The paper's scheduler is a centralized fabric manager; this class is the
// production loop around it. It owns a ConnectionManager (live circuits +
// LinkState with the fault overlay) and a registry scheduler, and reacts to
// three event kinds on one Simulator:
//   * batch arrival  — same-timestamp requests are scheduled as ONE batch
//     through the real scheduler, so a fault-free run is bit-identical to
//     the one-shot experiment engine (the degradation baseline anchor);
//   * cable failure  — every granted circuit crossing the cable (Theorem-1/2
//     digit test) is revoked, its surviving channels released, and the
//     victim re-enqueued through the RetryPolicy with a fresh retry budget;
//   * cable repair   — channels nobody holds become available again.
// Rejected requests (and victims) wait in the RetryQueue; same-timestamp
// retries drain as one batch in admission order, woken by one DES event per
// future retry tick (a delay-0 retry brings its own). Everything is
// deterministic per (workload, seed, timeline): no wall clock, no global
// RNG, no iteration over unordered containers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/connection_manager.hpp"
#include "core/registry.hpp"
#include "des/simulator.hpp"
#include "fault/fault_timeline.hpp"
#include "fault/retry_policy.hpp"
#include "fault/retry_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "util/contracts.hpp"

namespace ftsched {

struct FabricOptions {
  std::string scheduler = "levelwise";
  std::uint64_t seed = 2006;
  RetryPolicy retry = RetryPolicy::backoff(1, 2.0, 64, 8);
  std::size_t max_pending = 0;  ///< RetryQueue admission gate; 0 = unlimited
  SimTime horizon = 1000;       ///< retries past this are abandoned, not queued
  /// Re-derive the full LinkState (faults + open circuits) from scratch and
  /// compare after every event — the revocation-releases-exactly-the-
  /// victim's-channels residue check. For tests and chaos runs; O(fabric)
  /// per event.
  bool deep_verify = false;
  /// Instrumentation (null = detached). The manager copies it once, and the
  /// copy's clock stamps every event: the lifecycle ledger (every tracked
  /// request gets the stable id `id_base + seq`, so dumps from different
  /// repetitions never collide) and the fault spans on the DES track. The
  /// manager's scheduler is not attached: its wall-clock batch spans would
  /// make the trace differ from run to run.
  obs::Sink* sink = nullptr;
};

struct FabricStats {
  std::uint64_t submitted = 0;
  std::uint64_t first_attempt_granted = 0;  ///< granted in their arrival batch
  std::uint64_t ever_granted = 0;           ///< distinct requests granted >= once
  std::uint64_t grants = 0;                 ///< total grants incl. re-grants
  std::uint64_t fail_events = 0;
  std::uint64_t repair_events = 0;
  std::uint64_t victims = 0;    ///< circuits revoked by cable failures
  std::uint64_t recovered = 0;  ///< victims re-granted later
  std::uint64_t retries = 0;    ///< re-attempts actually scheduled
  std::uint64_t wakeups = 0;    ///< retry-drain events put on the DES
  std::uint64_t shed = 0;       ///< dropped by the admission gate
  std::uint64_t closed = 0;     ///< circuits released through close()
  std::uint64_t permanent_rejects = 0;  ///< retry budget exhausted
  std::uint64_t abandoned = 0;          ///< retry would land past the horizon
  /// Victim revocation → re-grant latencies in ticks, grant order.
  std::vector<double> recovery_latency;
  /// Submit → grant latencies in ticks for grants that needed waiting
  /// (> 0 by construction; first-attempt grants contribute nothing).
  std::vector<double> retry_latency;
};

class FabricManager {
 public:
  /// The tree and simulator must outlive the manager. Aborts on an unknown
  /// scheduler name (configuration is static, like the bench grids).
  FabricManager(const FatTree& tree, Simulator& sim, FabricOptions options);
  FabricManager(const FabricManager&) = delete;
  FabricManager& operator=(const FabricManager&) = delete;

  /// Reseeds the scheduler and the retry-jitter stream — the degradation
  /// engine's per-repetition hook, mirroring run_experiment's derivation.
  void reseed(std::uint64_t seed);

  /// Schedules every fail/repair event of the timeline. All event times
  /// must be within the horizon. Call before Simulator::run().
  void install(const FaultTimeline& timeline);

  /// Schedules a batch arrival at time `t` (>= sim.now()).
  void submit(std::vector<Request> requests, SimTime t);

  // --- Immediate-mode chaos surface ----------------------------------------
  // ChaosSoak drives fail/repair/close from its own scheduled events, making
  // legality decisions against the live state at execution time (so any
  // subset of a chaos script replays legally — the property the interleaving
  // shrinker depends on). install() remains the declarative alternative.

  /// Applies a cable failure at the simulator's current time: victims are
  /// revoked and re-enqueued exactly as a timeline fail event would. The
  /// cable must not already be failed.
  void fail_cable(const CableId& cable) { on_fail(cable); }

  /// Repairs a cable at the simulator's current time. It must be failed.
  void repair_cable(const CableId& cable) { on_repair(cable); }

  bool cable_is_failed(const CableId& cable) const {
    return failed_cables_.count(cable) != 0;
  }

  /// Releases an open circuit's channels. Fails on an unknown id (a circuit
  /// that was already revoked or closed).
  Status close(ConnectionId id);

  /// Ids of all open circuits in grant order.
  std::vector<ConnectionId> open_ids() const;

  const FabricStats& stats() const { return stats_; }
  const ConnectionManager& connections() const { return manager_; }
  std::size_t open_circuits() const { return manager_.active_count(); }
  std::size_t pending_retries() const { return queue_.pending(); }

  /// First-attempt batch schedulability — at fault rate 0 this equals the
  /// one-shot scheduler run on the same workload and seed, bit for bit.
  double first_attempt_ratio() const;

  /// Distinct requests granted at least once / submitted.
  double ever_granted_ratio() const;

  /// Circuits still open / submitted — the end-of-run service level.
  double open_ratio() const;

  /// recovered / victims; 1.0 when there were no victims.
  double recovery_success_ratio() const;

  /// The invariant bundle: LinkState audit, no open circuit crosses a
  /// faulted cable, the connection manager's owner-index residue
  /// (ConnectionManager::audit_owners), the full-state residue
  /// re-derivation (faults first, then every open circuit — must reproduce
  /// the live state exactly), and circuit conservation (grants == open +
  /// closed + victims). O(open circuits · H + fabric). Returns the
  /// first violation instead of aborting — the chaos soak engine keeps the
  /// process alive to shrink the violating interleaving.
  Status check_invariants() const;

  /// check_invariants() with abort-on-violation semantics. Cheap enough to
  /// call at end of run; deep_verify runs it after every event.
  void verify_invariants() const;

  /// Exports fault.* counters and latency histograms.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  void run_batch(std::vector<RetryEntry> entries);
  void on_fail(const CableId& cable);
  void on_repair(const CableId& cable);
  void handle_reject(RetryEntry entry);
  void drain_due();

  const FatTree& tree_;
  Simulator& sim_;
  FabricOptions options_;
  obs::Sink sink_;  // the options' sink, with this manager's clock
  ConnectionManager manager_;
  std::unique_ptr<Scheduler> scheduler_;
  RetryQueue queue_;
  Xoshiro256ss jitter_rng_;
  FabricStats stats_;
  std::set<CableId> failed_cables_;  // ordered: deterministic re-derivation
  std::set<SimTime> wake_ticks_;  // future ticks holding a retry wake-up
  // id-ordered so invariant sweeps walk open circuits in grant order.
  std::map<ConnectionId, std::uint64_t> conn_seq_;
  std::vector<bool> granted_ever_;  // indexed by seq
  std::uint64_t next_seq_ = 0;
};

}  // namespace ftsched
