#include "fault/fabric_manager.hpp"

#include <optional>
#include <utility>

#include "linkstate/imbalance.hpp"
#include "topology/path.hpp"

namespace ftsched {

namespace {

std::uint64_t jitter_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0xfab71c0ffULL;
  return splitmix64(state);
}

}  // namespace

FabricManager::FabricManager(const FatTree& tree, Simulator& sim,
                             FabricOptions options)
    : tree_(tree),
      sim_(sim),
      options_(std::move(options)),
      sink_(options_.sink ? *options_.sink : obs::Sink{}),
      manager_(tree),
      queue_(options_.max_pending),
      jitter_rng_(jitter_seed(options_.seed)) {
  auto scheduler = make_scheduler(options_.scheduler, options_.seed);
  FT_REQUIRE_MSG(scheduler.ok(), "unknown scheduler for FabricManager");
  scheduler_ = std::move(scheduler).value();
  manager_.set_sink(&sink_);
}

void FabricManager::reseed(std::uint64_t seed) {
  scheduler_->reseed(seed);
  jitter_rng_ = Xoshiro256ss(jitter_seed(seed));
}

void FabricManager::install(const FaultTimeline& timeline) {
  for (const FaultEvent& event : timeline.events()) {
    FT_REQUIRE_MSG(event.time <= options_.horizon,
                   "fault event beyond the horizon");
    const CableId cable = event.cable;
    if (event.fail) {
      sim_.schedule_at(event.time, [this, cable] { on_fail(cable); });
    } else {
      sim_.schedule_at(event.time, [this, cable] { on_repair(cable); });
    }
  }
}

void FabricManager::submit(std::vector<Request> requests, SimTime t) {
  FT_REQUIRE(t <= options_.horizon);
  std::vector<RetryEntry> entries;
  entries.reserve(requests.size());
  for (Request& r : requests) {
    RetryEntry entry;
    entry.request = r;
    entry.seq = next_seq_++;
    entry.eligible_at = t;
    entry.first_submit = t;
    sink_.ledger(obs::FlightEvent::requested(sink_.id(entry.seq), t));
    entries.push_back(entry);
  }
  stats_.submitted += entries.size();
  granted_ever_.resize(next_seq_, false);
  sim_.schedule_at(t, [this, batch = std::move(entries)]() mutable {
    run_batch(std::move(batch));
  });
}

void FabricManager::run_batch(std::vector<RetryEntry> entries) {
  if (entries.empty()) return;
  const SimTime now = sim_.now();
  std::vector<Request> requests;
  requests.reserve(entries.size());
  for (const RetryEntry& e : entries) requests.push_back(e.request);

  std::vector<std::uint64_t> flight_ids;
  if (sink_.recording()) {
    flight_ids.reserve(entries.size());
    for (const RetryEntry& e : entries) flight_ids.push_back(sink_.id(e.seq));
    sink_.now = now;
  }
  const BatchOpenResult result =
      manager_.open_batch(requests, *scheduler_, flight_ids);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    RetryEntry& entry = entries[i];
    const RequestOutcome& outcome = result.schedule.outcomes[i];
    if (outcome.granted) {
      ++stats_.grants;
      conn_seq_.emplace(*result.ids[i], entry.seq);
      if (!granted_ever_[entry.seq]) {
        granted_ever_[entry.seq] = true;
        ++stats_.ever_granted;
      }
      if (!entry.victim && entry.attempts == 0) {
        ++stats_.first_attempt_granted;
      }
      if (entry.victim) {
        ++stats_.recovered;
        const SimTime latency = now - entry.revoked_at;
        stats_.recovery_latency.push_back(static_cast<double>(latency));
        sink_.ledger(obs::FlightEvent::recovered(
            sink_.id(entry.seq), now, static_cast<std::uint32_t>(latency)));
        sink_.span("fault.recover", "fault", entry.revoked_at, latency,
                   obs::kPidDes);
      }
      if (now > entry.first_submit) {
        stats_.retry_latency.push_back(
            static_cast<double>(now - entry.first_submit));
      }
    } else {
      handle_reject(std::move(entry));
    }
  }
  if (options_.deep_verify) verify_invariants();
}

void FabricManager::handle_reject(RetryEntry entry) {
  const std::uint32_t attempt = entry.attempts + 1;
  const std::optional<std::uint64_t> delay =
      options_.retry.delay_for(attempt, jitter_rng_);
  if (!delay) {
    ++stats_.permanent_rejects;
    sink_.ledger(obs::FlightEvent::retry_shed(sink_.id(entry.seq), sim_.now(),
                                              obs::kShedBudget));
    return;
  }
  // now + delay > horizon, without the sum wrapping for a huge delay.
  const SimTime now = sim_.now();
  if (now > options_.horizon || *delay > options_.horizon - now) {
    ++stats_.abandoned;
    sink_.ledger(obs::FlightEvent::retry_shed(sink_.id(entry.seq), sim_.now(),
                                              obs::kShedHorizon));
    return;
  }
  const SimTime eligible = now + *delay;
  entry.attempts = attempt;
  entry.eligible_at = eligible;
  const std::uint64_t id = sink_.id(entry.seq);
  const bool victim = entry.victim;
  if (!queue_.admit(std::move(entry))) {
    ++stats_.shed;
    sink_.ledger(
        obs::FlightEvent::retry_shed(id, eligible, obs::kShedQueueFull));
    return;
  }
  sink_.ledger(obs::FlightEvent::retry_enqueued(
      id, eligible, static_cast<std::uint16_t>(attempt), victim));
  ++stats_.retries;
  sim_.schedule_at(eligible, [this] { drain_due(); });
}

void FabricManager::drain_due() {
  // Every due entry drains in admission order, including entries whose own
  // wake-up event has not fired yet — same-timestamp retries form one batch
  // and later duplicate wake-ups find an empty queue.
  run_batch(queue_.take_due(sim_.now()));
}

void FabricManager::on_fail(const CableId& cable) {
  ++stats_.fail_events;
  const auto [it, inserted] = failed_cables_.insert(cable);
  FT_REQUIRE_MSG(inserted, "cable failed twice without repair");
  (void)it;
  const SimTime now = sim_.now();
  sink_.instant("fault.cable_fail", "fault", now, obs::kPidDes);
  sink_.now = now;  // REVOKED events carry the failure tick
  const std::vector<Revocation> victims = manager_.fail_cable(cable);
  stats_.victims += victims.size();
  for (const Revocation& v : victims) {
    auto seq_it = conn_seq_.find(v.id);
    FT_REQUIRE(seq_it != conn_seq_.end());
    RetryEntry entry;
    entry.request = v.request;
    entry.seq = seq_it->second;
    entry.attempts = 0;  // victims were healthy: fresh retry budget
    entry.first_submit = now;
    entry.revoked_at = now;
    entry.victim = true;
    conn_seq_.erase(seq_it);
    handle_reject(std::move(entry));
  }
  if (options_.deep_verify) verify_invariants();
}

void FabricManager::on_repair(const CableId& cable) {
  ++stats_.repair_events;
  const std::size_t erased = failed_cables_.erase(cable);
  FT_REQUIRE_MSG(erased == 1, "repair of a cable that is not down");
  sink_.instant("fault.cable_repair", "fault", sim_.now(), obs::kPidDes);
  manager_.repair_cable(cable);
  if (options_.deep_verify) verify_invariants();
}

Status FabricManager::check_invariants() const {
  const LinkState& live = manager_.state();
  const Status audit = live.audit();
  if (!audit.ok()) return audit;

  // The seq ledger and the connection table must agree on what is open.
  if (conn_seq_.size() != manager_.active_count()) {
    return Status::error("connection ledger disagrees with open-circuit set");
  }
  // Circuit conservation: every grant is open, closed, or revoked — nothing
  // leaks and nothing is double-counted.
  if (stats_.grants != conn_seq_.size() + stats_.closed + stats_.victims) {
    return Status::error(
        "circuit conservation violated: grants != open + closed + victims");
  }

  // Every failed cable still masked, both channels unavailable; no open
  // circuit crosses one. Each open circuit's channels are walked once and
  // looked up in the failed set — O(open·H), independent of the manager's
  // owner index. The lowest crossed cable is reported where the per-cable
  // sweep below reaches it, so findings keep the failed set's order.
  // conn_seq_ is id-ordered, so `open` comes out sorted in grant order.
  std::vector<const Path*> open;
  open.reserve(conn_seq_.size());
  std::optional<CableId> lowest_crossed;
  ChannelBuffer channels;
  for (const auto& [id, seq] : conn_seq_) {
    const Path* path = manager_.find(id);
    if (path == nullptr) {
      return Status::error("ledgered connection id has no open circuit");
    }
    open.push_back(path);
    if (failed_cables_.empty()) continue;
    const std::size_t n = expand_channels(tree_, *path, channels);
    for (std::size_t i = 0; i < n; ++i) {
      const CableId& cable = channels[i].cable;
      if (failed_cables_.count(cable) != 0 &&
          (!lowest_crossed || cable < *lowest_crossed)) {
        lowest_crossed = cable;
      }
    }
  }
  for (const CableId& cable : failed_cables_) {
    if (!live.cable_faulted(cable.level, cable.lower_index, cable.port)) {
      return Status::error("failed cable lost its fault mark: " +
                           to_string(cable));
    }
    if (live.ulink(cable.level, cable.lower_index, cable.port) ||
        live.dlink(cable.level, cable.lower_index, cable.port)) {
      return Status::error("faulted cable advertises availability: " +
                           to_string(cable));
    }
    if (cable == lowest_crossed) {
      return Status::error("open circuit crosses a faulted cable: " +
                           to_string(cable));
    }
  }
  const Status owners = manager_.audit_owners();
  if (!owners.ok()) return owners;

  // Residue: rebuilding from scratch — faults first, then every open
  // circuit — must land on the live state exactly. This is the
  // "revocation releases exactly the victim's channels" check.
  LinkState expected(tree_);
  for (const CableId& cable : failed_cables_) {
    expected.fail_cable(cable.level, cable.lower_index, cable.port);
  }
  for (const Path* path : open) expected.occupy_path(tree_, *path);
  if (!(expected == live)) {
    return Status::error("link state residue differs from re-derivation");
  }
  return Status();
}

void FabricManager::verify_invariants() const {
  const Status status = check_invariants();
  FT_REQUIRE_MSG(status.ok(), status.message().c_str());
}

Status FabricManager::close(ConnectionId id) {
  const auto it = conn_seq_.find(id);
  if (it == conn_seq_.end()) {
    return Status::error("close of unknown connection id");
  }
  sink_.now = sim_.now();
  const Status status = manager_.close(id);
  if (!status.ok()) return status;
  conn_seq_.erase(it);
  ++stats_.closed;
  return Status();
}

std::vector<ConnectionId> FabricManager::open_ids() const {
  std::vector<ConnectionId> ids;
  ids.reserve(conn_seq_.size());
  for (const auto& [id, seq] : conn_seq_) ids.push_back(id);
  return ids;
}

void FabricManager::export_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("fault.submitted").add(stats_.submitted);
  registry.counter("fault.first_attempt_granted")
      .add(stats_.first_attempt_granted);
  registry.counter("fault.ever_granted").add(stats_.ever_granted);
  registry.counter("fault.grants").add(stats_.grants);
  registry.counter("fault.fail_events").add(stats_.fail_events);
  registry.counter("fault.repair_events").add(stats_.repair_events);
  registry.counter("fault.victims").add(stats_.victims);
  registry.counter("fault.recovered").add(stats_.recovered);
  registry.counter("fault.retries").add(stats_.retries);
  registry.counter("fault.shed").add(stats_.shed);
  registry.counter("fault.closed").add(stats_.closed);
  registry.counter("fault.permanent_rejects").add(stats_.permanent_rejects);
  registry.counter("fault.abandoned").add(stats_.abandoned);
  registry.counter("fault.open_circuits").add(manager_.active_count());
  auto& recovery = registry.histogram(
      "fault.recovery_latency", 0.0,
      static_cast<double>(options_.horizon) + 1.0, 32);
  for (double v : stats_.recovery_latency) recovery.observe(v);
  auto& retry = registry.histogram(
      "fault.retry_latency", 0.0, static_cast<double>(options_.horizon) + 1.0,
      32);
  for (double v : stats_.retry_latency) retry.observe(v);
  // Load quality of the residual fabric right now — how evenly the open
  // circuits sit on the surviving planes (fabric.imbalance.* gauges).
  export_imbalance_metrics(measure_imbalance(manager_.state()), registry);
}

double FabricManager::first_attempt_ratio() const {
  if (stats_.submitted == 0) return 1.0;
  return static_cast<double>(stats_.first_attempt_granted) /
         static_cast<double>(stats_.submitted);
}

double FabricManager::ever_granted_ratio() const {
  if (stats_.submitted == 0) return 1.0;
  return static_cast<double>(stats_.ever_granted) /
         static_cast<double>(stats_.submitted);
}

double FabricManager::open_ratio() const {
  if (stats_.submitted == 0) return 1.0;
  return static_cast<double>(manager_.active_count()) /
         static_cast<double>(stats_.submitted);
}

double FabricManager::recovery_success_ratio() const {
  if (stats_.victims == 0) return 1.0;
  return static_cast<double>(stats_.recovered) /
         static_cast<double>(stats_.victims);
}

}  // namespace ftsched
