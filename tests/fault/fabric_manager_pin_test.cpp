// FabricManager outcomes pinned to literals. The retry queue's watermark and
// the connection manager's owner index are pure speed-ups: every grant,
// retry, victim and wake-up must come out exactly as the plain scans made
// them. Each case renders the FabricStats counters, the DES event count, a
// digest of recovery_latency and retry_latency, and the victims in
// revocation order (their REVOKED flight ids), and compares the rendering
// with a literal recorded from the scanning implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fabric_manager.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sink.hpp"
#include "topology/path.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// "count/FNV-1a" of an ordered sequence of integers.
template <typename T>
std::string digest(const std::vector<T>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const T v : values) hash = fnv1a(hash, static_cast<std::uint64_t>(v));
  return std::to_string(values.size()) + "/" + std::to_string(hash);
}

std::string render(const FabricManager& fabric, const Simulator& sim,
                   const obs::FlightRing& ring) {
  const FabricStats& s = fabric.stats();
  std::string out = "submitted=" + std::to_string(s.submitted) +
                    " first=" + std::to_string(s.first_attempt_granted) +
                    " ever=" + std::to_string(s.ever_granted) +
                    " grants=" + std::to_string(s.grants) +
                    " fails=" + std::to_string(s.fail_events) +
                    " repairs=" + std::to_string(s.repair_events) +
                    " victims=" + std::to_string(s.victims) +
                    " recovered=" + std::to_string(s.recovered) +
                    " retries=" + std::to_string(s.retries) +
                    " shed=" + std::to_string(s.shed) +
                    " closed=" + std::to_string(s.closed) +
                    " permanent=" + std::to_string(s.permanent_rejects) +
                    " abandoned=" + std::to_string(s.abandoned) +
                    " open=" + std::to_string(fabric.open_circuits()) +
                    " events=" + std::to_string(sim.events_processed()) +
                    " recovery=" + digest(s.recovery_latency) +
                    " retry=" + digest(s.retry_latency);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<std::uint64_t> revoked;
  for (const obs::FlightEvent& e : ring.snapshot()) {
    if (e.kind == obs::FlightEventKind::kRevoked) revoked.push_back(e.req);
  }
  return out + " revoked=" + digest(revoked);
}

/// Two permutation batches on FT(3,4) under a dense MTBF timeline, every
/// event deep-verified.
std::string timeline_run(const RetryPolicy& policy) {
  const FatTree tree = FatTree::symmetric(3, 4);
  Simulator sim;
  obs::FlightRecorder recorder(1, 1 << 16);
  obs::Sink sink{.flight = &recorder};
  FabricOptions options;
  options.retry = policy;
  options.horizon = 200;
  options.deep_verify = true;
  options.sink = &sink;
  FabricManager fabric(tree, sim, options);
  Xoshiro256ss rng(11);
  fabric.install(FaultTimeline::from_mtbf(tree, 120.0, 40.0, 200, 13));
  fabric.submit(generate_pattern(tree, TrafficPattern::kRandomPermutation,
                                 rng, WorkloadOptions{}),
                0);
  fabric.submit(generate_pattern(tree, TrafficPattern::kRandomPermutation,
                                 rng, WorkloadOptions{}),
                60);
  sim.run();
  return render(fabric, sim, recorder.ring(0));
}

/// The immediate chaos surface: at every fourth tick, closes and cable
/// failures interleave inside one tick, and every failure hits a channel an
/// open circuit holds; repairs follow eight ticks later. Choices are made
/// against the live state when each event runs.
std::string chaos_run(const RetryPolicy& policy) {
  const FatTree tree = FatTree::symmetric(3, 4);
  Simulator sim;
  obs::FlightRecorder recorder(1, 1 << 16);
  obs::Sink sink{.flight = &recorder};
  FabricOptions options;
  options.retry = policy;
  options.horizon = 200;
  options.deep_verify = true;
  options.sink = &sink;
  FabricManager fabric(tree, sim, options);
  Xoshiro256ss workload(5);
  fabric.submit(generate_pattern(tree, TrafficPattern::kRandomPermutation,
                                 workload, WorkloadOptions{}),
                0);
  fabric.submit(generate_pattern(tree, TrafficPattern::kRandomPermutation,
                                 workload, WorkloadOptions{}),
                40);
  Xoshiro256ss rng(17);
  const auto close_one = [&] {
    const std::vector<ConnectionId> ids = fabric.open_ids();
    if (!ids.empty()) (void)fabric.close(ids[rng.below(ids.size())]);
  };
  const auto fail_one = [&] {
    const std::vector<ConnectionId> ids = fabric.open_ids();
    if (ids.empty()) return;
    const Path* path = fabric.connections().find(ids[rng.below(ids.size())]);
    ChannelBuffer channels;
    const std::size_t n = expand_channels(tree, *path, channels);
    if (n == 0) return;
    const CableId cable = channels[rng.below(n)].cable;
    if (fabric.cable_is_failed(cable)) return;
    fabric.fail_cable(cable);
    sim.schedule_in(8, [&fabric, cable] {
      if (fabric.cable_is_failed(cable)) fabric.repair_cable(cable);
    });
  };
  for (SimTime t = 2; t <= 120; t += 4) {
    sim.schedule_at(t, fail_one);
    sim.schedule_at(t, close_one);
    sim.schedule_at(t, fail_one);
    sim.schedule_at(t, fail_one);
    sim.schedule_at(t, close_one);
  }
  sim.run();
  return render(fabric, sim, recorder.ring(0));
}

TEST(FabricManagerPinned, DefaultBackoffTimeline) {
  EXPECT_EQ(timeline_run(FabricOptions{}.retry),
            "submitted=128 first=61 ever=72 grants=203 fails=160 "
            "repairs=135 victims=164 recovered=131 retries=962 shed=0 "
            "closed=0 permanent=4 abandoned=85 open=39 events=1259 "
            "recovery=131/2505828070087087644 "
            "retry=142/11385454444078370011 "
            "revoked=164/11467979984512979328");
}

TEST(FabricManagerPinned, ImmediateTimeline) {
  EXPECT_EQ(timeline_run(RetryPolicy::immediate(4)),
            "submitted=128 first=69 ever=69 grants=132 fails=160 "
            "repairs=135 victims=113 recovered=63 retries=499 shed=0 "
            "closed=0 permanent=109 abandoned=0 open=19 events=796 "
            "recovery=63/5909078502032459909 retry=0/14695981039346656037 "
            "revoked=113/11513322931620613677");
}

TEST(FabricManagerPinned, FixedSameTickFailCloseInterleaving) {
  EXPECT_EQ(chaos_run(RetryPolicy::fixed(1)),
            "submitted=128 first=63 ever=78 grants=184 fails=76 "
            "repairs=76 victims=116 recovered=106 retries=837 shed=0 "
            "closed=60 permanent=60 abandoned=0 open=8 events=1065 "
            "recovery=106/6368462788684356012 "
            "retry=121/3247078916651821418 "
            "revoked=116/15686612993204340938");
}

TEST(FabricManagerPinned, ImmediateSameTickFailCloseInterleaving) {
  // Delay-0 wake-ups land in the tick that queued them, between the
  // tick's remaining fail/close events: the order of same-tick drains.
  EXPECT_EQ(chaos_run(RetryPolicy::immediate(4)),
            "submitted=128 first=87 ever=87 grants=175 fails=78 "
            "repairs=78 victims=116 recovered=88 retries=364 shed=0 "
            "closed=58 permanent=69 abandoned=0 open=1 events=594 "
            "recovery=88/14940819771778464293 "
            "retry=0/14695981039346656037 revoked=116/3415779862348965675");
}

}  // namespace
}  // namespace ftsched
