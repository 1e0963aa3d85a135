#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ftsched {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, FifoWithinTimestamp) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(5, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 105u);
}

TEST(Simulator, EventsCanCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.schedule_in(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), 49u);
}

TEST(SimulatorDeath, SchedulingInThePastRejected) {
  Simulator sim;
  sim.schedule_at(10, [&] {
    sim.schedule_at(5, [] {});  // now() is 10
  });
  EXPECT_DEATH(sim.run(), "precondition");
}

}  // namespace
}  // namespace ftsched
