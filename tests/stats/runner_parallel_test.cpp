// The parallel runner's determinism contract: run_experiment at any thread
// count produces an ExperimentPoint bit-identical to the sequential run —
// same Summary (all five fields), same totals, same per-level rejection
// vector, same telemetry series down to the kept-sample ordinals. This is
// what lets CI pin bench baselines at --threads=1 and still trust numbers
// measured at any width.
#include "stats/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/link_telemetry.hpp"
#include "obs/sched_probe.hpp"
#include "obs/sink.hpp"

namespace ftsched {
namespace {

struct FullPoint {
  ExperimentPoint point;
  std::vector<std::uint64_t> probe_reject_by_reason;
  std::vector<std::uint64_t> probe_grant_by_ancestor;
  std::uint64_t probe_picks_total = 0;
  std::vector<obs::LinkUtilizationPoint> series;
};

FullPoint run_at(const FatTree& tree, const std::string& scheduler,
                 std::size_t reps, std::size_t threads) {
  obs::SchedulerProbe probe;
  obs::LinkTelemetry telemetry(obs::LinkTelemetryOptions{2, 4});
  ExperimentConfig config;
  config.scheduler = scheduler;
  config.repetitions = reps;
  config.threads = threads;
  config.allow_residual = scheduler == "local-hold";
  obs::Sink sink{.probe = &probe};
  config.sink = &sink;
  config.telemetry = &telemetry;
  FullPoint full;
  full.point = run_experiment(tree, config);
  full.probe_reject_by_reason = probe.reject_by_reason();
  full.probe_grant_by_ancestor = probe.grant_by_ancestor();
  for (const auto& per_level : probe.pick_by_level()) {
    for (std::uint64_t picks : per_level) full.probe_picks_total += picks;
  }
  full.series = telemetry.series();
  return full;
}

void expect_identical(const FullPoint& a, const FullPoint& b) {
  EXPECT_EQ(a.point.schedulability.count, b.point.schedulability.count);
  EXPECT_EQ(a.point.schedulability.mean, b.point.schedulability.mean);
  EXPECT_EQ(a.point.schedulability.min, b.point.schedulability.min);
  EXPECT_EQ(a.point.schedulability.max, b.point.schedulability.max);
  EXPECT_EQ(a.point.schedulability.stddev, b.point.schedulability.stddev);
  EXPECT_EQ(a.point.total_requests, b.point.total_requests);
  EXPECT_EQ(a.point.total_granted, b.point.total_granted);
  EXPECT_EQ(a.point.total_rejected, b.point.total_rejected);
  EXPECT_EQ(a.point.reject_by_level, b.point.reject_by_level);
  EXPECT_EQ(a.probe_reject_by_reason, b.probe_reject_by_reason);
  EXPECT_EQ(a.probe_grant_by_ancestor, b.probe_grant_by_ancestor);
  EXPECT_EQ(a.probe_picks_total, b.probe_picks_total);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].t, b.series[i].t);
    EXPECT_EQ(a.series[i].up_occupied, b.series[i].up_occupied);
    EXPECT_EQ(a.series[i].down_occupied, b.series[i].down_occupied);
  }
}

class RunnerParallel : public ::testing::TestWithParam<const char*> {};

TEST_P(RunnerParallel, BitIdenticalAcrossThreadCounts) {
  const FatTree tree = FatTree::symmetric(3, 4);
  const FullPoint sequential = run_at(tree, GetParam(), 13, 1);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const FullPoint parallel = run_at(tree, GetParam(), 13, threads);
    expect_identical(sequential, parallel);
  }
}

// Schedulers from every family the registry exposes, including the random-
// policy variants whose per-repetition RNG streams are the easiest thing for
// a sloppy fan-out to corrupt.
INSTANTIATE_TEST_SUITE_P(Schedulers, RunnerParallel,
                         ::testing::Values("levelwise", "levelwise-random",
                                           "local", "local-random", "dmodk"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RunnerParallel, MoreThreadsThanRepetitionsClampsCleanly) {
  const FatTree tree = FatTree::symmetric(2, 8);
  const FullPoint sequential = run_at(tree, "levelwise", 3, 1);
  const FullPoint parallel = run_at(tree, "levelwise", 3, 16);
  expect_identical(sequential, parallel);
}

TEST(RunnerParallel, TracerForcesSequentialButKeepsResults) {
  const FatTree tree = FatTree::symmetric(2, 8);
  obs::TraceWriter tracer;
  ExperimentConfig config;
  config.repetitions = 4;
  config.threads = 4;
  obs::Sink sink{.trace = &tracer};
  config.sink = &sink;
  const ExperimentPoint traced = run_experiment(tree, config);
  config.sink = nullptr;
  config.threads = 1;
  const ExperimentPoint plain = run_experiment(tree, config);
  EXPECT_EQ(traced.total_granted, plain.total_granted);
  EXPECT_EQ(traced.schedulability.mean, plain.schedulability.mean);
  EXPECT_GT(tracer.size(), 0u);
}

}  // namespace
}  // namespace ftsched
