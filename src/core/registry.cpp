#include "core/registry.hpp"

#include "core/levelwise_scheduler.hpp"
#include "core/local_scheduler.hpp"
#include "core/matching_scheduler.hpp"
#include "core/static_scheduler.hpp"
#include "core/turnback_scheduler.hpp"

namespace ftsched {

Result<std::unique_ptr<Scheduler>> make_scheduler(const std::string& name,
                                                  std::uint64_t seed) {
  using Ptr = std::unique_ptr<Scheduler>;
  if (name == "levelwise") {
    LevelwiseOptions options;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "levelwise-random") {
    LevelwiseOptions options;
    options.policy = PortPolicy::kRandom;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "levelwise-rr") {
    LevelwiseOptions options;
    options.policy = PortPolicy::kRoundRobin;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "levelwise-balanced") {
    LevelwiseOptions options;
    options.policy = PortPolicy::kBalanced;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "levelwise-balanced-rr") {
    LevelwiseOptions options;
    options.policy = PortPolicy::kBalancedRR;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "levelwise-balanced-random") {
    LevelwiseOptions options;
    options.policy = PortPolicy::kBalancedRandom;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "levelwise-reqmajor") {
    LevelwiseOptions options;
    options.order = LevelwiseOptions::Order::kRequestMajor;
    options.seed = seed;
    return Ptr(new LevelwiseScheduler(options));
  }
  if (name == "local") {
    LocalOptions options;
    options.seed = seed;
    return Ptr(new LocalAdaptiveScheduler(options));
  }
  if (name == "local-random") {
    LocalOptions options;
    options.policy = PortPolicy::kRandom;
    options.seed = seed;
    return Ptr(new LocalAdaptiveScheduler(options));
  }
  if (name == "local-rr") {
    LocalOptions options;
    options.policy = PortPolicy::kRoundRobin;
    options.seed = seed;
    return Ptr(new LocalAdaptiveScheduler(options));
  }
  if (name == "local-hold") {
    LocalOptions options;
    options.release_on_fail = false;
    options.seed = seed;
    return Ptr(new LocalAdaptiveScheduler(options));
  }
  if (name == "turnback") {
    return Ptr(new TurnbackScheduler());
  }
  if (name == "matching2") {
    return Ptr(new MatchingScheduler());
  }
  if (name == "dmodk") {
    return Ptr(new StaticDestinationScheduler());
  }
  return Status::error("unknown scheduler '" + name +
                       "'; known: levelwise, levelwise-random, levelwise-rr, "
                       "levelwise-balanced, levelwise-balanced-rr, "
                       "levelwise-balanced-random, levelwise-reqmajor, local, "
                       "local-random, local-rr, local-hold, turnback, "
                       "matching2, dmodk");
}

std::vector<std::string> scheduler_names() {
  return {"levelwise",   "levelwise-random", "levelwise-rr",
          "levelwise-balanced", "levelwise-balanced-rr",
          "levelwise-balanced-random",
          "levelwise-reqmajor", "local",     "local-random",
          "local-rr",    "local-hold",       "turnback",
          "matching2",   "dmodk"};
}

}  // namespace ftsched
