#include "core/registry.hpp"

#include <array>
#include <string_view>

#include "core/levelwise_scheduler.hpp"
#include "core/local_scheduler.hpp"
#include "core/matching_scheduler.hpp"
#include "core/static_scheduler.hpp"
#include "core/turnback_scheduler.hpp"

namespace ftsched {

namespace {

using Ptr = std::unique_ptr<Scheduler>;

Ptr levelwise(std::uint64_t seed, PortPolicy policy,
              LevelwiseOptions::Order order =
                  LevelwiseOptions::Order::kLevelMajor) {
  LevelwiseOptions options;
  options.policy = policy;
  options.order = order;
  options.seed = seed;
  return std::make_unique<LevelwiseScheduler>(options);
}

Ptr local(std::uint64_t seed, PortPolicy policy, bool release_on_fail = true) {
  LocalOptions options;
  options.policy = policy;
  options.release_on_fail = release_on_fail;
  options.seed = seed;
  return std::make_unique<LocalAdaptiveScheduler>(options);
}

struct Entry {
  std::string_view name;
  Ptr (*make)(std::uint64_t seed);
};

/// Every registered scheduler, in the stable order scheduler_names() lists.
constexpr std::array<Entry, 14> kRegistry{{
    {"levelwise",
     [](std::uint64_t s) { return levelwise(s, PortPolicy::kFirstFit); }},
    {"levelwise-random",
     [](std::uint64_t s) { return levelwise(s, PortPolicy::kRandom); }},
    {"levelwise-rr",
     [](std::uint64_t s) { return levelwise(s, PortPolicy::kRoundRobin); }},
    {"levelwise-balanced",
     [](std::uint64_t s) { return levelwise(s, PortPolicy::kBalanced); }},
    {"levelwise-balanced-rr",
     [](std::uint64_t s) { return levelwise(s, PortPolicy::kBalancedRR); }},
    {"levelwise-balanced-random",
     [](std::uint64_t s) {
       return levelwise(s, PortPolicy::kBalancedRandom);
     }},
    {"levelwise-reqmajor",
     [](std::uint64_t s) {
       return levelwise(s, PortPolicy::kFirstFit,
                        LevelwiseOptions::Order::kRequestMajor);
     }},
    {"local", [](std::uint64_t s) { return local(s, PortPolicy::kFirstFit); }},
    {"local-random",
     [](std::uint64_t s) { return local(s, PortPolicy::kRandom); }},
    {"local-rr",
     [](std::uint64_t s) { return local(s, PortPolicy::kRoundRobin); }},
    {"local-hold",
     [](std::uint64_t s) { return local(s, PortPolicy::kFirstFit, false); }},
    {"turnback",
     [](std::uint64_t) -> Ptr { return std::make_unique<TurnbackScheduler>(); }},
    {"matching2",
     [](std::uint64_t) -> Ptr { return std::make_unique<MatchingScheduler>(); }},
    {"dmodk",
     [](std::uint64_t) -> Ptr {
       return std::make_unique<StaticDestinationScheduler>();
     }},
}};

}  // namespace

Result<std::unique_ptr<Scheduler>> make_scheduler(const std::string& name,
                                                  std::uint64_t seed) {
  for (const Entry& entry : kRegistry) {
    if (entry.name == name) return entry.make(seed);
  }
  std::string known;
  for (const Entry& entry : kRegistry) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  return Status::error("unknown scheduler '" + name + "'; known: " + known);
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

}  // namespace ftsched
