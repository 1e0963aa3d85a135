// Detection property of ScheduleVerifier: on random FT(l, m, w) — slimmed
// and fattened shapes included — a clean levelwise or local-random schedule
// verifies, and every single-point corruption of it is reported. This
// checks that the verifier catches each corruption, not that it agrees with
// a second verifier.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

/// A random shape with at most a few hundred PEs; even seeds are slimmed
/// (w < m), odd ones are symmetric or fattened.
FatTreeParams random_shape(std::uint64_t seed, Xoshiro256ss& rng) {
  const auto levels = static_cast<std::uint32_t>(2 + rng.below(3));
  const std::uint32_t max_m = levels == 2 ? 12 : levels == 3 ? 6 : 4;
  const auto m = static_cast<std::uint32_t>(2 + rng.below(max_m - 1));
  const auto w = seed % 2 == 0
                     ? static_cast<std::uint32_t>(1 + rng.below(m - 1))
                     : static_cast<std::uint32_t>(m + rng.below(3));
  return FatTreeParams{levels, m, w};
}

/// One random permutation on a random shape, scheduled and left in `state`.
struct Fixture {
  Fixture(std::uint64_t seed, const char* scheduler_name)
      : rng(seed),
        tree(FatTree::create(random_shape(seed, rng)).value()),
        batch(generate_pattern(tree, TrafficPattern::kRandomPermutation, rng,
                               WorkloadOptions{})),
        state(tree) {
    auto scheduler = make_scheduler(scheduler_name, seed).value();
    result = scheduler->schedule(tree, batch, state);
  }

  Xoshiro256ss rng;
  FatTree tree;
  std::vector<Request> batch;
  LinkState state;
  ScheduleResult result;
};

std::vector<std::size_t> granted_with_channels(const ScheduleResult& result) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const RequestOutcome& o = result.outcomes[i];
    if (o.granted && o.path.ancestor_level > 0) out.push_back(i);
  }
  return out;
}

bool caught(const Fixture& f, const ScheduleResult& result,
            const LinkState& state) {
  return !ScheduleVerifier(f.tree).verify(f.batch, result, &state).ok();
}

constexpr std::uint64_t kSeeds = 48;
constexpr std::array<const char*, 2> kSchedulers = {"levelwise",
                                                    "local-random"};

TEST(VerifierProperty, CleanScheduleVerifies) {
  for (const char* name : kSchedulers) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const Fixture f(seed, name);
      const VerifyReport report =
          ScheduleVerifier(f.tree).verify(f.batch, f.result, &f.state);
      EXPECT_TRUE(report.ok()) << name << " seed " << seed << ": "
                               << report.to_string();
    }
  }
}

TEST(VerifierProperty, EverySinglePointCorruptionIsCaught) {
  std::uint64_t mutations = 0;
  for (const char* name : kSchedulers) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const Fixture f(seed, name);
      const std::vector<std::size_t> grants = granted_with_channels(f.result);
      if (grants.empty()) continue;
      Xoshiro256ss rng(seed ^ 0x5eedULL);
      const std::size_t g = grants[rng.below(grants.size())];
      const Path& path = f.result.outcomes[g].path;
      const std::uint32_t w = f.tree.parent_arity();
      const std::string where =
          std::string(name) + " seed " + std::to_string(seed);

      // Flip one port digit of a granted path.
      if (w > 1) {
        ScheduleResult flipped = f.result;
        auto& ports = flipped.outcomes[g].path.ports;
        const std::size_t h = rng.below(ports.size());
        ports[h] = static_cast<std::uint32_t>(
            (ports[h] + 1 + rng.below(w - 1)) % w);
        EXPECT_TRUE(caught(f, flipped, f.state)) << where << ": flip";
        ++mutations;
      }

      // Copy one grant's path onto another outcome.
      if (f.result.outcomes.size() > 1) {
        ScheduleResult copied = f.result;
        std::size_t other = rng.below(copied.outcomes.size() - 1);
        if (other >= g) ++other;
        copied.outcomes[other] = copied.outcomes[g];
        EXPECT_TRUE(caught(f, copied, f.state)) << where << ": copy";
        ++mutations;
      }

      // Clear one granted channel in the final state.
      {
        const std::vector<ChannelId> channels =
            ScheduleVerifier(f.tree).rederive_channels(path);
        const ChannelId& ch = channels[rng.below(channels.size())];
        const CableId& c = ch.cable;
        LinkState cleared = f.state;
        if (ch.direction == Direction::kUp) {
          cleared.set_ulink(c.level, c.lower_index, c.port, true);
        } else {
          cleared.set_dlink(c.level, c.lower_index, c.port, true);
        }
        EXPECT_TRUE(caught(f, f.result, cleared)) << where << ": clear";
        ++mutations;
      }

      // Set one stray channel: the first free channel from a random start.
      {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(f.state.link_levels()));
        const std::uint64_t rows = f.state.rows_at(level);
        const std::uint64_t start = rng.below(rows * w);
        for (std::uint64_t k = 0; k < rows * w; ++k) {
          const std::uint64_t slot = (start + k) % (rows * w);
          const std::uint64_t sw = slot / w;
          const auto port = static_cast<std::uint32_t>(slot % w);
          LinkState stray = f.state;
          if (f.state.ulink(level, sw, port)) {
            stray.set_ulink(level, sw, port, false);
          } else if (f.state.dlink(level, sw, port)) {
            stray.set_dlink(level, sw, port, false);
          } else {
            continue;
          }
          EXPECT_TRUE(caught(f, f.result, stray)) << where << ": stray";
          ++mutations;
          break;
        }
      }
    }
  }
  EXPECT_GT(mutations, 3 * kSeeds);
}

}  // namespace
}  // namespace ftsched
