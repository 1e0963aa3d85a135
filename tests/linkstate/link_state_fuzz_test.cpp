// Model-based fuzz: drive LinkState with thousands of random valid
// operations while mirroring every bit in a trivially-correct std::map
// model, cross-checking queries and counters after each step. Catches
// word-packing, trim, and counter-drift bugs that example-based tests miss.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "linkstate/link_state.hpp"
#include "util/rng.hpp"

namespace ftsched {
namespace {

struct Mirror {
  // (level, switch, port) -> available, per direction.
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>, bool> u;
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>, bool> d;
};

class LinkStateFuzzTest
    : public testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(LinkStateFuzzTest, AgreesWithNaiveModel) {
  const auto [levels, w] = GetParam();
  const FatTree tree = FatTree::symmetric(levels, w);
  LinkState state(tree);
  Mirror mirror;
  for (std::uint32_t h = 0; h + 1 < levels; ++h) {
    for (std::uint64_t sw = 0; sw < tree.switches_at(h); ++sw) {
      for (std::uint32_t p = 0; p < w; ++p) {
        mirror.u[{h, sw, p}] = true;
        mirror.d[{h, sw, p}] = true;
      }
    }
  }
  Xoshiro256ss rng(0xf022 + levels * 131 + w);

  auto model_first_common = [&](std::uint32_t h, std::uint64_t a,
                                std::uint64_t b) -> std::int64_t {
    for (std::uint32_t p = 0; p < w; ++p) {
      if (mirror.u[{h, a, p}] && mirror.d[{h, b, p}]) return p;
    }
    return -1;
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t h =
        static_cast<std::uint32_t>(rng.below(levels - 1));
    const std::uint64_t a = rng.below(tree.switches_at(h));
    const std::uint64_t b = rng.below(tree.switches_at(h));
    const std::uint32_t p = static_cast<std::uint32_t>(rng.below(w));

    switch (rng.below(6)) {
      case 0: {  // toggle a ulink
        const bool target = !mirror.u[{h, a, p}];
        state.set_ulink(h, a, p, target);
        mirror.u[{h, a, p}] = target;
        break;
      }
      case 1: {  // toggle a dlink
        const bool target = !mirror.d[{h, b, p}];
        state.set_dlink(h, b, p, target);
        mirror.d[{h, b, p}] = target;
        break;
      }
      case 2: {  // occupy a common free port if one exists
        const std::int64_t port = model_first_common(h, a, b);
        if (port < 0) break;
        state.occupy(h, a, b, static_cast<std::uint32_t>(port));
        mirror.u[{h, a, static_cast<std::uint32_t>(port)}] = false;
        mirror.d[{h, b, static_cast<std::uint32_t>(port)}] = false;
        break;
      }
      case 3: {  // release a pair occupied on both sides
        if (mirror.u[{h, a, p}] || mirror.d[{h, b, p}]) break;
        state.release(h, a, b, p);
        mirror.u[{h, a, p}] = true;
        mirror.d[{h, b, p}] = true;
        break;
      }
      case 4: {  // query cross-check: first/next/count/nth
        const std::int64_t expected = model_first_common(h, a, b);
        const auto got = state.first_available_port(h, a, b);
        if (expected < 0) {
          ASSERT_FALSE(got.has_value()) << step;
        } else {
          ASSERT_TRUE(got.has_value()) << step;
          ASSERT_EQ(*got, static_cast<std::uint32_t>(expected)) << step;
        }
        std::uint32_t model_count = 0;
        for (std::uint32_t q = 0; q < w; ++q) {
          if (mirror.u[{h, a, q}] && mirror.d[{h, b, q}]) ++model_count;
        }
        const LinkState::LevelView view = state.level_view(h);
        const LinkState::LevelView::Row row = view.and_row(a, b);
        ASSERT_EQ(view.popcount(row), model_count) << step;
        if (model_count > 0) {
          const auto idx =
              static_cast<std::uint32_t>(rng.below(model_count));
          std::uint32_t seen = 0;
          std::uint32_t expect_port = 0;
          for (std::uint32_t q = 0; q < w; ++q) {
            if (mirror.u[{h, a, q}] && mirror.d[{h, b, q}]) {
              if (seen == idx) {
                expect_port = q;
                break;
              }
              ++seen;
            }
          }
          ASSERT_EQ(view.nth_set(row, idx), expect_port) << step;
        }
        break;
      }
      case 5: {  // local view + counters + audit
        std::uint32_t model_local = 0;
        std::int64_t model_first = -1;
        for (std::uint32_t q = 0; q < w; ++q) {
          if (mirror.u[{h, a, q}]) {
            ++model_local;
            if (model_first < 0) model_first = q;
          }
        }
        const LinkState::LevelView view = state.level_view(h);
        ASSERT_EQ(view.popcount(view.ulink_row(a)), model_local) << step;
        const std::uint32_t got = view.first_set(view.ulink_row(a));
        ASSERT_EQ(got != LinkState::kNoPort, model_first >= 0) << step;
        if (model_first >= 0) {
          ASSERT_EQ(got, static_cast<std::uint32_t>(model_first)) << step;
        }
        std::uint64_t occupied_u = 0;
        for (const auto& [key, available] : mirror.u) {
          if (std::get<0>(key) == h && !available) ++occupied_u;
        }
        ASSERT_EQ(state.occupied_ulinks_at(h), occupied_u) << step;
        ASSERT_TRUE(state.audit().ok()) << step;
        break;
      }
    }
  }

  // Terminal full sweep: every bit agrees.
  for (std::uint32_t h = 0; h + 1 < levels; ++h) {
    for (std::uint64_t sw = 0; sw < tree.switches_at(h); ++sw) {
      for (std::uint32_t p = 0; p < w; ++p) {
        ASSERT_EQ(state.ulink(h, sw, p), (mirror.u[{h, sw, p}]));
        ASSERT_EQ(state.dlink(h, sw, p), (mirror.d[{h, sw, p}]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinkStateFuzzTest,
    testing::Values(std::tuple{2u, 4u}, std::tuple{3u, 4u},
                    std::tuple{2u, 48u},  // partial last word
                    std::tuple{2u, 64u},  // exactly one word
                    std::tuple{4u, 3u}),
    [](const testing::TestParamInfo<std::tuple<std::uint32_t, std::uint32_t>>&
           param_info) {
      return std::string("l")
          .append(std::to_string(std::get<0>(param_info.param)))
          .append("w")
          .append(std::to_string(std::get<1>(param_info.param)));
    });

}  // namespace
}  // namespace ftsched
