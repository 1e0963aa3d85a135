#include "obs/link_telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "linkstate/telemetry.hpp"
#include "util/json.hpp"

namespace ftsched::obs {
namespace {

std::vector<LinkLevelShape> two_level_shape() {
  // 4 rows x 2 ports at level 0, 2 rows x 4 ports at level 1.
  return {{4, 2}, {2, 4}};
}

TEST(LinkTelemetry, ConfigureIsIdempotentForSameShape) {
  LinkTelemetry t;
  EXPECT_FALSE(t.configured());
  t.configure(two_level_shape());
  EXPECT_TRUE(t.configured());
  EXPECT_EQ(t.levels(), 2u);
  t.configure(two_level_shape());  // no-op
  EXPECT_EQ(t.shape()[0].rows, 4u);
  EXPECT_EQ(t.shape()[1].ports, 4u);
}

TEST(LinkTelemetryDeath, ReconfigureWithDifferentShapeRejected) {
  LinkTelemetry t;
  t.configure(two_level_shape());
  EXPECT_DEATH(t.configure({{4, 2}}), "precondition");
}

#ifndef NDEBUG
TEST(LinkTelemetryDeath, RecordOutsideSampleRejected) {
  // record_channel guards with FT_ASSERT (hot path), which only checks in
  // non-NDEBUG builds.
  LinkTelemetry t;
  t.configure(two_level_shape());
  EXPECT_DEATH(t.record_channel(0, 0, 0, ChannelDir::kUp, true), "assertion");
}
#endif

TEST(LinkTelemetry, CountsBusyChannelsAndBuildsSeries) {
  LinkTelemetry t;
  t.configure(two_level_shape());

  t.begin_sample(0);
  t.record_channel(0, 1, 0, ChannelDir::kUp, true);
  t.record_channel(0, 1, 1, ChannelDir::kUp, true);
  t.record_channel(1, 0, 3, ChannelDir::kDown, true);
  t.record_channel(0, 2, 0, ChannelDir::kUp, false);  // idle: ignored
  t.end_sample();

  t.begin_sample(1);
  t.record_channel(0, 1, 0, ChannelDir::kUp, true);
  t.end_sample();

  EXPECT_EQ(t.samples(), 2u);
  ASSERT_EQ(t.series().size(), 2u);
  EXPECT_EQ(t.series()[0].t, 0u);
  EXPECT_EQ(t.series()[0].up_occupied[0], 2u);
  EXPECT_EQ(t.series()[0].down_occupied[1], 1u);
  EXPECT_EQ(t.series()[1].up_occupied[0], 1u);
  EXPECT_EQ(t.series()[1].down_occupied[1], 0u);

  EXPECT_EQ(t.busy_samples(0, 1, 0, ChannelDir::kUp), 2u);
  EXPECT_EQ(t.busy_samples(0, 1, 1, ChannelDir::kUp), 1u);
  EXPECT_EQ(t.busy_samples(1, 0, 3, ChannelDir::kDown), 1u);
  EXPECT_EQ(t.busy_samples(0, 2, 0, ChannelDir::kUp), 0u);

  // Level 0 has 8 up channels and 2 samples: 3 busy observations / 16.
  EXPECT_DOUBLE_EQ(t.utilization(0, ChannelDir::kUp), 3.0 / 16.0);
  EXPECT_DOUBLE_EQ(t.utilization(0, ChannelDir::kDown), 0.0);
  EXPECT_DOUBLE_EQ(t.utilization(1, ChannelDir::kDown), 1.0 / 16.0);
}

TEST(LinkTelemetry, SaturationHistogramCountsPerRowOccupancy) {
  LinkTelemetry t;
  t.configure({{2, 3}});  // 2 rows, 3 ports

  t.begin_sample(0);
  t.record_channel(0, 0, 0, ChannelDir::kUp, true);
  t.record_channel(0, 0, 1, ChannelDir::kUp, true);
  t.record_channel(0, 0, 2, ChannelDir::kUp, true);  // row 0 fully busy
  t.end_sample();                                    // row 1 idle

  const Histogram& sat = t.saturation(0, ChannelDir::kUp);
  // Exact integer bins over [0, ports + 1): occupancy n lands in bin n.
  EXPECT_EQ(sat.bins(), 4u);
  EXPECT_EQ(sat.bin(0), 1u);  // row 1: 0 busy
  EXPECT_EQ(sat.bin(3), 1u);  // row 0: all 3 busy — no overflow
  EXPECT_EQ(sat.overflow(), 0u);
  EXPECT_EQ(sat.count(), 2u);  // one observation per row per sample
}

TEST(LinkTelemetry, SeriesEveryThinsSeriesButNotAggregates) {
  LinkTelemetryOptions options;
  options.series_every = 3;
  LinkTelemetry t(options);
  t.configure({{1, 1}});
  for (std::uint64_t i = 0; i < 7; ++i) {
    t.begin_sample(i);
    t.record_channel(0, 0, 0, ChannelDir::kUp, true);
    t.end_sample();
  }
  EXPECT_EQ(t.samples(), 7u);
  // Kept samples: indices 0, 3, 6.
  ASSERT_EQ(t.series().size(), 3u);
  EXPECT_EQ(t.series()[1].t, 3u);
  // Counters and utilization still see all 7 samples.
  EXPECT_EQ(t.busy_samples(0, 0, 0, ChannelDir::kUp), 7u);
  EXPECT_DOUBLE_EQ(t.utilization(0, ChannelDir::kUp), 1.0);
}

TEST(LinkTelemetry, TopContendedOrdersByBusyThenPosition) {
  LinkTelemetry t;
  t.configure(two_level_shape());
  // Channel A busy twice, B and C once — B earlier in (level, row, port).
  for (int i = 0; i < 2; ++i) {
    t.begin_sample(static_cast<std::uint64_t>(i));
    t.record_channel(1, 1, 2, ChannelDir::kUp, true);  // A
    if (i == 0) {
      t.record_channel(0, 3, 1, ChannelDir::kDown, true);  // B
      t.record_channel(1, 1, 3, ChannelDir::kUp, true);    // C
    }
    t.end_sample();
  }
  const auto top = t.top_contended(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].busy_samples, 2u);
  EXPECT_EQ(top[0].level, 1u);
  EXPECT_EQ(top[0].port, 2u);
  // Tie at 1 busy sample: level 0 row 3 sorts before level 1 row 1.
  EXPECT_EQ(top[1].level, 0u);
  EXPECT_EQ(top[1].dir, ChannelDir::kDown);
  EXPECT_EQ(top[2].level, 1u);
  EXPECT_EQ(top[2].port, 3u);
}

TEST(LinkTelemetry, TopContendedSkipsNeverBusyChannels) {
  LinkTelemetry t;
  t.configure({{2, 2}});
  t.begin_sample(0);
  t.record_channel(0, 0, 0, ChannelDir::kUp, true);
  t.end_sample();
  const auto top = t.top_contended(100);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].busy_samples, 1u);
}

TEST(LinkTelemetry, ResetKeepsShapeDropsData) {
  LinkTelemetry t;
  t.configure(two_level_shape());
  t.begin_sample(5);
  t.record_channel(0, 0, 0, ChannelDir::kUp, true);
  t.end_sample();
  t.reset();
  EXPECT_TRUE(t.configured());
  EXPECT_EQ(t.samples(), 0u);
  EXPECT_TRUE(t.series().empty());
  EXPECT_EQ(t.busy_samples(0, 0, 0, ChannelDir::kUp), 0u);
  // Time restarts: t may go back to zero after reset.
  t.begin_sample(0);
  t.end_sample();
  EXPECT_EQ(t.samples(), 1u);
}

TEST(LinkTelemetry, ExportMetricsRegistersFabricNames) {
  LinkTelemetry t;
  t.configure({{2, 2}});
  t.begin_sample(0);
  t.record_channel(0, 0, 1, ChannelDir::kUp, true);
  t.end_sample();

  MetricsRegistry registry;
  t.export_metrics(registry);
  EXPECT_EQ(registry.counter("fabric.samples").value(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("fabric.util.level0.up").value(), 0.25);
  EXPECT_DOUBLE_EQ(registry.gauge("fabric.util.level0.down").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("fabric.occupied.level0.up").value(), 1.0);
  // Exact occupancy bins: one row saw occupancy 1, one saw 0.
  EXPECT_EQ(registry.counter("fabric.saturation.level0.up.occ0").value(), 1u);
  EXPECT_EQ(registry.counter("fabric.saturation.level0.up.occ1").value(), 1u);
}

TEST(LinkTelemetry, SeriesJsonlEveryLineParses) {
  LinkTelemetry t;
  t.configure(two_level_shape());
  for (std::uint64_t i = 0; i < 3; ++i) {
    t.begin_sample(i);
    t.record_channel(0, 0, 0, ChannelDir::kUp, true);
    t.record_channel(1, 1, 1, ChannelDir::kDown, i % 2 == 0);
    t.end_sample();
  }
  std::ostringstream os;
  t.write_series_jsonl(os);
  const std::string text = os.str();
  std::istringstream in(text);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    EXPECT_EQ(parse_json(line).message(), "") << "line: " << line;
  }
  // Header + 3 samples + utilization + 4 saturation lines + top_contended.
  EXPECT_EQ(lines, 10u);
  EXPECT_NE(text.find("\"type\":\"link_telemetry\""), std::string::npos);
  EXPECT_NE(text.find("\"samples\":3"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"top_contended\""), std::string::npos);
}

// --- LinkState glue (linkstate/telemetry.hpp) -------------------------------

TEST(LinkStateTelemetry, ShapeMatchesLinkState) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  const auto shape = telemetry_shape(state);
  ASSERT_EQ(shape.size(), state.link_levels());
  for (std::uint32_t h = 0; h < state.link_levels(); ++h) {
    EXPECT_EQ(shape[h].rows, state.rows_at(h));
    EXPECT_EQ(shape[h].ports, state.ports_per_switch());
  }
}

TEST(LinkStateTelemetry, SampleSeesOccupiedChannels) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  state.occupy(0, 2, 9, 1);   // Ulink(0,2)[1] and Dlink(0,9)[1] busy
  state.occupy(1, 3, 7, 2);

  LinkTelemetry t;
  sample_link_state(state, 0, t);  // configures on first use
  EXPECT_TRUE(t.configured());
  EXPECT_EQ(t.samples(), 1u);
  EXPECT_EQ(t.busy_samples(0, 2, 1, ChannelDir::kUp), 1u);
  EXPECT_EQ(t.busy_samples(0, 9, 1, ChannelDir::kDown), 1u);
  EXPECT_EQ(t.busy_samples(1, 3, 2, ChannelDir::kUp), 1u);
  EXPECT_EQ(t.busy_samples(1, 7, 2, ChannelDir::kDown), 1u);
  // The destination's UP channel at that port is untouched by occupy.
  EXPECT_EQ(t.busy_samples(0, 9, 1, ChannelDir::kUp), 0u);
  // Series totals match LinkState's own accounting.
  EXPECT_EQ(t.series()[0].up_occupied[0], state.occupied_ulinks_at(0));
  EXPECT_EQ(t.series()[0].down_occupied[1], state.occupied_dlinks_at(1));
}

TEST(LinkStateTelemetry, ReleaseShowsUpInNextSample) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  LinkTelemetry t;
  state.occupy(0, 0, 1, 3);
  sample_link_state(state, 0, t);
  state.release(0, 0, 1, 3);
  sample_link_state(state, 1, t);
  EXPECT_EQ(t.busy_samples(0, 0, 3, ChannelDir::kUp), 1u);
  EXPECT_EQ(t.series()[1].up_occupied[0], 0u);
  EXPECT_DOUBLE_EQ(t.utilization(0, ChannelDir::kUp),
                   1.0 / (2.0 * 4.0 * 4.0));  // 1 busy / (2 samples x 16 ch)
}

}  // namespace
}  // namespace ftsched::obs
