#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace ftsched::obs {
namespace {

TEST(TraceWriter, EmptyTraceIsValidJson) {
  TraceWriter w;
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(parse_json(os.str()).message(), "") << os.str();
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

TEST(TraceWriter, EventsCarryTheirFields) {
  TraceWriter w;
  w.complete("batch", "sched.batch", 100, 50, kPidSched, 3);
  w.instant("dispatch", "des", 7, kPidDes);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.events()[0].phase, 'X');
  EXPECT_EQ(w.events()[0].dur_us, 50u);
  EXPECT_EQ(w.events()[0].tid, 3u);
  EXPECT_EQ(w.events()[1].phase, 'i');
  EXPECT_EQ(w.events()[1].pid, kPidDes);
}

TEST(TraceWriter, MixedEventStreamRendersValidJson) {
  TraceWriter w;
  w.complete("span \"quoted\"", "cat\\slash", 0, 1);
  w.instant("i1", "des", 5, kPidDes, 2);
  std::ostringstream os;
  w.write(os);
  const std::string text = os.str();
  EXPECT_EQ(parse_json(text).message(), "") << text;
  // Escaping really happened (a raw quote inside a name would break parse,
  // which parse_json above would catch — also check the escapes directly).
  EXPECT_NE(text.find("span \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("cat\\\\slash"), std::string::npos);
}

TEST(TraceWriter, WrittenFileParsesFromDisk) {
  TraceWriter w;
  for (int i = 0; i < 10; ++i) {
    w.complete("span", "cat", static_cast<std::uint64_t>(i * 10), 5);
  }
  const std::string path = ::testing::TempDir() + "trace_test_out.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    w.write(out);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(parse_json(buffer.str()).message(), "");
}

TEST(TraceWriter, ClearDropsBufferedEvents) {
  TraceWriter w;
  w.instant("x", "c", 1);
  EXPECT_FALSE(w.empty());
  w.clear();
  EXPECT_TRUE(w.empty());
}

TEST(ScopedSpan, NullWriterIsANoOp) {
  // Must not crash, allocate names, or read the clock.
  ScopedSpan span(nullptr, "unused", "unused");
}

TEST(ScopedSpan, RecordsOneCompleteEvent) {
  TraceWriter w;
  {
    ScopedSpan span(&w, "work", "test.cat", 4);
  }
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.events()[0].name, "work");
  EXPECT_EQ(w.events()[0].cat, "test.cat");
  EXPECT_EQ(w.events()[0].phase, 'X');
  EXPECT_EQ(w.events()[0].pid, kPidSched);
  EXPECT_EQ(w.events()[0].tid, 4u);
}

TEST(ScopedSpan, NestedSpansBothRecorded) {
  TraceWriter w;
  {
    ScopedSpan outer(&w, "outer", "c");
    ScopedSpan inner(&w, "inner", "c");
  }
  ASSERT_EQ(w.size(), 2u);
  // Inner destructs first.
  EXPECT_EQ(w.events()[0].name, "inner");
  EXPECT_EQ(w.events()[1].name, "outer");
  EXPECT_LE(w.events()[1].ts_us, w.events()[0].ts_us);
}

TEST(TraceMetadata, StandardTracksArePrenamed) {
  TraceWriter w;
  ASSERT_EQ(w.metadata().size(), 2u);
  EXPECT_EQ(w.metadata()[0].pid, kPidSched);
  EXPECT_EQ(w.metadata()[0].name, "sched (wall us)");
  EXPECT_EQ(w.metadata()[1].pid, kPidDes);
  EXPECT_EQ(w.metadata()[1].name, "des (sim ticks)");
  // Pre-named tracks do not count as payload events.
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
}

TEST(TraceMetadata, SetProcessNameReplacesExistingEntry) {
  TraceWriter w;
  w.set_process_name(kPidDes, "simnet cycles");
  ASSERT_EQ(w.metadata().size(), 2u);  // replaced, not appended
  EXPECT_EQ(w.metadata()[1].name, "simnet cycles");
  w.set_process_name(7, "custom");
  ASSERT_EQ(w.metadata().size(), 3u);
  EXPECT_EQ(w.metadata()[2].pid, 7u);
}

TEST(TraceMetadata, RendersMetadataEventsAheadOfStream) {
  TraceWriter w;
  w.set_process_name(7, "stage \"output\"");
  w.complete("span", "cat", 0, 1);
  std::ostringstream os;
  w.write(os);
  const std::string text = os.str();
  EXPECT_EQ(parse_json(text).message(), "") << text;
  const auto meta_pos = text.find("\"ph\":\"M\"");
  const auto span_pos = text.find("\"ph\":\"X\"");
  ASSERT_NE(meta_pos, std::string::npos);
  ASSERT_NE(span_pos, std::string::npos);
  EXPECT_LT(meta_pos, span_pos);
  EXPECT_NE(text.find("\"name\":\"process_name\""), std::string::npos);
  // Name payloads are escaped and carried in args.
  EXPECT_NE(text.find("\"args\":{\"name\":\"stage \\\"output\\\"\"}"),
            std::string::npos);
}

TEST(TraceMetadata, SurvivesClear) {
  TraceWriter w;
  w.set_process_name(7, "worker");
  w.instant("x", "c", 1);
  w.clear();
  EXPECT_TRUE(w.empty());
  ASSERT_EQ(w.metadata().size(), 3u);
  std::ostringstream os;
  w.write(os);
  EXPECT_NE(os.str().find("\"name\":\"worker\""), std::string::npos);
}

TEST(TraceWriter, WallClockIsMonotonic) {
  const std::uint64_t a = TraceWriter::wall_now_us();
  const std::uint64_t b = TraceWriter::wall_now_us();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace ftsched::obs
