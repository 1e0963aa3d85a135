#include "obs/trace.hpp"

#include <chrono>
#include <ostream>

#include "util/json.hpp"

namespace ftsched::obs {

TraceWriter::TraceWriter() {
  set_process_name(kPidSched, "sched (wall us)");
  set_process_name(kPidDes, "des (sim ticks)");
}

void TraceWriter::set_process_name(std::uint32_t pid, std::string_view name) {
  for (TraceMetadata& meta : metadata_) {
    if (meta.pid == pid) {
      meta.name = std::string(name);
      return;
    }
  }
  metadata_.push_back(TraceMetadata{pid, std::string(name)});
}

void TraceWriter::complete(std::string_view name, std::string_view cat,
                           std::uint64_t ts_us, std::uint64_t dur_us,
                           std::uint32_t pid, std::uint32_t tid) {
  events_.push_back(TraceEvent{std::string(name), std::string(cat), 'X',
                               ts_us, dur_us, pid, tid});
}

void TraceWriter::instant(std::string_view name, std::string_view cat,
                          std::uint64_t ts_us, std::uint32_t pid,
                          std::uint32_t tid) {
  events_.push_back(TraceEvent{std::string(name), std::string(cat), 'i',
                               ts_us, 0, pid, tid});
}

void TraceWriter::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Metadata first: viewers apply track names on sight, so naming before
  // the payload keeps every row labelled from the first event.
  for (const TraceMetadata& meta : metadata_) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << meta.pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(meta.name)
       << "\"}}";
  }
  for (const TraceEvent& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat) << "\",\"ph\":\"" << e.phase << "\",\"ts\":"
       << e.ts_us << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (e.phase == 'X') {
      os << ",\"dur\":" << e.dur_us;
    } else {
      os << ",\"s\":\"t\"";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::uint64_t TraceWriter::wall_now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

}  // namespace ftsched::obs
