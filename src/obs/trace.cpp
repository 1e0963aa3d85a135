#include "obs/trace.hpp"

#include <chrono>
#include <ostream>

#include "util/json.hpp"

namespace ftsched::obs {

TraceWriter::TraceWriter() {
  set_process_name(kPidSched, "sched (wall us)");
  set_process_name(kPidDes, "des (sim ticks)");
  set_process_name(kPidHw, "hw (block cycles)");
}

void TraceWriter::set_process_name(std::uint32_t pid, std::string_view name) {
  for (TraceMetadata& meta : metadata_) {
    if (!meta.thread && meta.pid == pid) {
      meta.name = std::string(name);
      return;
    }
  }
  metadata_.push_back(TraceMetadata{pid, 0, false, std::string(name)});
}

void TraceWriter::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                  std::string_view name) {
  for (TraceMetadata& meta : metadata_) {
    if (meta.thread && meta.pid == pid && meta.tid == tid) {
      meta.name = std::string(name);
      return;
    }
  }
  metadata_.push_back(TraceMetadata{pid, tid, true, std::string(name)});
}

void TraceWriter::complete(std::string_view name, std::string_view cat,
                           std::uint64_t ts_us, std::uint64_t dur_us,
                           std::uint32_t pid, std::uint32_t tid) {
  events_.push_back(TraceEvent{std::string(name), std::string(cat), 'X',
                               ts_us, dur_us, pid, tid, 0.0});
}

void TraceWriter::instant(std::string_view name, std::string_view cat,
                          std::uint64_t ts_us, std::uint32_t pid,
                          std::uint32_t tid) {
  events_.push_back(TraceEvent{std::string(name), std::string(cat), 'i',
                               ts_us, 0, pid, tid, 0.0});
}

void TraceWriter::counter(std::string_view name, std::string_view cat,
                          std::uint64_t ts_us, double value,
                          std::uint32_t pid) {
  events_.push_back(TraceEvent{std::string(name), std::string(cat), 'C',
                               ts_us, 0, pid, 0, value});
}

void TraceWriter::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Metadata first: viewers apply track names on sight, so naming before
  // the payload keeps every row labelled from the first event.
  for (const TraceMetadata& meta : metadata_) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\""
       << (meta.thread ? "thread_name" : "process_name")
       << "\",\"ph\":\"M\",\"pid\":" << meta.pid << ",\"tid\":" << meta.tid
       << ",\"args\":{\"name\":\"" << json_escape(meta.name) << "\"}}";
  }
  for (const TraceEvent& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat) << "\",\"ph\":\"" << e.phase << "\",\"ts\":"
       << e.ts_us << ",\"pid\":" << e.pid;
    switch (e.phase) {
      case 'X':
        os << ",\"tid\":" << e.tid << ",\"dur\":" << e.dur_us;
        break;
      case 'i':
        os << ",\"tid\":" << e.tid << ",\"s\":\"t\"";
        break;
      case 'C':
        os << ",\"args\":{\"value\":" << e.value << "}";
        break;
      default:
        break;
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
