// The BENCH_*.json artifact frame and the machine/build fingerprint
// ("env") it carries.
//
// Wall-clock numbers only mean something relative to the box and the build
// that produced them. Every BENCH_*.json carries the fingerprint so
// `ftreport`'s regression mode can refuse to silently compare numbers from
// different machines: when baseline and candidate envs differ it prints a
// warning naming the mismatching fields (the ratio gates still run —
// schedulability is machine-invariant; only the time-domain comparisons
// become suspect).
//
// Collection is best-effort and never fails: unreadable fields come back as
// "unknown" (e.g. the cpufreq governor inside most containers).
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ftsched::obs {

/// Writes the BENCH_*.json artifact at `path`, the one frame every bench
/// artifact shares:
///   {"bench":"<bench>"<head>,"env":{"cpu":"..","cores":N,"compiler":"..",
///    "build":"..","governor":".."}<body>}
/// and a newline. `head` writes the bench's header members and `body` the
/// members after the fingerprint, each member led by a comma. False when
/// `path` cannot be opened.
bool write_artifact(const std::string& path, std::string_view bench,
                    const std::function<void(std::ostream&)>& head,
                    const std::function<void(std::ostream&)>& body = {});

/// write_artifact with the body ,"points":[..]: `write_point(os, point)`
/// writes each of `points`, one per line.
template <class T, class WritePoint>
bool write_artifact(const std::string& path, std::string_view bench,
                    const std::function<void(std::ostream&)>& head,
                    const std::vector<T>& points, WritePoint write_point) {
  return write_artifact(path, bench, head, [&](std::ostream& os) {
    os << ",\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      os << (i ? ",\n" : "\n");
      write_point(os, points[i]);
    }
    os << "\n]";
  });
}

}  // namespace ftsched::obs
