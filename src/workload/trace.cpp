#include "workload/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/parse.hpp"

namespace ftsched {

void write_trace(std::ostream& os, const Trace& trace) {
  os << "# ftsched-trace v1\n";
  os << "# nodes " << trace.node_count << "\n";
  for (const Request& r : trace.requests) {
    os << r.src << ' ' << r.dst << '\n';
  }
}

Result<Trace> read_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "# ftsched-trace v1") {
    return Status::error("trace: missing or unsupported version header");
  }
  Trace trace;
  if (!std::getline(is, line)) {
    return Status::error("trace: missing node-count header");
  }
  {
    std::istringstream hdr(line);
    std::string hash;
    std::string word;
    std::string count;
    std::string excess;
    if (!(hdr >> hash >> word >> count) || hash != "#" || word != "nodes" ||
        hdr >> excess) {
      return Status::error("trace: malformed node-count header: " + line);
    }
    const auto node_count = parse_unsigned(count);
    if (!node_count) {
      return Status::error(
          "trace: node count is not an unsigned integer at line 2: " + line);
    }
    trace.node_count = *node_count;
    if (trace.node_count == 0) {
      return Status::error("trace: node count must be positive");
    }
  }
  std::size_t line_no = 2;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream body(line);
    std::string src;
    std::string dst;
    if (!(body >> src >> dst)) {
      return Status::error("trace: malformed request at line " +
                           std::to_string(line_no) + ": " + line);
    }
    std::string excess;
    if (body >> excess) {
      return Status::error("trace: trailing tokens at line " +
                           std::to_string(line_no) + ": " + line);
    }
    // A signed endpoint is malformed, never wrapped to 2^64 - k.
    const auto src_id = parse_unsigned(src);
    const auto dst_id = parse_unsigned(dst);
    if (!src_id || !dst_id) {
      return Status::error("trace: malformed request at line " +
                           std::to_string(line_no) + ": " + line);
    }
    Request r;
    r.src = *src_id;
    r.dst = *dst_id;
    if (r.src >= trace.node_count || r.dst >= trace.node_count) {
      return Status::error("trace: endpoint out of range at line " +
                           std::to_string(line_no) + ": " + line);
    }
    trace.requests.push_back(r);
  }
  return trace;
}

}  // namespace ftsched
