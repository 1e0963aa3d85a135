#include "ftlint/include_graph.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace ftlint {

namespace {

namespace fs = std::filesystem;

const std::map<std::string, std::set<std::string>>& dag() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"src/util", {}},
      {"src/topology", {"src/util"}},
      {"src/obs", {"src/util"}},
      {"src/exec", {"src/util"}},
      {"src/des", {"src/util"}},
      {"src/linkstate", {"src/util", "src/topology", "src/obs"}},
      {"src/core", {"src/util", "src/topology", "src/obs", "src/linkstate"}},
      {"src/workload", {"src/util", "src/topology", "src/core"}},
      {"src/hw",
       {"src/util", "src/topology", "src/obs", "src/linkstate", "src/core"}},
      {"src/stats",
       {"src/util", "src/obs", "src/exec", "src/linkstate", "src/core",
        "src/workload"}},
      {"src/fault",
       {"src/util", "src/topology", "src/obs", "src/des", "src/exec",
        "src/linkstate", "src/core", "src/workload", "src/stats"}},
      {"src/simnet",
       {"src/util", "src/topology", "src/obs", "src/des", "src/linkstate",
        "src/core", "src/fault"}},
  };
  return kAllowed;
}

std::string normalize(const fs::path& path) {
  return path.lexically_normal().generic_string();
}

}  // namespace

const std::set<std::string>* allowed_deps(const std::string& module) {
  const auto it = dag().find(module);
  return it == dag().end() ? nullptr : &it->second;
}

std::string include_target_module(const std::string& target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return "";
  const std::string head = target.substr(0, slash);
  if (head == "tools" || head == "bench" || head == "tests" ||
      head == "examples") {
    return head;
  }
  if (dag().count("src/" + head) != 0) return "src/" + head;
  return "";
}

IncludeGraph::IncludeGraph(std::string root) : root_(std::move(root)) {}

std::string IncludeGraph::resolve(const std::string& from_path,
                                  const std::string& target) const {
  std::vector<fs::path> candidates;
  const fs::path from(from_path);
  candidates.push_back(from.parent_path() / target);
  if (!root_.empty()) {
    const fs::path root(root_);
    candidates.push_back(root / "src" / target);
    candidates.push_back(root / target);
    candidates.push_back(root / "tools" / target);
    candidates.push_back(root / "tests" / target);
    candidates.push_back(root / "bench" / target);
  }
  for (const fs::path& candidate : candidates) {
    const std::string normal = normalize(candidate);
    if (files_.count(normal) != 0) return normal;
    std::error_code ec;
    if (fs::is_regular_file(candidate, ec)) return normal;
  }
  return "";
}

void IncludeGraph::add(const SourceFile& file) {
  const std::string from = normalize(fs::path(file.path));
  files_.insert(from);
  for (const IncludeDirective& inc : file.includes) {
    if (!inc.quoted) continue;
    pending_.push_back(PendingEdge{from, inc.target, inc.line});
  }
}

std::vector<IncludeCycle> IncludeGraph::cycles() const {
  // from-path → (to-path → line of the first such include)
  std::map<std::string, std::map<std::string, std::size_t>> edges;
  for (const PendingEdge& edge : pending_) {
    const std::string to = resolve(edge.from, edge.target);
    if (to.empty() || to == edge.from) continue;
    edges[edge.from].emplace(to, edge.line);
  }
  // Iterative DFS with an explicit color map; a back edge to a grey node
  // closes a cycle. Maps keep the traversal order deterministic.
  enum class Color { kWhite, kGrey, kBlack };
  std::map<std::string, Color> color;
  std::vector<IncludeCycle> found;
  std::set<std::vector<std::string>> seen;  // canonicalized cycles

  std::vector<std::string> stack;  // current DFS path
  struct Frame {
    std::string node;
    std::map<std::string, std::size_t>::const_iterator next, end;
  };

  for (const auto& [start, unused] : edges) {
    (void)unused;
    if (color[start] != Color::kWhite) continue;
    std::vector<Frame> frames;
    const auto push = [&](const std::string& node) {
      color[node] = Color::kGrey;
      stack.push_back(node);
      const auto it = edges.find(node);
      if (it == edges.end()) {
        static const std::map<std::string, std::size_t> kEmpty;
        frames.push_back(Frame{node, kEmpty.end(), kEmpty.end()});
      } else {
        frames.push_back(Frame{node, it->second.begin(), it->second.end()});
      }
    };
    push(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.next == frame.end) {
        color[frame.node] = Color::kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string& to = frame.next->first;
      const std::size_t line = frame.next->second;
      ++frame.next;
      const Color c = color[to];
      if (c == Color::kWhite) {
        push(to);
      } else if (c == Color::kGrey) {
        // stack from `to` onwards is the cycle.
        const auto at = std::find(stack.begin(), stack.end(), to);
        std::vector<std::string> cycle(at, stack.end());
        // Canonical rotation: smallest path first.
        const auto min = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min, cycle.end());
        if (seen.insert(cycle).second) {
          IncludeCycle out;
          out.paths = cycle;
          out.paths.push_back(cycle.front());
          out.line = line;
          found.push_back(std::move(out));
        }
      }
    }
  }
  std::sort(found.begin(), found.end(),
            [](const IncludeCycle& a, const IncludeCycle& b) {
              return a.paths < b.paths;
            });
  return found;
}

}  // namespace ftlint
