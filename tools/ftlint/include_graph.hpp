// ftlint/include_graph.hpp — include edges, the layering DAG, and cycles.
//
// DESIGN.md §3 describes one library per subsystem with a strict dependency
// direction; until now that contract lived in comments and CMake link lines
// (which over-approximate: a target may link more than it includes). This
// builder derives the REAL module graph from `#include` edges and checks it
// against the allowed DAG below.
//
// The allowed DAG, bottom (no deps) to top; every module may also include
// itself, and every module may include util:
//
//   L0  util       —
//   L1  topology   util
//       obs        util                  (observe-never-steer: ONLY util)
//       exec       util                  (the sole <thread> authority)
//       des        util                  (no instrumentation seam)
//   L2  linkstate  topology, obs
//   L3  core       topology, obs, linkstate
//   L4  workload   topology, core
//       hw         topology, obs, linkstate, core
//   L5  stats      obs, exec, linkstate, core, workload
//   L6  fault      topology, obs, des, exec, linkstate, core, workload, stats
//   L7  simnet     topology, obs, des, linkstate, core, fault
//
// NOTHING in src/ may include tools/, bench/, or tests/, and file-level
// include cycles are rejected outright.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ftlint/source_file.hpp"

namespace ftlint {

/// Allowed include targets for a src/ module ("src/core" → {"src/util", ...}).
/// A module may always include itself. Unknown modules return nullptr.
const std::set<std::string>* allowed_deps(const std::string& module);

/// The module a quoted include target lands in: "core/request.hpp" →
/// "src/core", "tools/ftlint/lexer.hpp" → "tools", "util/contracts.hpp" →
/// "src/util". Bare filenames (same-directory includes) and unknown prefixes
/// return "".
std::string include_target_module(const std::string& target);

struct IncludeCycle {
  std::vector<std::string> paths;  ///< the cycle, first file repeated last
  std::size_t line = 0;            ///< line of the closing include edge
};

/// File-level include graph over a set of parsed sources. Quoted includes are
/// resolved against (in order) the including file's directory, `root`/src,
/// `root`, and `root`/{tools,tests,bench}; unresolved edges are dropped.
class IncludeGraph {
 public:
  /// `root` may be empty: resolution then only tries the including file's
  /// directory (enough for fixture trees passed with --root).
  explicit IncludeGraph(std::string root);

  void add(const SourceFile& file);

  /// Resolves a quoted include from `from_path`; "" when no candidate exists
  /// on disk or among added files.
  std::string resolve(const std::string& from_path,
                      const std::string& target) const;

  /// All include cycles among the added files, deterministically ordered.
  /// Each cycle is reported once, anchored at its lexicographically smallest
  /// file.
  std::vector<IncludeCycle> cycles() const;

 private:
  struct PendingEdge {
    std::string from;
    std::string target;  ///< unresolved include text
    std::size_t line = 0;
  };

  std::string root_;
  std::set<std::string> files_;
  // Edges resolve lazily in cycles(): resolution consults the full file set,
  // so add() order never matters.
  std::vector<PendingEdge> pending_;
};

}  // namespace ftlint
