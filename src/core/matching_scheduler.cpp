#include "core/matching_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "linkstate/transaction.hpp"

namespace ftsched {

namespace {

/// Hopcroft–Karp maximum bipartite matching over a multigraph. Vertices are
/// dense indices; edges carry a payload (an edge id) so the caller can
/// recover which edge each match used.
class HopcroftKarp {
 public:
  HopcroftKarp(std::size_t left_count, std::size_t right_count)
      : adj_(left_count),
        match_left_(left_count, kFree),
        match_right_(right_count, kFree),
        matched_payload_(left_count, 0) {}

  void add_edge(std::size_t left, std::size_t right, std::size_t payload) {
    adj_[left].push_back(Edge{right, payload});
  }

  /// Runs to maximum; returns matched (left, payload) pairs.
  std::vector<std::pair<std::size_t, std::size_t>> solve() {
    while (bfs()) {
      for (std::size_t u = 0; u < adj_.size(); ++u) {
        if (match_left_[u] == kFree) dfs(u);
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> matched;
    for (std::size_t u = 0; u < adj_.size(); ++u) {
      if (match_left_[u] != kFree) {
        matched.emplace_back(u, matched_payload_[u]);
      }
    }
    return matched;
  }

 private:
  static constexpr std::size_t kFree = std::numeric_limits<std::size_t>::max();
  static constexpr std::uint32_t kInf =
      std::numeric_limits<std::uint32_t>::max();

  struct Edge {
    std::size_t right;
    std::size_t payload;
  };

  bool bfs() {
    std::queue<std::size_t> frontier;
    dist_.assign(adj_.size(), kInf);
    for (std::size_t u = 0; u < adj_.size(); ++u) {
      if (match_left_[u] == kFree) {
        dist_[u] = 0;
        frontier.push(u);
      }
    }
    bool found_augmenting = false;
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (const Edge& e : adj_[u]) {
        const std::size_t w = match_right_[e.right];
        if (w == kFree) {
          found_augmenting = true;
        } else if (dist_[w] == kInf) {
          dist_[w] = dist_[u] + 1;
          frontier.push(w);
        }
      }
    }
    return found_augmenting;
  }

  bool dfs(std::size_t u) {
    for (const Edge& e : adj_[u]) {
      const std::size_t w = match_right_[e.right];
      if (w == kFree || (dist_[w] == dist_[u] + 1 && dfs(w))) {
        match_left_[u] = e.right;
        match_right_[e.right] = u;
        matched_payload_[u] = e.payload;
        return true;
      }
    }
    dist_[u] = kInf;
    return false;
  }

  std::vector<std::vector<Edge>> adj_;
  std::vector<std::size_t> match_left_;
  std::vector<std::size_t> match_right_;
  std::vector<std::size_t> matched_payload_;
  std::vector<std::uint32_t> dist_;
};

constexpr std::size_t kDummy = std::numeric_limits<std::size_t>::max();

/// Exact w-edge-coloring of the request multigraph, valid when every
/// involved channel is free and the maximum vertex degree is <= w:
/// pad with dummy edges to a w-regular bipartite multigraph, then peel one
/// perfect matching per color (König). Grants EVERY pending request.
void color_exact(const FatTree& tree, const LinkState& state, Transaction& tx,
                 std::span<const Request> requests,
                 const std::vector<std::size_t>& pending,
                 ScheduleResult& result) {
  const std::size_t rows = state.rows_at(0);
  const std::uint32_t w = tree.parent_arity();

  struct ColorEdge {
    std::size_t a;
    std::size_t b;
    std::size_t request;  // kDummy for padding edges
    bool colored = false;
  };
  std::vector<ColorEdge> edges;
  std::vector<std::uint32_t> deg_left(rows, 0);
  std::vector<std::uint32_t> deg_right(rows, 0);
  for (std::size_t idx : pending) {
    const Request& r = requests[idx];
    const std::size_t a = tree.leaf_switch(r.src).index;
    const std::size_t b = tree.leaf_switch(r.dst).index;
    edges.push_back(ColorEdge{a, b, idx});
    ++deg_left[a];
    ++deg_right[b];
  }
  // Pad to w-regular: pair off left and right deficits with dummy edges.
  std::size_t li = 0;
  std::size_t ri = 0;
  while (true) {
    while (li < rows && deg_left[li] >= w) ++li;
    while (ri < rows && deg_right[ri] >= w) ++ri;
    if (li >= rows || ri >= rows) break;
    edges.push_back(ColorEdge{li, ri, kDummy});
    ++deg_left[li];
    ++deg_right[ri];
  }

  for (std::uint32_t p = 0; p < w; ++p) {
    HopcroftKarp hk(rows, rows);
    bool any = false;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].colored) continue;
      hk.add_edge(edges[e].a, edges[e].b, e);
      any = true;
    }
    if (!any) break;
    const auto matched = hk.solve();
    // A w-regular bipartite multigraph always has a perfect matching.
    FT_ASSERT(matched.size() == rows);
    for (const auto& [left, e] : matched) {
      (void)left;
      edges[e].colored = true;
      if (edges[e].request == kDummy) continue;
      tx.occupy(0, edges[e].a, edges[e].b, p);
      RequestOutcome& out = result.outcomes[edges[e].request];
      out.granted = true;
      out.path.ancestor_level = 1;
      out.path.ports.push_back(p);
    }
  }
}

/// Greedy color-by-color maximum matching, honoring arbitrary pre-occupied
/// channels. Strong heuristic, not exact (list edge coloring is NP-hard).
void color_greedy(const FatTree& tree, const LinkState& state, Transaction& tx,
                  std::span<const Request> requests,
                  std::vector<std::size_t> pending, ScheduleResult& result,
                  LeafTracker& leaves) {
  const std::size_t rows = state.rows_at(0);
  const std::uint32_t w = tree.parent_arity();

  for (std::uint32_t p = 0; p < w && !pending.empty(); ++p) {
    HopcroftKarp hk(rows, rows);
    bool any_edge = false;
    for (std::size_t idx : pending) {
      const Request& r = requests[idx];
      const std::uint64_t a = tree.leaf_switch(r.src).index;
      const std::uint64_t b = tree.leaf_switch(r.dst).index;
      if (state.ulink(0, a, p) && state.dlink(0, b, p)) {
        hk.add_edge(a, b, idx);
        any_edge = true;
      }
    }
    if (!any_edge) continue;

    for (const auto& [left, idx] : hk.solve()) {
      (void)left;
      const Request& r = requests[idx];
      tx.occupy(0, tree.leaf_switch(r.src).index,
                tree.leaf_switch(r.dst).index, p);
      RequestOutcome& out = result.outcomes[idx];
      out.granted = true;
      out.path.ancestor_level = 1;
      out.path.ports.push_back(p);
    }
    std::erase_if(pending, [&](std::size_t idx) {
      return result.outcomes[idx].granted;
    });
  }

  for (std::size_t idx : pending) {
    RequestOutcome& out = result.outcomes[idx];
    out.reason = RejectReason::kNoCommonPort;
    out.fail_level = 0;
    leaves.release(requests[idx].src, requests[idx].dst);
  }
}

}  // namespace

ScheduleResult MatchingScheduler::schedule_batch(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  FT_REQUIRE(tree.levels() == 2);
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  LeafTracker leaves(tree.node_count());

  // Admission and intra-switch grants; collect the inter-switch pending set
  // and its degree profile.
  const std::size_t rows = state.rows_at(0);
  std::vector<std::uint32_t> deg_left(rows, 0);
  std::vector<std::uint32_t> deg_right(rows, 0);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = result.outcomes[i];
    out.path = Path{r.src, r.dst, 0, {}};
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      continue;
    }
    const std::uint64_t a = tree.leaf_switch(r.src).index;
    const std::uint64_t b = tree.leaf_switch(r.dst).index;
    if (a == b) {
      out.granted = true;
      continue;
    }
    ++deg_left[a];
    ++deg_right[b];
    pending.push_back(i);
  }
  if (pending.empty()) return result;

  // Exact König edge coloring applies when no involved channel is occupied
  // and the degree bound holds; otherwise fall back to the greedy heuristic.
  const std::uint32_t w = tree.parent_arity();
  std::uint32_t max_degree = 0;
  for (std::size_t v = 0; v < rows; ++v) {
    max_degree = std::max({max_degree, deg_left[v], deg_right[v]});
  }
  const bool fresh =
      state.occupied_ulinks_at(0) == 0 && state.occupied_dlinks_at(0) == 0;
  Transaction tx(state);
  if (fresh && max_degree <= w) {
    color_exact(tree, state, tx, requests, pending, result);
  } else {
    color_greedy(tree, state, tx, requests, std::move(pending), result,
                 leaves);
  }
  tx.commit();
  if (probe_) {
    // The matching runs whole-batch, so per-grant picks are recovered from
    // the outcomes (all circuits live on the single inter-switch level 0).
    for (const RequestOutcome& out : result.outcomes) {
      if (out.granted && !out.path.ports.empty()) {
        probe_->on_port_pick(0, out.path.ports[0]);
      }
    }
  }
  return result;
}

}  // namespace ftsched
