#include "fault/chaos_soak.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "util/parse.hpp"
#include "workload/patterns.hpp"

namespace ftsched {

std::string_view to_string(SoakOpKind kind) {
  switch (kind) {
    case SoakOpKind::kOpen:
      return "open";
    case SoakOpKind::kClose:
      return "close";
    case SoakOpKind::kFail:
      return "fail";
    case SoakOpKind::kRepair:
      return "repair";
  }
  return "unknown";
}

namespace {

/// Slack past the last op so in-flight retries get a chance to drain before
/// the final invariant sweep (the retry cap in SoakConfig bounds the tail).
constexpr SimTime kHorizonSlack = 64;

std::uint64_t soak_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x50a4c4a05ULL;
  return splitmix64(state);
}

/// kOpen payload: distinct sources and distinct destinations drawn from the
/// op's embedded seed, so a batch conflicts with the fabric's open circuits
/// (the interesting case) rather than with itself.
std::vector<Request> make_batch(const FatTree& tree, const SoakOp& op) {
  std::vector<NodeId> nodes(tree.node_count());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Xoshiro256ss rng(op.draw);
  rng.shuffle(nodes.begin(), nodes.end());
  const std::size_t pairs = std::min<std::size_t>(op.count, nodes.size() / 2);
  std::vector<Request> batch;
  batch.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    batch.push_back(Request{nodes[2 * i], nodes[2 * i + 1]});
  }
  return batch;
}

}  // namespace

ChaosSoak::ChaosSoak(const FatTree& tree, SoakConfig config)
    : tree_(tree), config_(std::move(config)) {
  FT_REQUIRE(config_.open_max >= 1);
  FT_REQUIRE(config_.close_max >= 1);
  FT_REQUIRE(config_.epoch_ops >= 1);
  FT_REQUIRE(config_.open_weight + config_.close_weight +
                 config_.fail_weight + config_.repair_weight >
             0);
}

std::vector<SoakOp> ChaosSoak::generate() const {
  Xoshiro256ss rng(soak_seed(config_.seed));
  // A one-level tree has no inter-switch cables to fail.
  const bool has_cables = tree_.levels() >= 2;
  const std::uint64_t w_open = config_.open_weight;
  const std::uint64_t w_close = config_.close_weight;
  const std::uint64_t w_fail = has_cables ? config_.fail_weight : 0;
  const std::uint64_t w_repair = has_cables ? config_.repair_weight : 0;
  const std::uint64_t total = w_open + w_close + w_fail + w_repair;
  FT_REQUIRE(total > 0);

  auto random_cable = [&]() {
    CableId cable;
    cable.level = static_cast<std::uint32_t>(rng.below(tree_.levels() - 1));
    cable.lower_index = rng.below(tree_.switches_at(cable.level));
    cable.port = static_cast<std::uint32_t>(rng.below(tree_.parent_arity()));
    return cable;
  };

  // Generation mirrors the runtime legality rules with its own model of the
  // failed set, so repairs draw from cables that are actually down and the
  // primary run wastes almost nothing on skips.
  std::set<CableId> down;
  std::vector<CableId> down_list;
  std::vector<SoakOp> ops;
  ops.reserve(config_.ops);
  SimTime t = 0;
  for (std::uint64_t i = 0; i < config_.ops; ++i) {
    t += rng.below(config_.max_gap + 1);
    SoakOp op;
    op.time = t;
    std::uint64_t roll = rng.below(total);
    if (roll >= w_open + w_close + w_fail && down_list.empty()) {
      roll = 0;  // nothing to repair yet: churn the traffic instead
    }
    if (roll < w_open) {
      op.kind = SoakOpKind::kOpen;
      op.count = static_cast<std::uint32_t>(1 + rng.below(config_.open_max));
      op.draw = rng();
    } else if (roll < w_open + w_close) {
      op.kind = SoakOpKind::kClose;
      op.count = static_cast<std::uint32_t>(1 + rng.below(config_.close_max));
      op.draw = rng();
    } else if (roll < w_open + w_close + w_fail) {
      op.kind = SoakOpKind::kFail;
      op.cable = random_cable();
      if (down.insert(op.cable).second) down_list.push_back(op.cable);
      // A duplicate draw stays in the script; the runtime skips it, keeping
      // the model and the live failed set in lock-step.
    } else {
      op.kind = SoakOpKind::kRepair;
      const std::size_t pick = rng.below(down_list.size());
      op.cable = down_list[pick];
      down.erase(op.cable);
      down_list[pick] = down_list.back();
      down_list.pop_back();
    }
    ops.push_back(op);
  }
  return ops;
}

SoakReport ChaosSoak::execute(const std::vector<SoakOp>& ops,
                              bool primary) const {
  SoakReport report;
  Simulator sim;
  FabricOptions options;
  options.scheduler = config_.scheduler;
  options.seed = config_.seed;
  options.retry = config_.retry;
  options.max_pending = config_.max_pending;
  options.horizon = (ops.empty() ? 0 : ops.back().time) + kHorizonSlack;
  options.flight = primary ? config_.flight : nullptr;
  FabricManager fabric(tree_, sim, options);

  bool violated = false;
  auto note_violation = [&](const std::string& message) {
    violated = true;
    report.ok = false;
    report.violation = message;
    report.violation_op = report.executed;
  };
  auto epoch_check = [&]() {
    if (violated) return;
    ++report.epochs;
    Status status = fabric.check_invariants();
    if (status.ok() && config_.extra_check) {
      status = config_.extra_check(fabric);
    }
    if (!status.ok()) note_violation(status.message());
  };

  for (const SoakOp& op : ops) {
    sim.schedule_at(op.time, [&, op] {
      if (violated) return;
      switch (op.kind) {
        case SoakOpKind::kFail:
          if (fabric.cable_is_failed(op.cable)) {
            ++report.skipped;
            return;
          }
          fabric.fail_cable(op.cable);
          break;
        case SoakOpKind::kRepair:
          if (!fabric.cable_is_failed(op.cable)) {
            ++report.skipped;
            return;
          }
          fabric.repair_cable(op.cable);
          break;
        case SoakOpKind::kOpen:
          // Runs after this event at the same timestamp — deterministic
          // (time, insertion) ordering.
          fabric.submit(make_batch(tree_, op), sim.now());
          break;
        case SoakOpKind::kClose: {
          std::vector<ConnectionId> ids = fabric.open_ids();
          if (ids.empty()) {
            ++report.skipped;
            return;
          }
          Xoshiro256ss pick_rng(op.draw);
          const std::size_t closes =
              std::min<std::size_t>(op.count, ids.size());
          for (std::size_t i = 0; i < closes; ++i) {
            const std::size_t pick = pick_rng.below(ids.size());
            const Status status = fabric.close(ids[pick]);
            if (!status.ok()) {
              // open_ids() just listed it — a failing close IS a violation.
              note_violation("close of a listed open circuit failed: " +
                             status.message());
              return;
            }
            ids[pick] = ids.back();
            ids.pop_back();
          }
          break;
        }
      }
      ++report.executed;
      if (report.executed % config_.epoch_ops == 0) epoch_check();
    });
  }
  sim.run();
  epoch_check();  // final sweep: horizon-end state must be clean too
  report.stats = fabric.stats();
  report.open_at_end = fabric.open_circuits();
  return report;
}

std::vector<SoakOp> ChaosSoak::shrink(std::vector<SoakOp> ops,
                                      std::uint64_t& runs) const {
  // ddmin-style greedy chunk removal. Execution-time legality makes every
  // subset a valid run, so removal needs no repair of the remaining ops.
  std::size_t chunk = std::max<std::size_t>(1, ops.size() / 2);
  while (true) {
    bool removed = false;
    for (std::size_t start = 0; start < ops.size();) {
      const std::size_t end = std::min(start + chunk, ops.size());
      std::vector<SoakOp> candidate(ops.begin(),
                                    ops.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       ops.begin() + static_cast<std::ptrdiff_t>(end),
                       ops.end());
      ++runs;
      if (!execute(candidate, /*primary=*/false).ok) {
        ops = std::move(candidate);
        removed = true;  // retry the same offset against the shorter list
      } else {
        start = end;
      }
    }
    if (chunk == 1) {
      if (!removed) break;  // 1-op-removal fixpoint: minimal
    } else {
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }
  return ops;
}

SoakReport ChaosSoak::run() {
  const std::vector<SoakOp> ops = generate();
  SoakReport report = execute(ops, /*primary=*/true);
  if (!report.ok && config_.shrink) {
    std::uint64_t runs = 0;
    report.reproducer = shrink(ops, runs);
    report.shrink_runs = runs;
  }
  return report;
}

SoakReport ChaosSoak::replay(const std::vector<SoakOp>& ops) {
  return execute(ops, /*primary=*/true);
}

// --- Reproducer script io ---------------------------------------------------

namespace {

const char* retry_kind_name(RetryPolicy::Kind kind) {
  switch (kind) {
    case RetryPolicy::Kind::kNone:
      return "none";
    case RetryPolicy::Kind::kImmediate:
      return "immediate";
    case RetryPolicy::Kind::kFixed:
      return "fixed";
    case RetryPolicy::Kind::kBackoff:
      return "backoff";
  }
  return "backoff";
}

bool parse_retry_kind(const std::string& name, RetryPolicy::Kind& kind) {
  if (name == "none") kind = RetryPolicy::Kind::kNone;
  else if (name == "immediate") kind = RetryPolicy::Kind::kImmediate;
  else if (name == "fixed") kind = RetryPolicy::Kind::kFixed;
  else if (name == "backoff") kind = RetryPolicy::Kind::kBackoff;
  else return false;
  return true;
}

using KvMap = std::map<std::string, std::string>;

/// Splits "key=value key=value ..." tokens after the line keyword. A key
/// given twice is an error: the second value must not silently win.
Status parse_kv(const std::string& line, std::size_t line_no,
                std::string& keyword, KvMap& kv) {
  std::istringstream is(line);
  is >> keyword;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::error("line " + std::to_string(line_no) +
                           ": expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    if (!kv.emplace(key, token.substr(eq + 1)).second) {
      return Status::error("line " + std::to_string(line_no) +
                           ": repeated key '" + key + "'");
    }
  }
  return Status();
}

/// Removes `key` from `kv` into `out`, so whatever a line's keyword does not
/// consume is left over for no_unused_keys to report.
Status take(KvMap& kv, const char* key, std::size_t line_no,
            std::string& out) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    return Status::error("line " + std::to_string(line_no) +
                         ": missing key '" + key + "'");
  }
  out = std::move(it->second);
  kv.erase(it);
  return Status();
}

Status no_unused_keys(const KvMap& kv, std::size_t line_no) {
  if (kv.empty()) return Status();
  return Status::error("line " + std::to_string(line_no) + ": unknown key '" +
                       kv.begin()->first + "'");
}

Status need_u64(KvMap& kv, const char* key, std::size_t line_no,
                std::uint64_t& out) {
  std::string text;
  if (Status s = take(kv, key, line_no, text); !s.ok()) return s;
  const auto value = parse_unsigned(text);
  if (!value) {
    return Status::error("line " + std::to_string(line_no) + ": key '" + key +
                         "' is not an unsigned integer: '" + text + "'");
  }
  out = *value;
  return Status();
}

/// need_u64 for a 32-bit field: a value that does not fit is an error, not
/// a silent wrap.
Status need_u32(KvMap& kv, const char* key, std::size_t line_no,
                std::uint32_t& out) {
  std::uint64_t v = 0;
  if (Status s = need_u64(kv, key, line_no, v); !s.ok()) return s;
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    return Status::error("line " + std::to_string(line_no) + ": key '" + key +
                         "' does not fit in 32 bits: " + std::to_string(v));
  }
  out = static_cast<std::uint32_t>(v);
  return Status();
}

Status need_double(KvMap& kv, const char* key, std::size_t line_no,
                   double& out) {
  std::string text;
  if (Status s = take(kv, key, line_no, text); !s.ok()) return s;
  std::size_t used = 0;
  try {
    out = std::stod(text, &used);
  } catch (...) {
    used = 0;
  }
  if (used != text.size() || text.empty()) {
    return Status::error("line " + std::to_string(line_no) + ": key '" + key +
                         "' is not a number: '" + text + "'");
  }
  return Status();
}

}  // namespace

std::string write_soak_script(const FatTreeParams& tree,
                              const SoakConfig& config,
                              const std::vector<SoakOp>& ops) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "# ftsched chaos-soak reproducer (replay: ftsched soak --replay=FILE)\n";
  os << "tree levels=" << tree.levels << " m=" << tree.child_arity
     << " w=" << tree.parent_arity << "\n";
  os << "soak scheduler=" << config.scheduler << " seed=" << config.seed
     << " epoch=" << config.epoch_ops << " max_pending=" << config.max_pending
     << " retry=" << retry_kind_name(config.retry.kind)
     << " retry_base=" << config.retry.base_delay
     << " retry_mult=" << config.retry.multiplier
     << " retry_cap=" << config.retry.max_delay
     << " retry_max=" << config.retry.max_retries
     << " retry_jitter=" << config.retry.jitter << "\n";
  for (const SoakOp& op : ops) {
    os << "op t=" << op.time << " kind=" << to_string(op.kind);
    switch (op.kind) {
      case SoakOpKind::kFail:
      case SoakOpKind::kRepair:
        os << " level=" << op.cable.level << " switch=" << op.cable.lower_index
           << " port=" << op.cable.port;
        break;
      case SoakOpKind::kOpen:
      case SoakOpKind::kClose:
        os << " count=" << op.count << " draw=" << op.draw;
        break;
    }
    os << "\n";
  }
  return os.str();
}

Result<SoakScript> parse_soak_script(const std::string& text) {
  SoakScript script;
  bool saw_tree = false;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string keyword;
    KvMap kv;
    if (Status s = parse_kv(line, line_no, keyword, kv); !s.ok()) return s;
    if (keyword == "tree") {
      FatTreeParams& tree = script.tree;
      if (Status s = need_u32(kv, "levels", line_no, tree.levels); !s.ok()) {
        return s;
      }
      if (Status s = need_u32(kv, "m", line_no, tree.child_arity); !s.ok()) {
        return s;
      }
      if (Status s = need_u32(kv, "w", line_no, tree.parent_arity); !s.ok()) {
        return s;
      }
      if (Status s = no_unused_keys(kv, line_no); !s.ok()) return s;
      saw_tree = true;
    } else if (keyword == "soak") {
      if (Status s = take(kv, "scheduler", line_no, script.config.scheduler);
          !s.ok()) {
        return s;
      }
      std::uint64_t v = 0;
      if (Status s = need_u64(kv, "seed", line_no, v); !s.ok()) return s;
      script.config.seed = v;
      if (Status s = need_u64(kv, "epoch", line_no, v); !s.ok()) return s;
      script.config.epoch_ops = static_cast<std::size_t>(v);
      if (Status s = need_u64(kv, "max_pending", line_no, v); !s.ok()) return s;
      script.config.max_pending = static_cast<std::size_t>(v);
      std::string retry;
      if (!take(kv, "retry", line_no, retry).ok() ||
          !parse_retry_kind(retry, script.config.retry.kind)) {
        return Status::error("line " + std::to_string(line_no) +
                             ": bad or missing retry kind");
      }
      if (Status s = need_u64(kv, "retry_base", line_no, v); !s.ok()) return s;
      script.config.retry.base_delay = v;
      if (Status s = need_double(kv, "retry_mult", line_no,
                                 script.config.retry.multiplier);
          !s.ok()) {
        return s;
      }
      if (Status s = need_u64(kv, "retry_cap", line_no, v); !s.ok()) return s;
      script.config.retry.max_delay = v;
      if (Status s = need_u32(kv, "retry_max", line_no,
                              script.config.retry.max_retries);
          !s.ok()) {
        return s;
      }
      if (Status s = need_double(kv, "retry_jitter", line_no,
                                 script.config.retry.jitter);
          !s.ok()) {
        return s;
      }
      if (Status s = no_unused_keys(kv, line_no); !s.ok()) return s;
    } else if (keyword == "op") {
      SoakOp op;
      std::uint64_t v = 0;
      if (Status s = need_u64(kv, "t", line_no, v); !s.ok()) return s;
      op.time = v;
      std::string kind;
      if (Status s = take(kv, "kind", line_no, kind); !s.ok()) return s;
      if (kind == "open" || kind == "close") {
        op.kind = kind == "open" ? SoakOpKind::kOpen : SoakOpKind::kClose;
        if (Status s = need_u32(kv, "count", line_no, op.count); !s.ok()) {
          return s;
        }
        if (Status s = need_u64(kv, "draw", line_no, v); !s.ok()) return s;
        op.draw = v;
      } else if (kind == "fail" || kind == "repair") {
        op.kind = kind == "fail" ? SoakOpKind::kFail : SoakOpKind::kRepair;
        if (Status s = need_u32(kv, "level", line_no, op.cable.level);
            !s.ok()) {
          return s;
        }
        if (Status s = need_u64(kv, "switch", line_no, v); !s.ok()) return s;
        op.cable.lower_index = v;
        if (Status s = need_u32(kv, "port", line_no, op.cable.port); !s.ok()) {
          return s;
        }
      } else {
        return Status::error("line " + std::to_string(line_no) +
                             ": unknown op kind '" + kind + "'");
      }
      if (Status s = no_unused_keys(kv, line_no); !s.ok()) return s;
      if (!script.ops.empty() && op.time < script.ops.back().time) {
        return Status::error("line " + std::to_string(line_no) +
                             ": op times must be non-decreasing");
      }
      script.ops.push_back(op);
    } else {
      return Status::error("line " + std::to_string(line_no) +
                           ": unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_tree) return Status::error("missing 'tree' line");
  return script;
}

}  // namespace ftsched
