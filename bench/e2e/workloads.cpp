#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/connection_manager.hpp"
#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "des/simulator.hpp"
#include "fault/fabric_manager.hpp"
#include "host_speed.hpp"
#include "linkstate/link_state.hpp"
#include "obs/stopwatch.hpp"
#include "span_trace.hpp"
#include "stats/runner.hpp"
#include "stats/summary.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace ftsched::e2e {

namespace {

// FT(3,16): the paper's three-level point with 4096 PEs (Table 1's largest).
constexpr std::uint32_t kLevels = 3;
constexpr std::uint32_t kArity = 16;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
// Enough unit calls that p99 has at least ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 1200;
// Rounds last some 20-55 ms, shorter than most slow spells of the shared
// host, so a round and the HostSpeed samples on either side of it mostly
// see the same host speed. A round whose samples differ by more than
// kSteadyHostRatio saw the host change speed during it: its calls stay out
// of the tail windows, where the change would read as a tail of the code.
constexpr double kSteadyHostRatio = 1.15;
// Per-layer counts cover the traced pass's first kLayerRounds rounds, so
// for one seed they do not depend on the host's speed.
constexpr std::uint64_t kLayerRounds = 12;
// Set-up is timed in two bursts, one before and one after the timed phase.
// A burst runs at least kSetupMinSlices slices and more until
// kSetupBurstSeconds have passed. A slice repeats the set-up until
// kSetupSliceSeconds have passed and yields the mean set-up time over the
// HostSpeed slowdown around the slice; the burst yields the median slice.
// A burst early in the process often still runs slow after that (page
// faults, cold caches), so setup_s is the lower burst value.
constexpr std::size_t kSetupMinSlices = 3;
constexpr double kSetupSliceSeconds = 0.001;
constexpr double kSetupBurstSeconds = 0.25;

// Independent input streams drawn from the one --seed.
constexpr std::uint64_t kAdmitStream = 1;
constexpr std::uint64_t kChurnStream = 2;
constexpr std::uint64_t kRecoveryStream = 3;
constexpr std::uint64_t kFabricSeedStream = 4;

double micros_of(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
double seconds_of(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Mean ns per request of the spans named `name`, each of which handled
/// `per_span` requests.
double ns_per_request(const SpanTrace& trace, const char* name,
                      std::uint64_t per_span) {
  const SpanTotals totals = trace.totals(name);
  return ratio(totals.total_ns, totals.count * per_span);
}

double mean_us(const SpanTrace& trace, const char* name) {
  const SpanTotals totals = trace.totals(name);
  return ratio(totals.total_ns, totals.count) * 1e-3;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  std::uint64_t state = seed ^ (stream << 56U) ^ (index * kGolden);
  return splitmix64(state);
}

void mix(std::uint64_t& digest, std::uint64_t value) {
  std::uint64_t state = digest ^ value;
  digest = splitmix64(state);
}

/// Order-sensitive hash of every decision in a schedule.
std::uint64_t outcome_digest(const ScheduleResult& result) {
  std::uint64_t digest = result.outcomes.size();
  for (const RequestOutcome& o : result.outcomes) {
    mix(digest, (o.granted ? 1U : 0U) |
                    (static_cast<std::uint64_t>(o.reason) << 1U) |
                    (std::uint64_t{o.fail_level} << 8U) |
                    (std::uint64_t{o.path.ancestor_level} << 16U));
    for (const std::uint32_t port : o.path.ports) mix(digest, port);
  }
  return digest;
}

bool same_summary(const Summary& a, const Summary& b) {
  return a.count == b.count && a.mean == b.mean && a.min == b.min &&
         a.max == b.max && a.stddev == b.stddev;
}

std::unique_ptr<Scheduler> scheduler_named(const std::string& name,
                                           std::uint64_t seed) {
  auto made = make_scheduler(name, seed);
  FT_REQUIRE(made.ok());
  return std::move(made).value();
}

/// Rejections of one schedule by RequestOutcome::fail_level.
struct Rejects {
  std::array<std::uint64_t, kLevels> by_level{};
  std::uint64_t leaf_busy = 0;

  void add(const ScheduleResult& result) {
    for (const RequestOutcome& o : result.outcomes) {
      if (o.granted) continue;
      if (o.fail_level < by_level.size()) ++by_level[o.fail_level];
      if (o.reason == RejectReason::kLeafBusy) ++leaf_busy;
    }
  }

  void export_to(std::map<std::string, double>& layer) const {
    layer["core.schedule.reject_level0"] =
        static_cast<double>(by_level[0]);
    layer["core.schedule.reject_level1"] =
        static_cast<double>(by_level[1]);
  }
};

/// What one round did. Counts are a function of (seed, round index).
struct Tally {
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t granted = 0;
  std::uint64_t asked = 0;
  std::uint64_t decided = 0;
  std::uint64_t timed_ns = 0;
  std::vector<double> latency_us;
  std::uint64_t failed = 0;
  std::string failure;
};

// --- fig9 -------------------------------------------------------------------
//
// The paper's protocol as researchers run it: random full permutations,
// levelwise then local-random, every repetition verified. A round is one
// run_experiment point of 4 repetitions per scheduler, and the round is
// the unit call; round k runs repetitions 4k… of the infinite experiment
// (see config_for). Traced, the runner loop is mirrored call by call so each
// layer gets its own span, and the mirror must reproduce run_experiment's
// Summary bit for bit.
class Fig9 {
 public:
  static constexpr std::array<const char*, 2> kSchedulers = {"levelwise",
                                                             "local-random"};
  // 1,200 repetitions per scheduler, the span over which the counts and
  // schedulability are taken.
  static constexpr std::uint64_t kCountedRounds = 300;

  Fig9(const RunConfig& config, SpanTrace* trace)
      : tree_(FatTree::symmetric(kLevels, kArity)),
        base_seed_(config.seed + kArity),
        reps_(config.smoke ? 1 : 4),
        trace_(trace) {
    if (trace_ == nullptr) return;
    rep_name_ = trace_->intern("bench.rep");
    generate_name_ = trace_->intern("workload.generate");
    reset_name_ = trace_->intern("linkstate.reset");
    schedule_name_[0] = trace_->intern("core.schedule.levelwise");
    schedule_name_[1] = trace_->intern("core.schedule.local-random");
    verify_name_ = trace_->intern("core.verify");
    summary_name_ = trace_->intern("stats.summary");
    for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
      reference_[s] =
          run_experiment(tree_, config_for(s, 0, reps_)).schedulability;
    }
  }

  std::string check() const { return {}; }

  Tally round() {
    Tally t;
    if (trace_ == nullptr) {
      run_round(t);
    } else {
      mirror_round(t);
    }
    ++round_;
    return t;
  }

  void layers(const SpanTrace& trace,
              std::map<std::string, double>& layer) const {
    const std::uint64_t n = tree_.node_count();
    layer["workload.generate.ns_per_req"] =
        ns_per_request(trace, "workload.generate", n);
    layer["linkstate.reset.ns_per_batch"] =
        ns_per_request(trace, "linkstate.reset", 1);
    layer["core.schedule.levelwise.ns_per_req"] =
        ns_per_request(trace, "core.schedule.levelwise", n);
    layer["core.schedule.local-random.ns_per_req"] =
        ns_per_request(trace, "core.schedule.local-random", n);
    layer["core.verify.ns_per_req"] = ns_per_request(trace, "core.verify", n);
    layer["core.verify.channels_checked"] =
        static_cast<double>(channels_checked_);
    layer["stats.summary.us"] = mean_us(trace, "stats.summary");
    rejects_.export_to(layer);
  }

 private:
  /// run_experiment seeds repetition r from seed + φ·(r+1), so shifting the
  /// base seed by φ·first runs repetitions first… of the full-length
  /// experiment, bit for bit (the scheduler is reseeded per repetition).
  ExperimentConfig config_for(std::size_t s, std::uint64_t first,
                              std::size_t reps) const {
    ExperimentConfig c;
    c.scheduler = kSchedulers[s];
    c.pattern = TrafficPattern::kRandomPermutation;
    c.repetitions = reps;
    c.seed = base_seed_ + kGolden * first;
    c.verify = true;
    c.threads = 1;
    return c;
  }

  void record_counts(Tally& t, const std::array<std::uint64_t, 2>& granted,
                     const std::array<std::uint64_t, 2>& asked) const {
    t.granted = granted[0];
    t.asked = asked[0];
    t.counts = {{"levelwise_granted", granted[0]},
                {"local_random_granted", granted[1]},
                {"requests", asked[0] + asked[1]}};
  }

  void run_round(Tally& t) {
    std::array<std::uint64_t, 2> granted{};
    std::array<std::uint64_t, 2> asked{};
    for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
      const ExperimentConfig c = config_for(s, round_ * reps_, reps_);
      const obs::Stopwatch watch;
      const ExperimentPoint point = run_experiment(tree_, c);
      t.timed_ns += watch.elapsed_ns();
      t.decided += point.total_requests;
      granted[s] = point.total_granted;
      asked[s] = point.total_requests;
    }
    // One sample per round: both schedulers' points. Timing the two calls
    // apart would pool two modes, and the median would sit between them.
    t.latency_us.push_back(micros_of(t.timed_ns));
    record_counts(t, granted, asked);
  }

  void mirror_round(Tally& t) {
    const std::uint64_t first = round_ * reps_;
    std::array<std::uint64_t, 2> granted{};
    std::array<std::uint64_t, 2> asked{};
    for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
      const ExperimentConfig c = config_for(s, first, reps_);
      const std::unique_ptr<Scheduler> scheduler =
          scheduler_named(c.scheduler, c.seed);
      LinkState state(tree_);
      const ScheduleVerifier verifier(tree_, VerifyOptions{c.allow_residual});
      std::vector<double> ratios(reps_, 0.0);
      for (std::size_t rep = 0; rep < reps_; ++rep) {
        const std::uint64_t unit = ++unit_;
        const ScopedSpan rep_span(trace_, rep_name_, unit);
        std::uint64_t mixed = c.seed + kGolden * (rep + 1);
        Xoshiro256ss workload_rng(splitmix64(mixed));
        scheduler->reseed(splitmix64(mixed));
        std::vector<Request> batch;
        {
          const ScopedSpan span(trace_, generate_name_, unit);
          batch = generate_pattern(tree_, c.pattern, workload_rng, c.workload);
        }
        {
          const ScopedSpan span(trace_, reset_name_, unit);
          state.reset();
        }
        ScheduleResult result;
        {
          const ScopedSpan span(trace_, schedule_name_[s], unit);
          result = scheduler->schedule(tree_, batch, state);
        }
        VerifyReport report;
        {
          const ScopedSpan span(trace_, verify_name_, unit);
          report = verifier.verify(batch, result, &state);
        }
        if (!report.ok()) {
          t.failure = "fig9: verifier rejected a " + c.scheduler +
                      " schedule: " + report.first();
          return;
        }
        ratios[rep] = result.schedulability_ratio();
        granted[s] += result.granted_count();
        asked[s] += result.outcomes.size();
        t.decided += result.outcomes.size();
        if (round_ < kLayerRounds) {
          channels_checked_ += report.channels_checked;
          rejects_.add(result);
        }
      }
      Summary summary;
      {
        const ScopedSpan span(trace_, summary_name_, ++unit_);
        summary = Summary::from(ratios);
      }
      if (round_ == 0 && !same_summary(summary, reference_[s])) {
        t.failure = "fig9: traced mirror of the runner loop does not "
                    "reproduce run_experiment's Summary for " +
                    c.scheduler;
        return;
      }
    }
    record_counts(t, granted, asked);
  }

  FatTree tree_;
  std::uint64_t base_seed_;
  std::size_t reps_;
  SpanTrace* trace_;
  std::uint64_t round_ = 0;
  std::uint64_t unit_ = 0;
  std::array<Summary, 2> reference_{};
  std::uint64_t channels_checked_ = 0;
  Rejects rejects_;
  std::uint32_t rep_name_ = 0;
  std::uint32_t generate_name_ = 0;
  std::uint32_t reset_name_ = 0;
  std::array<std::uint32_t, 2> schedule_name_{};
  std::uint32_t verify_name_ = 0;
  std::uint32_t summary_name_ = 0;
};

// --- admit ------------------------------------------------------------------
//
// Batch admission, the paper's hardware claim in software: a pool of seeded
// permutations, each scheduled and verified once by check(), then bare
// levelwise schedule() calls on a reset fabric cycling through the pool, 64
// calls a round. Every repeat must reproduce the pool entry's outcome digest.
class Admit {
 public:
  // 1,280 schedule calls, five passes over the pool: the first tail window
  // fills within them.
  static constexpr std::uint64_t kCountedRounds = 20;

  Admit(const RunConfig& config, SpanTrace* trace)
      : tree_(FatTree::symmetric(kLevels, kArity)),
        scheduler_(scheduler_named("levelwise", config.seed)),
        state_(tree_),
        trace_(trace),
        calls_per_round_(config.smoke ? 3 : 64) {
    if (trace_ != nullptr) {
      call_name_ = trace_->intern("bench.call");
      reset_name_ = trace_->intern("linkstate.reset");
      schedule_name_ = trace_->intern("core.schedule.levelwise");
      digest_name_ = trace_->intern("bench.digest");
    }
    const std::size_t pool = config.smoke ? 3 : 256;
    for (std::size_t i = 0; i < pool; ++i) {
      Xoshiro256ss rng(derive(config.seed, kAdmitStream, i));
      pool_.push_back(
          generate_pattern(tree_, TrafficPattern::kRandomPermutation, rng));
    }
  }

  /// Schedules and verifies every pool batch once and keeps its digest.
  std::string check() {
    const ScheduleVerifier verifier(tree_);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      state_.reset();
      const ScheduleResult result =
          scheduler_->schedule(tree_, pool_[i], state_);
      const VerifyReport report = verifier.verify(pool_[i], result, &state_);
      if (!report.ok()) {
        return "admit: verifier rejected pool batch " + std::to_string(i) +
               ": " + report.first();
      }
      digests_.push_back(outcome_digest(result));
      granted_.push_back(result.granted_count());
      rejects_.add(result);
    }
    return {};
  }

  Tally round() {
    Tally t;
    for (std::size_t call_index = 0; call_index < calls_per_round_;
         ++call_index) {
      const std::size_t i = next_++ % pool_.size();
      const std::uint64_t unit = ++unit_;
      const ScopedSpan call(trace_, call_name_, unit);
      {
        const ScopedSpan span(trace_, reset_name_, unit);
        state_.reset();
      }
      ScheduleResult result;
      const obs::Stopwatch watch;
      {
        const ScopedSpan span(trace_, schedule_name_, unit);
        result = scheduler_->schedule(tree_, pool_[i], state_);
      }
      const std::uint64_t ns = watch.elapsed_ns();
      t.timed_ns += ns;
      t.latency_us.push_back(micros_of(ns));
      t.decided += result.outcomes.size();
      t.granted += granted_[i];
      t.asked += pool_[i].size();
      const ScopedSpan span(trace_, digest_name_, unit);
      if (outcome_digest(result) != digests_[i]) {
        t.failure = "admit: repeat of pool batch " + std::to_string(i) +
                    " changed its outcome digest";
        return t;
      }
    }
    t.counts = {{"granted", t.granted}, {"attempted", t.asked}};
    return t;
  }

  void layers(const SpanTrace& trace,
              std::map<std::string, double>& layer) const {
    layer["linkstate.reset.ns_per_batch"] =
        ns_per_request(trace, "linkstate.reset", 1);
    layer["core.schedule.levelwise.ns_per_req"] =
        ns_per_request(trace, "core.schedule.levelwise", tree_.node_count());
    rejects_.export_to(layer);
  }

 private:
  FatTree tree_;
  std::unique_ptr<Scheduler> scheduler_;
  LinkState state_;
  SpanTrace* trace_;
  std::vector<std::vector<Request>> pool_;
  std::vector<std::uint64_t> digests_;
  std::vector<std::uint64_t> granted_;  ///< per pool batch, from check()
  std::size_t calls_per_round_;
  std::size_t next_ = 0;  ///< pool batch of the next call
  std::uint64_t unit_ = 0;
  Rejects rejects_;
  std::uint32_t call_name_ = 0;
  std::uint32_t reset_name_ = 0;
  std::uint32_t schedule_name_ = 0;
  std::uint32_t digest_name_ = 0;
};

// --- churn ------------------------------------------------------------------
//
// Long-lived circuits on an occupied fabric: a ConnectionManager held near
// 70% PE occupancy. Below the target an operation opens a batch of 32
// requests drawn from the free-endpoint pools; at or above it, it closes 32
// random circuits. A round is 4,096 operations, and operations continue
// across rounds (round k is operations 4096k…). After the fill and after
// every round the live LinkState must pass its audit and equal the
// occupancy re-derived from the open circuits' paths.
class Churn {
 public:
  // 49,152 operations, some 26,000 of them open_batch calls.
  static constexpr std::uint64_t kCountedRounds = 12;

  Churn(const RunConfig& config, SpanTrace* trace)
      : tree_(FatTree::symmetric(kLevels, kArity)),
        manager_(tree_),
        scheduler_(scheduler_named("levelwise", config.seed)),
        rng_(derive(config.seed, kChurnStream, 0)),
        target_(tree_.node_count() * 7 / 10),
        ops_per_round_(config.smoke ? 500 : 4096),
        trace_(trace) {
    if (trace_ != nullptr) {
      op_name_ = trace_->intern("bench.op");
      open_name_ = trace_->intern("core.conn.open_batch");
      close_name_ = trace_->intern("core.conn.close");
      gate_name_ = trace_->intern("bench.gate");
    }
    free_src_.resize(tree_.node_count());
    std::iota(free_src_.begin(), free_src_.end(), NodeId{0});
    free_dst_ = free_src_;
    // Warm fill to the target occupancy, untraced and uncounted.
    while (open_.size() < target_) open_op(nullptr, nullptr, 0);
  }

  std::string check() const {
    Tally fill;
    return gate(fill) ? std::string() : fill.failure;
  }

  Tally round() {
    Tally t;
    for (std::uint64_t op = 0; op < ops_per_round_; ++op) {
      const std::uint64_t unit = ++unit_;
      {
        const ScopedSpan span(trace_, op_name_, unit);
        if (open_.size() < target_) {
          open_op(&t, trace_, unit);
        } else {
          close_op(t, unit);
        }
      }
      if (round_ < kLayerRounds && trace_ != nullptr) {
        util_sum_[0] += manager_.level_utilization(0);
        util_sum_[1] += manager_.level_utilization(1);
        ++util_samples_;
      }
    }
    {
      const ScopedSpan span(trace_, gate_name_, unit_);
      if (!gate(t)) return t;
    }
    t.granted = opened_granted_;
    t.asked = opened_;
    t.counts = {{"open_requests", opened_},
                {"open_granted", opened_granted_},
                {"closes", closes_}};
    ++round_;
    opened_ = opened_granted_ = closes_ = 0;
    return t;
  }

  void layers(const SpanTrace& trace,
              std::map<std::string, double>& layer) const {
    layer["core.conn.open_ns_per_req"] =
        ratio(trace.totals("core.conn.open_batch").total_ns,
              traced_open_requests_);
    layer["core.conn.close_ns_per_op"] =
        ratio(trace.totals("core.conn.close").total_ns, traced_closes_);
    layer["core.conn.leaf_busy"] = static_cast<double>(rejects_.leaf_busy);
    layer["linkstate.util.level0"] =
        ratio(util_sum_[0], static_cast<double>(util_samples_));
    layer["linkstate.util.level1"] =
        ratio(util_sum_[1], static_cast<double>(util_samples_));
    rejects_.export_to(layer);
  }

 private:
  static constexpr std::size_t kBatch = 32;

  struct OpenCircuit {
    ConnectionId id = 0;
    Request request;
  };

  NodeId take(std::vector<NodeId>& pool) {
    const std::uint64_t i = rng_.below(pool.size());
    const NodeId node = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return node;
  }

  /// `t` null: warm fill (untimed, uncounted).
  void open_op(Tally* t, SpanTrace* trace, std::uint64_t unit) {
    const std::size_t k =
        std::min({kBatch, free_src_.size(), free_dst_.size()});
    batch_.clear();
    for (std::size_t i = 0; i < k; ++i) {
      const NodeId src = take(free_src_);
      batch_.push_back(Request{src, take(free_dst_)});
    }
    BatchOpenResult result;
    const obs::Stopwatch watch;
    {
      const ScopedSpan span(trace, open_name_, unit);
      result = manager_.open_batch(batch_, *scheduler_);
    }
    const std::uint64_t ns = watch.elapsed_ns();
    for (std::size_t i = 0; i < k; ++i) {
      if (result.ids[i]) {
        open_.push_back(OpenCircuit{*result.ids[i], batch_[i]});
      } else {
        free_src_.push_back(batch_[i].src);
        free_dst_.push_back(batch_[i].dst);
      }
    }
    if (t == nullptr) return;
    t->timed_ns += ns;
    t->latency_us.push_back(micros_of(ns));
    t->decided += k;
    opened_ += k;
    opened_granted_ += result.granted_count();
    if (trace_ != nullptr) traced_open_requests_ += k;
    if (round_ < kLayerRounds) rejects_.add(result.schedule);
  }

  void close_op(Tally& t, std::uint64_t unit) {
    closing_.clear();
    const std::size_t k = std::min(kBatch, open_.size());
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t at = rng_.below(open_.size());
      closing_.push_back(open_[at]);
      open_[at] = open_.back();
      open_.pop_back();
    }
    std::uint64_t failed = 0;
    const obs::Stopwatch watch;
    {
      const ScopedSpan span(trace_, close_name_, unit);
      for (const OpenCircuit& c : closing_) {
        if (!manager_.close(c.id).ok()) ++failed;
      }
    }
    t.timed_ns += watch.elapsed_ns();
    for (const OpenCircuit& c : closing_) {
      free_src_.push_back(c.request.src);
      free_dst_.push_back(c.request.dst);
    }
    t.failed += failed;
    t.decided += k;
    closes_ += k;
    if (trace_ != nullptr) traced_closes_ += k;
  }

  bool gate(Tally& t) const {
    const Status audit = manager_.state().audit();
    if (!audit.ok()) {
      t.failure = "churn: LinkState audit failed: " + audit.message();
      return false;
    }
    if (manager_.active_count() != open_.size()) {
      t.failure = "churn: open-circuit count differs from the client's";
      return false;
    }
    LinkState expected(tree_);
    for (const OpenCircuit& c : open_) {
      const Path* path = manager_.find(c.id);
      if (path == nullptr || path->src != c.request.src ||
          path->dst != c.request.dst ||
          !expected.path_available(tree_, *path)) {
        t.failure = "churn: circuit " + std::to_string(c.id) +
                    " is missing or overlaps another open circuit";
        return false;
      }
      expected.occupy_path(tree_, *path);
    }
    if (!(expected == manager_.state())) {
      t.failure = "churn: occupancy re-derived from the open circuits "
                  "differs from the live LinkState";
      return false;
    }
    return true;
  }

  FatTree tree_;
  ConnectionManager manager_;
  std::unique_ptr<Scheduler> scheduler_;
  Xoshiro256ss rng_;
  std::uint64_t target_;
  std::uint64_t ops_per_round_;
  SpanTrace* trace_;
  std::vector<NodeId> free_src_;
  std::vector<NodeId> free_dst_;
  std::vector<OpenCircuit> open_;
  std::vector<Request> batch_;
  std::vector<OpenCircuit> closing_;
  std::uint64_t round_ = 0;
  std::uint64_t unit_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t opened_granted_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t traced_open_requests_ = 0;
  std::uint64_t traced_closes_ = 0;
  std::array<double, 2> util_sum_{};
  std::uint64_t util_samples_ = 0;
  Rejects rejects_;
  std::uint32_t op_name_ = 0;
  std::uint32_t open_name_ = 0;
  std::uint32_t close_name_ = 0;
  std::uint32_t gate_name_ = 0;
};

// --- recovery ---------------------------------------------------------------
//
// Time from a cable-failure burst until every victim is re-granted or given
// up. Each episode builds a fresh Simulator + FabricManager
// (levelwise-balanced, default backoff retry), fills the fabric with one
// permutation and drains it, then fails 1% of the inter-switch cables at one
// tick and drains again; check_invariants runs untimed afterwards. A round
// is 4 episodes; round k runs episodes 4k….
class Recovery {
 public:
  // 1,200 bursts.
  static constexpr std::uint64_t kCountedRounds = 300;

  Recovery(const RunConfig& config, SpanTrace* trace)
      : tree_(FatTree::symmetric(kLevels, kArity)),
        seed_(config.seed),
        episodes_per_round_(config.smoke ? 1 : 4),
        trace_(trace) {
    if (trace_ != nullptr) {
      episode_name_ = trace_->intern("bench.episode");
      generate_name_ = trace_->intern("workload.generate");
      build_name_ = trace_->intern("fault.build");
      fill_name_ = trace_->intern("fault.fill");
      submit_name_ = trace_->intern("fault.submit");
      run_name_ = trace_->intern("des.run");
      burst_name_ = trace_->intern("fault.burst");
      fail_name_ = trace_->intern("fault.fail_cable");
      drain_name_ = trace_->intern("des.drain");
      invariants_name_ = trace_->intern("fault.check_invariants");
    }
    for (std::uint32_t level = 0; level + 1 < tree_.levels(); ++level) {
      for (std::uint64_t sw = 0; sw < tree_.switches_at(level); ++sw) {
        for (std::uint32_t port = 0; port < tree_.parent_arity(); ++port) {
          cables_.push_back(CableId{level, sw, port});
        }
      }
    }
    burst_size_ = cables_.size() / 100;
    plans_ = make_plans(0, nullptr);
  }

  std::string check() const { return {}; }

  Tally round() {
    Tally t;
    if (round_ > 0) plans_ = make_plans(round_ * episodes_per_round_, trace_);
    Counters c;
    for (const Plan& plan : plans_) {
      if (!episode(plan, t, c)) return t;
    }
    t.granted = c.recovered;
    t.asked = c.victims;
    t.counts = {{"fill_granted", c.fill_granted},
                {"victims", c.victims},
                {"recovered", c.recovered}};
    if (round_ < kLayerRounds) first_.add(c);
    ++round_;
    return t;
  }

  void layers(const SpanTrace& trace,
              std::map<std::string, double>& layer) const {
    const double episodes = static_cast<double>(first_.ticks.size());
    layer["workload.generate.ns_per_req"] =
        ns_per_request(trace, "workload.generate", tree_.node_count());
    layer["fault.fill.us_p50"] = percentile(fill_us_, 0.5);
    layer["fault.retries_per_episode"] =
        static_cast<double>(first_.retries) / episodes;
    layer["fault.retry.useful_share"] =
        ratio(first_.retry_grants, first_.retries);
    layer["des.events_per_episode"] =
        static_cast<double>(first_.events) / episodes;
    layer["fault.fail_cable.us_per_cable"] =
        mean_us(trace, "fault.fail_cable");
    layer["des.drain.us_p50"] = percentile(drain_us_, 0.5);
    layer["fault.victims_per_burst"] =
        static_cast<double>(first_.victims) / episodes;
    layer["fault.recovery_ticks_p50"] = percentile(first_.ticks, 0.5);
    layer["fault.check_invariants.us"] =
        mean_us(trace, "fault.check_invariants");
  }

 private:
  struct Plan {
    std::uint64_t index = 0;
    std::vector<Request> requests;
    std::vector<CableId> cables;
  };

  /// Per-round totals; deterministic per (seed, round).
  struct Counters {
    std::uint64_t fill_granted = 0;
    std::uint64_t victims = 0;
    std::uint64_t recovered = 0;
    std::uint64_t retries = 0;
    std::uint64_t retry_grants = 0;  ///< grants that needed a retry
    std::uint64_t events = 0;
    std::vector<double> ticks;  ///< burst → drained, simulated ticks

    void add(const Counters& other) {
      fill_granted += other.fill_granted;
      victims += other.victims;
      recovered += other.recovered;
      retries += other.retries;
      retry_grants += other.retry_grants;
      events += other.events;
      ticks.insert(ticks.end(), other.ticks.begin(), other.ticks.end());
    }
  };

  /// Inputs of the round starting at episode `first`: untimed, but traced
  /// (inside the traced loop) so the loop's wall stays attributed.
  std::vector<Plan> make_plans(std::uint64_t first, SpanTrace* trace) {
    std::vector<Plan> plans(episodes_per_round_);
    std::vector<std::uint32_t> order(cables_.size());
    for (std::size_t e = 0; e < plans.size(); ++e) {
      Plan& plan = plans[e];
      plan.index = first + e;
      Xoshiro256ss rng(derive(seed_, kRecoveryStream, plan.index));
      {
        const ScopedSpan span(trace, generate_name_, plan.index);
        plan.requests =
            generate_pattern(tree_, TrafficPattern::kRandomPermutation, rng);
      }
      // Partial Fisher–Yates: burst_size_ distinct cables.
      std::iota(order.begin(), order.end(), 0U);
      for (std::size_t i = 0; i < burst_size_; ++i) {
        const std::size_t j = i + rng.below(order.size() - i);
        std::swap(order[i], order[j]);
        plan.cables.push_back(cables_[order[i]]);
      }
    }
    return plans;
  }

  bool episode(const Plan& plan, Tally& t, Counters& c) {
    const std::uint64_t unit = plan.index;
    const ScopedSpan episode_span(trace_, episode_name_, unit);
    Simulator sim;
    std::optional<FabricManager> fabric;
    {
      const ScopedSpan span(trace_, build_name_, unit);
      FabricOptions options;
      options.scheduler = "levelwise-balanced";
      options.seed = derive(seed_, kFabricSeedStream, plan.index);
      fabric.emplace(tree_, sim, std::move(options));
    }
    const obs::Stopwatch fill_watch;
    {
      const ScopedSpan fill(trace_, fill_name_, unit);
      {
        const ScopedSpan span(trace_, submit_name_, unit);
        fabric->submit(plan.requests, 0);
      }
      const ScopedSpan span(trace_, run_name_, unit);
      sim.run();
    }
    const std::uint64_t fill_ns = fill_watch.elapsed_ns();
    const std::uint64_t fill_granted = fabric->open_circuits();
    const SimTime burst_at = sim.now();
    const obs::Stopwatch burst_watch;
    std::uint64_t drain_ns = 0;
    {
      const ScopedSpan burst(trace_, burst_name_, unit);
      for (const CableId& cable : plan.cables) {
        const ScopedSpan span(trace_, fail_name_, unit);
        fabric->fail_cable(cable);
      }
      const ScopedSpan span(trace_, drain_name_, unit);
      const obs::Stopwatch drain_watch;
      sim.run();
      drain_ns = drain_watch.elapsed_ns();
    }
    const std::uint64_t burst_ns = burst_watch.elapsed_ns();
    Status invariants;
    {
      const ScopedSpan span(trace_, invariants_name_, unit);
      invariants = fabric->check_invariants();
    }
    if (!invariants.ok()) {
      t.failure = "recovery: episode " + std::to_string(plan.index) +
                  " broke a fabric invariant: " + invariants.message();
      return false;
    }
    const FabricStats& stats = fabric->stats();
    t.timed_ns += fill_ns + burst_ns;
    t.latency_us.push_back(micros_of(burst_ns));
    t.decided += plan.requests.size() + stats.victims;
    if (trace_ != nullptr) {
      fill_us_.push_back(micros_of(fill_ns));
      drain_us_.push_back(micros_of(drain_ns));
    }
    c.fill_granted += fill_granted;
    c.victims += stats.victims;
    c.recovered += stats.recovered;
    c.retries += stats.retries;
    c.retry_grants += stats.grants - stats.first_attempt_granted;
    c.events += sim.events_processed();
    c.ticks.push_back(static_cast<double>(sim.now() - burst_at));
    return true;
  }

  FatTree tree_;
  std::uint64_t seed_;
  std::size_t episodes_per_round_;
  SpanTrace* trace_;
  std::vector<CableId> cables_;
  std::size_t burst_size_ = 0;
  std::vector<Plan> plans_;
  std::uint64_t round_ = 0;
  Counters first_;  ///< over the first kLayerRounds rounds
  std::vector<double> fill_us_;
  std::vector<double> drain_us_;
  std::uint32_t episode_name_ = 0;
  std::uint32_t generate_name_ = 0;
  std::uint32_t build_name_ = 0;
  std::uint32_t fill_name_ = 0;
  std::uint32_t submit_name_ = 0;
  std::uint32_t run_name_ = 0;
  std::uint32_t burst_name_ = 0;
  std::uint32_t fail_name_ = 0;
  std::uint32_t drain_name_ = 0;
  std::uint32_t invariants_name_ = 0;
};

// --- run loop ---------------------------------------------------------------

/// One set-up burst (see kSetupBurstSeconds): the median set-up time at
/// reference host speed. The last instance built stays in `workload`; the
/// old one is freed first.
template <typename Workload>
double time_setup(const RunConfig& config, HostSpeed& host,
                  std::unique_ptr<Workload>& workload) {
  std::vector<double> slices;
  double slowdown_before = host.slowdown();
  const obs::Stopwatch burst;
  while (slices.empty() ||
         (!config.smoke &&
          (slices.size() < kSetupMinSlices ||
           seconds_of(burst.elapsed_ns()) < kSetupBurstSeconds))) {
    const obs::Stopwatch slice;
    std::uint64_t setup_ns = 0;
    std::uint64_t setups = 0;
    do {
      workload.reset();
      const obs::Stopwatch watch;
      workload = std::make_unique<Workload>(config, nullptr);
      setup_ns += watch.elapsed_ns();
      ++setups;
    } while (seconds_of(slice.elapsed_ns()) < kSetupSliceSeconds);
    const double slowdown_after = host.slowdown();
    slices.push_back(seconds_of(setup_ns) / static_cast<double>(setups) *
                     2.0 / (slowdown_before + slowdown_after));
    slowdown_before = slowdown_after;
  }
  return percentile(slices, 0.5);
}

/// A set-up burst (its last instance runs), the set-up's correctness gate
/// (check(), untimed), then the untraced timed phase: rounds until
/// --seconds have passed and the workload's kCountedRounds are done, then
/// the second set-up burst. Counts add up over those counted
/// rounds, so for one seed they never depend on the host's speed. Timings
/// are summarised per round (rate, p50, both at reference host speed: the
/// round's slowdown is the mean of the HostSpeed samples on either side,
/// which a short round mostly shares with the round itself) and per window
/// of kMinLatencySamples consecutive unit calls of steady rounds (see
/// kSteadyHostRatio), each divided by its round's p50 (the p99 of that
/// ratio), so memory does not grow with the run and main() can report
/// medians of them. A workload whose calls fill no window (fig9: one call
/// per round, every ratio 1) gets the p99 of its partial window. With a trace, the untraced phase gets 80% of the time and a fresh
/// instance then re-runs a quarter of its rounds with spans; its round 0
/// must reproduce the untraced round 0 counts.
template <typename Workload>
RunResult drive(const RunConfig& config, SpanTrace* trace) {
  RunResult result;
  HostSpeed host;
  std::unique_ptr<Workload> workload;
  result.setup_s.push_back(time_setup(config, host, workload));
  result.failure = workload->check();
  if (!result.failure.empty()) return result;

  const double budget_s =
      config.smoke ? 0.0 : config.seconds * (trace != nullptr ? 0.8 : 1.0);
  const std::uint64_t counted_rounds =
      config.smoke ? 1 : Workload::kCountedRounds;
  const std::size_t window_size = config.smoke ? 1 : kMinLatencySamples;
  std::map<std::string, std::uint64_t> first_counts;
  std::vector<double> window;
  window.reserve(window_size);
  const obs::Stopwatch loop;
  std::uint64_t host_ns = 0;  // spent in HostSpeed samples, not in rounds
  const auto sample_host = [&host, &host_ns] {
    const obs::Stopwatch watch;
    const double slowdown = host.slowdown();
    host_ns += watch.elapsed_ns();
    return slowdown;
  };
  double slowdown_before = sample_host();
  while (result.rounds < counted_rounds ||
         seconds_of(loop.elapsed_ns()) < budget_s) {
    const Tally t = workload->round();
    if (!t.failure.empty()) {
      result.failure = t.failure;
      return result;
    }
    const double slowdown_after = sample_host();
    const double slowdown = (slowdown_before + slowdown_after) / 2.0;
    const bool steady = std::max(slowdown_before, slowdown_after) <=
                        kSteadyHostRatio *
                            std::min(slowdown_before, slowdown_after);
    slowdown_before = slowdown_after;
    if (result.rounds == 0) first_counts = t.counts;
    if (result.rounds < counted_rounds) {
      for (const auto& [name, value] : t.counts) result.counts[name] += value;
      result.granted += t.granted;
      result.asked += t.asked;
    }
    ++result.rounds;
    result.decided += t.decided;
    result.failed += t.failed;
    result.samples += t.latency_us.size();
    result.round_slowdown.push_back(slowdown);
    result.round_rate.push_back(static_cast<double>(t.decided) /
                                seconds_of(t.timed_ns) * slowdown);
    const double p50 = percentile(t.latency_us, 0.5);
    result.round_p50_us.push_back(p50 / slowdown);
    if (!steady && !config.smoke) continue;
    ++result.steady_rounds;
    for (const double us : t.latency_us) {
      window.push_back(us / p50);
      if (window.size() == window_size) {
        result.window_tail.push_back(percentile(window, 0.99));
        window.clear();
      }
    }
  }
  if (result.window_tail.empty()) {
    // No window filled; with no steady round at all, no tail is known.
    result.window_tail.push_back(window.empty() ? 1.0
                                                : percentile(window, 0.99));
  }
  result.loop_s = seconds_of(loop.elapsed_ns() - host_ns);
  if (trace == nullptr) {
    result.setup_s.push_back(time_setup(config, host, workload));
    return result;
  }

  Workload traced(config, trace);
  result.failure = traced.check();
  if (!result.failure.empty()) return result;
  result.traced_rounds = (result.rounds + 3) / 4;
  const std::uint32_t loop_name = trace->intern("bench.loop");
  const obs::Stopwatch traced_loop;
  {
    const ScopedSpan span(trace, loop_name, 0);
    for (std::uint64_t r = 0; r < result.traced_rounds; ++r) {
      const Tally t = traced.round();
      if (!t.failure.empty()) {
        result.failure = t.failure;
        return result;
      }
      if (r == 0 && t.counts != first_counts) {
        result.failure = "traced round 0 counts differ from the untraced run";
        return result;
      }
    }
  }
  result.traced_loop_s = seconds_of(traced_loop.elapsed_ns());
  traced.layers(*trace, result.layer);
  return result;
}

}  // namespace

RunResult run_fig9(const RunConfig& config, SpanTrace* trace) {
  return drive<Fig9>(config, trace);
}

RunResult run_admit(const RunConfig& config, SpanTrace* trace) {
  return drive<Admit>(config, trace);
}

RunResult run_churn(const RunConfig& config, SpanTrace* trace) {
  return drive<Churn>(config, trace);
}

RunResult run_recovery(const RunConfig& config, SpanTrace* trace) {
  return drive<Recovery>(config, trace);
}

}  // namespace ftsched::e2e
