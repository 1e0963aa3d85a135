// Throughput microbenchmarks (google-benchmark): how fast is the software
// implementation of each scheduler, and do the primitives scale the way the
// complexity claims say (O(l·N) total work for the level-wise scheduler,
// one AND + find-first per request-level)?
#include <benchmark/benchmark.h>

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "hw/pipeline.hpp"
#include "stats/runner.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

const FatTree& tree_for(std::uint32_t levels, std::uint32_t w) {
  // Benchmarks reuse topologies; cache them keyed by (levels, w).
  static std::map<std::pair<std::uint32_t, std::uint32_t>, FatTree>* cache =
      new std::map<std::pair<std::uint32_t, std::uint32_t>, FatTree>();
  auto it = cache->find({levels, w});
  if (it == cache->end()) {
    it = cache->emplace(std::pair{levels, w}, FatTree::symmetric(levels, w))
             .first;
  }
  return it->second;
}

void schedule_benchmark(benchmark::State& state, const char* scheduler_name) {
  const auto levels = static_cast<std::uint32_t>(state.range(0));
  const auto w = static_cast<std::uint32_t>(state.range(1));
  const FatTree& tree = tree_for(levels, w);
  const std::unique_ptr<Scheduler> scheduler =
      make_scheduler(scheduler_name, 1).value();
  Xoshiro256ss rng(42);
  const auto batch = random_permutation(tree.node_count(), rng);
  LinkState link_state(tree);
  for (auto _ : state) {
    link_state.reset();
    benchmark::DoNotOptimize(scheduler->schedule(tree, batch, link_state));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  state.counters["nodes"] = static_cast<double>(tree.node_count());
}

void BM_Levelwise(benchmark::State& state) {
  schedule_benchmark(state, "levelwise");
}
void BM_Local(benchmark::State& state) { schedule_benchmark(state, "local"); }
void BM_Turnback(benchmark::State& state) {
  schedule_benchmark(state, "turnback");
}
void BM_Matching2(benchmark::State& state) {
  schedule_benchmark(state, "matching2");
}

BENCHMARK(BM_Levelwise)
    ->Args({2, 16})
    ->Args({2, 64})
    ->Args({3, 8})
    ->Args({3, 16})
    ->Args({4, 7});
BENCHMARK(BM_Local)->Args({2, 64})->Args({3, 16})->Args({4, 7});
BENCHMARK(BM_Turnback)->Args({3, 8})->Args({3, 16});
BENCHMARK(BM_Matching2)->Args({2, 16})->Args({2, 64});

// End-to-end experiment engine at varying fan-out widths: the paper grid's
// unit of work (one fig9b point: schedule + verify, 100 permutations) as a
// function of --threads. On a single-core host the >1 widths measure pure
// pool overhead; on a real machine they trace the scaling curve recorded in
// docs/PERFORMANCE.md. Results are bit-identical across widths (tested by
// Runner.* determinism tests), so every width does the same work.
void BM_ExperimentEngine(benchmark::State& state) {
  const FatTree& tree = tree_for(3, 8);
  ExperimentConfig config;
  config.scheduler = "levelwise";
  config.repetitions = 32;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(tree, config));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(config.repetitions * tree.node_count()));
  state.counters["threads"] = static_cast<double>(config.threads);
}
BENCHMARK(BM_ExperimentEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineSchedule(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const FatTree& tree = tree_for(3, w);
  LevelwisePipeline pipeline(tree);
  Xoshiro256ss rng(7);
  const auto batch = random_permutation(tree.node_count(), rng);
  for (auto _ : state) {
    pipeline.reset();
    benchmark::DoNotOptimize(pipeline.schedule(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PipelineSchedule)->Arg(4)->Arg(8)->Arg(16);

void BM_AscendPrimitive(benchmark::State& state) {
  const FatTree& tree = tree_for(4, 7);
  std::uint64_t index = 0;
  std::uint32_t port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.ascend(0, index, port));
    index = (index + 123) % tree.switches_at(0);
    port = (port + 1) % 7;
  }
}
BENCHMARK(BM_AscendPrimitive);

void BM_FirstAvailablePort(benchmark::State& state) {
  const FatTree& tree = tree_for(2, 64);
  LinkState link_state(tree);
  // Half-occupied rows: realistic mid-batch AND work.
  Xoshiro256ss rng(3);
  for (std::uint64_t sw = 0; sw < link_state.rows_at(0); ++sw) {
    for (std::uint32_t p = 0; p < 64; ++p) {
      if (rng.below(2)) link_state.set_ulink(0, sw, p, false);
      if (rng.below(2)) link_state.set_dlink(0, sw, p, false);
    }
  }
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link_state.first_available_port(0, a, b));
    a = (a + 7) % link_state.rows_at(0);
    b = (b + 13) % link_state.rows_at(0);
  }
}
BENCHMARK(BM_FirstAvailablePort);

}  // namespace
}  // namespace ftsched

// Expanded BENCHMARK_MAIN: unless the caller already chose an output file,
// drop the machine-readable BENCH_perf_scheduler.json next to the console
// report, so CI and the perf-regression workflow always get JSON for free.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.push_back(argv[0]);
  std::string out_path = "BENCH_perf_scheduler.json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
      out_path = arg.substr(16);
    } else if (arg.rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
    args.push_back(argv[i]);
  }
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
