// Shared-platform deployment performance (PR 10).  Compiled into
// bench_perf (no own main) so the `bench` target's BENCH_PR<N>.json
// captures the series:
//  - BM_DeploymentAnalysis: one-shot analyze_deployment throughput —
//    κ derivation for every binding, the Sec 3.3 construction and the
//    full capacity analysis, swept over deployment size;
//  - BM_SlotRetuneIncremental: a DeploymentController slot retune
//    (wheel check + κ re-derivation + IncrementalAnalysis::retune on
//    cached pacing), the deployment analogue of the PR 7 retune path;
//  - BM_FrontierSweep: the full capacity-vs-allocation frontier
//    (slot budgets × stream counts × seeds, verification included) at
//    1 and 4 threads.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/deployment.hpp"
#include "sim/deployment_frontier.hpp"

namespace {

using namespace vrdf;

struct BenchDeployment {
  taskgraph::TaskGraph tasks;
  sched::Platform platform;
  std::vector<analysis::DeploymentConstraint> streams;
  std::vector<std::string> names;
};

// `streams` fork chains of 3 tasks off a shared root, bound round-robin
// across two 1 ms TDM wheels at slots sized to the densest wheel.
BenchDeployment make_bench_deployment(std::int64_t streams) {
  BenchDeployment d;
  const Duration wheel = milliseconds(Rational(1));
  (void)d.platform.add_processor("cpu0", wheel);
  (void)d.platform.add_processor("cpu1", wheel);
  const std::int64_t total = 1 + streams * 3;
  const std::int64_t per_wheel = (total + 1) / 2;
  const std::int64_t slot_sixteenths =
      16 / per_wheel > 0 ? 16 / per_wheel : 1;
  std::int64_t index = 0;
  const auto add = [&](const std::string& name) {
    const taskgraph::TaskId id = d.tasks.add_task(name, wheel);
    d.platform.bind_task(
        name, static_cast<std::size_t>(index % 2),
        Duration(wheel.seconds() * Rational(slot_sixteenths, 16)),
        Duration(wheel.seconds() * Rational(3 + index % 5, 64)));
    d.names.push_back(name);
    ++index;
    return id;
  };
  const auto task_name = [](std::int64_t s, std::int64_t t) {
    std::string name = "s";
    name += std::to_string(s);
    name += 't';
    name += std::to_string(t);
    return name;
  };
  const taskgraph::TaskId root = add("root");
  for (std::int64_t s = 0; s < streams; ++s) {
    taskgraph::TaskId previous = root;
    for (std::int64_t t = 0; t < 3; ++t) {
      const taskgraph::TaskId id = add(task_name(s, t));
      (void)d.tasks.add_buffer(previous, id,
                               dataflow::RateSet::singleton(1),
                               dataflow::RateSet::singleton(1));
      previous = id;
    }
    d.streams.push_back(analysis::DeploymentConstraint{
        task_name(s, 2), milliseconds(Rational(8))});
  }
  return d;
}

void BM_DeploymentAnalysis(benchmark::State& state) {
  const BenchDeployment d = make_bench_deployment(state.range(0));
  std::int64_t total_capacity = 0;
  for (auto _ : state) {
    const analysis::DeploymentResult result =
        analysis::analyze_deployment(d.tasks, d.platform, d.streams);
    benchmark::DoNotOptimize(result.analysis.total_capacity);
    total_capacity = result.analysis.total_capacity;
  }
  state.counters["tasks"] = static_cast<double>(d.names.size());
  state.counters["total_capacity"] = static_cast<double>(total_capacity);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeploymentAnalysis)->Arg(2)->Arg(4);

void BM_SlotRetuneIncremental(benchmark::State& state) {
  const BenchDeployment d = make_bench_deployment(state.range(0));
  analysis::DeploymentController controller(d.tasks, d.platform, d.streams);
  const Duration wheel = milliseconds(Rational(1));
  const Duration narrow(wheel.seconds() * Rational(1, 16));
  const Duration wide(wheel.seconds() * Rational(2, 16));
  bool flip = false;
  for (auto _ : state) {
    const analysis::DeploymentDecision decision =
        controller.set_slot(d.names.back(), flip ? narrow : wide);
    benchmark::DoNotOptimize(decision.accepted);
    flip = !flip;
  }
  const analysis::InvalidationStats& stats = controller.engine().stats();
  state.counters["pacing_cache_hits"] =
      static_cast<double>(stats.pacing_cache_hits);
  state.counters["pairs_reused"] = static_cast<double>(stats.pairs_reused);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlotRetuneIncremental)->Arg(2)->Arg(4);

void BM_FrontierSweep(benchmark::State& state) {
  sim::FrontierSpec spec;
  spec.stream_counts = {1, 2};
  spec.slot_sixteenths = {1, 2, 4};
  spec.seeds_per_cell = 2;
  spec.observe_firings = 60;
  const sim::FrontierSweep sweep(spec);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::int64_t admitted = 0;
  for (auto _ : state) {
    const sim::FrontierReport report = sweep.run(threads);
    benchmark::DoNotOptimize(report.total_items);
    admitted = report.admitted;
  }
  state.counters["items"] = static_cast<double>(sweep.items().size());
  state.counters["admitted"] = static_cast<double>(admitted);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sweep.items().size()));
}
BENCHMARK(BM_FrontierSweep)->Arg(1)->Arg(4);

}  // namespace
