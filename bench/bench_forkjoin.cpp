// Fork-join benchmarks: the per-edge analysis pipeline (pacing +
// schedule-alignment + capacities) versus graph size, and simulator
// throughput on fork-join topologies (the join actors exercise the
// multi-input enabling path that chains never hit).
#include <benchmark/benchmark.h>

#include "analysis/buffer_sizing.hpp"
#include "models/synthetic.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"

namespace {

using namespace vrdf;

models::SyntheticChain make_model(std::size_t stages) {
  models::RandomForkJoinSpec spec;
  spec.seed = 13;
  spec.stages = stages;
  spec.max_branches = 3;
  spec.max_branch_length = 2;
  spec.max_segment_length = 1;
  spec.variable_percent = 50;
  return models::make_random_fork_join(spec);
}

void BM_ForkJoinCapacityVsStages(benchmark::State& state) {
  const models::SyntheticChain model =
      make_model(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(model.graph, model.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForkJoinCapacityVsStages)->RangeMultiplier(2)->Range(1, 16)
    ->Complexity(benchmark::oN);

void BM_AvPipelineCapacityComputation(benchmark::State& state) {
  const models::AvSyncPipeline app = models::make_av_sync_pipeline();
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(app.graph, app.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
}
BENCHMARK(BM_AvPipelineCapacityComputation);

void BM_SimulatorForkJoinFirings(benchmark::State& state) {
  models::SyntheticChain model = make_model(2);
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  analysis::apply_capacities(model.graph, sized);
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim(model.graph);
    sim.set_default_sources(42);
    sim::StopCondition stop;
    stop.firing_target =
        sim::StopCondition::FiringTarget{model.constraint.actor, 2000};
    const sim::RunResult result = sim.run(stop);
    fired += result.total_firings;
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_SimulatorForkJoinFirings);

void BM_VerifyAvPipeline(benchmark::State& state) {
  // The full two-phase sufficiency check on the A/V model — the cost of
  // one entry of the ForkJoinSufficiency test sweep.
  models::AvSyncPipeline app = models::make_av_sync_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 500;
  for (auto _ : state) {
    const sim::VerifyResult verdict =
        sim::verify_throughput(app.graph, {app.constraint}, {}, options);
    benchmark::DoNotOptimize(verdict.ok);
  }
}
BENCHMARK(BM_VerifyAvPipeline);

}  // namespace

BENCHMARK_MAIN();
