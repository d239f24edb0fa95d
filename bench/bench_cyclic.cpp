// Cyclic-topology benchmarks: analysis cost versus the number of feedback
// loops, the inverse min-period computation on a cyclic graph, and
// simulation throughput of the feedback (rate-control) pipeline.
//
// Compiled into the bench_perf binary (see CMakeLists.txt) so the
// `bench` target's BENCH_PR<N>.json captures these series alongside the
// chain/fork-join ones; this file intentionally has no BENCHMARK_MAIN().
#include <benchmark/benchmark.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "models/synthetic.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"

namespace {

using namespace vrdf;

models::SyntheticChain cyclic_model(std::size_t stages) {
  // One feedback loop per stage: cycle count == stage count.
  models::RandomCyclicSpec spec;
  spec.base.seed = 17;
  spec.base.stages = stages;
  spec.base.max_branches = 2;
  spec.base.max_branch_length = 2;
  spec.base.max_segment_length = 1;
  spec.feedback_percent = 100;
  return models::make_random_cyclic(spec);
}

void BM_CyclicAnalysisVsCycleCount(benchmark::State& state) {
  const models::SyntheticChain model =
      cyclic_model(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(model.graph, model.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CyclicAnalysisVsCycleCount)->RangeMultiplier(2)->Range(1, 16)
    ->Complexity(benchmark::oN);

void BM_CyclicMinPeriod(benchmark::State& state) {
  models::SyntheticChain model = cyclic_model(4);
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  analysis::apply_capacities(model.graph, sized);
  for (auto _ : state) {
    const analysis::MinPeriodResult result =
        analysis::min_admissible_period(model.graph, model.constraint.actor);
    benchmark::DoNotOptimize(result.min_period);
  }
}
BENCHMARK(BM_CyclicMinPeriod);

void BM_FeedbackPipelineSim(benchmark::State& state) {
  // Self-timed throughput of the sized rate-control loop: firings/second
  // of the whole pipeline while the loop circulates its credit tokens.
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim(app.graph);
    sim.set_default_sources(7);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{app.present, 5000};
    const sim::RunResult result = sim.run(stop);
    fired += result.total_firings;
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_FeedbackPipelineSim);

void BM_FeedbackPipelineVerify(benchmark::State& state) {
  // Full two-phase sufficiency check of the cyclic pipeline — the cost of
  // the verification step the analysis results are gated on.
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  for (auto _ : state) {
    sim::VerifyOptions options;
    options.observe_firings = 500;
    const sim::VerifyResult verdict =
        sim::verify_throughput(app.graph, {app.constraint}, {}, options);
    benchmark::DoNotOptimize(verdict.ok);
  }
}
BENCHMARK(BM_FeedbackPipelineVerify);

}  // namespace
