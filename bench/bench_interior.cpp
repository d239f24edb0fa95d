// Interior-pin performance: analysis and two-phase verification cost of
// strictly periodic *interior* actors (PR 5).  Compiled into bench_perf
// (no own main) so the `bench` target's BENCH_PR<N>.json captures the
// interior series alongside the single- and multi-constraint ones.
#include <benchmark/benchmark.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

namespace {

using namespace vrdf;

void BM_InteriorPipelineAnalysis(benchmark::State& state) {
  const models::InteriorPinnedPipeline app =
      models::make_interior_pinned_pipeline();
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(app.graph, app.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
}
BENCHMARK(BM_InteriorPipelineAnalysis);

void BM_InteriorAnalysisVsLength(benchmark::State& state) {
  // The pin sits mid-chain with range(0) actors on each side; the
  // bidirectional propagation stays O(actors).
  models::RandomInteriorPinSpec spec;
  spec.seed = 17;
  spec.upstream_length = static_cast<std::size_t>(state.range(0));
  spec.downstream_length = static_cast<std::size_t>(state.range(0));
  const models::SyntheticChain model = models::make_random_interior_pinned(spec);
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(model.graph, model.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InteriorAnalysisVsLength)->RangeMultiplier(2)->Range(2, 64)
    ->Complexity(benchmark::oN);

void BM_InteriorMinPeriod(benchmark::State& state) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  for (auto _ : state) {
    const analysis::MinPeriodResult headroom =
        analysis::min_admissible_period(app.graph, app.dsp);
    benchmark::DoNotOptimize(headroom.ok);
  }
}
BENCHMARK(BM_InteriorMinPeriod);

void BM_InteriorVerify(benchmark::State& state) {
  // The two-phase harness with the interior pin enforced (100 observed
  // firings — the verification cost scales with the horizon).
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 100;
  for (auto _ : state) {
    const sim::VerifyResult verdict =
        sim::verify_throughput(app.graph, {app.constraint}, {}, options);
    benchmark::DoNotOptimize(verdict.ok);
  }
}
BENCHMARK(BM_InteriorVerify);

}  // namespace
