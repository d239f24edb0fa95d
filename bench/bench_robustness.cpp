// Robustness-layer performance (PR 6).  Compiled into bench_perf (no own
// main) so the `bench` target's BENCH_PR<N>.json captures the series:
//  - BM_RobustnessMargins: per-actor margin + headroom search cost;
//  - BM_SimulatorFiringsFaulted: the hot loop with a fault plan attached,
//    for comparison with BM_SimulatorFirings (the guard on the unfaulted
//    path is a single branch, so the two must stay within noise of each
//    other when no plan is attached);
//  - BM_MonitoredVerify: the two-phase harness with the conformance
//    monitor recording every firing.
#include <benchmark/benchmark.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/robustness.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"

namespace {

using namespace vrdf;

void BM_RobustnessMargins(benchmark::State& state) {
  // Half-φ response times and installed capacities: every actor has slack
  // to search, so the series times the margin searches and not only the
  // baseline analysis.
  models::RandomChainSpec spec;
  spec.seed = 7;
  spec.length = static_cast<std::size_t>(state.range(0));
  spec.response_fraction = Rational(1, 2);
  models::SyntheticChain chain = models::make_random_chain(spec);
  analysis::apply_capacities(
      chain.graph,
      analysis::compute_buffer_capacities(chain.graph, chain.constraint));
  for (auto _ : state) {
    const analysis::RobustnessReport report =
        analysis::robustness_margins(
            chain.graph, analysis::ConstraintSet{chain.constraint});
    benchmark::DoNotOptimize(report.ok);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RobustnessMargins)->RangeMultiplier(2)->Range(2, 16);

void BM_SimulatorFiringsFaulted(benchmark::State& state) {
  // The BM_SimulatorFirings fixture with a bursty-jitter plan on both
  // actors: every start draws a hashed perturbation, the worst case for
  // the fault branch in the scheduler.
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(1)));
  (void)g.add_buffer(a, b, dataflow::RateSet::singleton(3),
                     dataflow::RateSet::of({2, 3}), 11);
  sim::FaultPlan plan(9);
  plan.bursty_jitter(a, microseconds(Rational(50)), 1, 1);
  plan.bursty_jitter(b, microseconds(Rational(50)), 1, 1);
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim(g);
    sim.set_default_sources(42);
    plan.apply(sim);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{b, 10000};
    const sim::RunResult result = sim.run(stop);
    fired += result.total_firings;
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_SimulatorFiringsFaulted);

void BM_MonitoredVerify(benchmark::State& state) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 100;
  options.monitor = true;
  for (auto _ : state) {
    const sim::VerifyResult verdict =
        sim::verify_throughput(app.graph, {app.constraint}, {}, options);
    benchmark::DoNotOptimize(verdict.ok);
  }
}
BENCHMARK(BM_MonitoredVerify);

}  // namespace
