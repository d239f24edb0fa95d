// Fleet-scale parallel verification performance (PR 8).  Compiled into
// bench_perf (no own main) so the `bench` target's BENCH_PR<N>.json
// captures the series:
//  - BM_FleetSweepAggregate: aggregate verification throughput of one
//    fixed 1000-model sweep (five classes, both constraint placements)
//    at 1, 2, 4 and 8 sweep workers.  The acceptance shape is linear
//    scaling up to the core count; the JSON context's num_cpus records
//    the cores the run actually had, so single-core CI numbers are
//    attributable rather than mistaken for a scaling defect.
//  - BM_FleetRunItem vs BM_DirectVerifyPipeline: per-item overhead of
//    the fleet pipeline (stateless seed derivation, re-analysis,
//    headroom install, verdict assembly) over a bare
//    make_random_model + verify_throughput of the same item.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/seed_stream.hpp"

namespace {

using namespace vrdf;

// 8 cells (chain/fork_join/cyclic x {sink,source} + multi_constraint +
// interior_pinned x {sink}) x 125 seeds = exactly 1000 items.
sim::SweepSpec make_kilomodel_spec() {
  sim::SweepSpec spec;
  spec.seeds_per_class = 125;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.observe_firings = 120;
  return spec;
}

void BM_FleetSweepAggregate(benchmark::State& state) {
  const sim::FleetSweep sweep(make_kilomodel_spec());
  const auto threads = static_cast<std::size_t>(state.range(0));
  double fleet_firings_per_second = 0.0;
  std::int64_t items = 0;
  for (auto _ : state) {
    const sim::FleetReport report = sweep.run(threads);
    benchmark::DoNotOptimize(report.passed);
    fleet_firings_per_second = report.firings_per_second;
    items = report.total_items;
  }
  state.counters["items"] = static_cast<double>(items);
  state.counters["sim_firings_per_s"] = fleet_firings_per_second;
  state.counters["items_per_s"] = benchmark::Counter(
      static_cast<double>(items) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetSweepAggregate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void BM_FleetRunItem(benchmark::State& state) {
  const sim::FleetSweep sweep(make_kilomodel_spec());
  const sim::FleetItem item = sweep.items().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep.run_item(item).pass);
  }
}
BENCHMARK(BM_FleetRunItem)->Unit(benchmark::kMicrosecond);

void BM_DirectVerifyPipeline(benchmark::State& state) {
  const sim::SweepSpec spec = make_kilomodel_spec();
  const sim::FleetSweep sweep(spec);
  const sim::FleetItem item = sweep.items().front();
  for (auto _ : state) {
    models::RandomModelSpec random;
    random.model_class = item.model_class;
    random.seed = item.rng_seed;
    random.response_fraction = spec.response_fraction;
    random.variable_percent = spec.variable_percent;
    random.zero_percent = spec.zero_percent;
    random.source_constrained = item.mode == sim::ConstraintMode::Source;
    models::SyntheticModel model = models::make_random_model(random);
    sim::VerifyOptions options;
    options.observe_firings = spec.observe_firings;
    options.default_seed = util::derive_seed(item.rng_seed, 1);
    const sim::VerifyResult verdict =
        sim::verify_throughput(model.graph, model.constraints, {}, options);
    benchmark::DoNotOptimize(verdict.ok);
  }
}
BENCHMARK(BM_DirectVerifyPipeline)->Unit(benchmark::kMicrosecond);

}  // namespace
