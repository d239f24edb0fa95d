#include "sim/property_checks.hpp"

#include <algorithm>
#include <sstream>

namespace vrdf::sim {

namespace {

/// How one check words its findings in TemporalBehaviourReport::detail.
struct Wording {
  const char* earlier;  // why a start moved earlier
  const char* delta;    // what bounds the delay
  const char* clean;    // the detail when both properties hold
};

/// Runs the graph self-timed to `horizon` twice with identical quantum
/// sequences — once with `perturb_base`, once with `perturb_more` applied —
/// and checks over the common prefix of both runs that every firing of the
/// second run starts within [base start, base start + max_delta].
TemporalBehaviourReport compare_start_times(
    const dataflow::VrdfGraph& graph, const SimulatorConfigurer& perturb_base,
    const SimulatorConfigurer& perturb_more, Duration max_delta,
    TimePoint horizon, const SimulatorConfigurer& configure,
    std::uint64_t default_seed, const Wording& wording) {
  const auto run_once = [&](const SimulatorConfigurer& perturb) {
    auto sim = std::make_unique<Simulator>(graph);
    if (configure) {
      configure(*sim);
    }
    sim->set_default_sources(default_seed);
    for (const dataflow::ActorId a : graph.actors()) {
      sim->record_firings(a);
    }
    if (perturb) {
      perturb(*sim);
    }
    StopCondition stop;
    stop.until_time = horizon;
    (void)sim->run(stop);
    return sim;
  };

  const auto baseline = run_once(perturb_base);
  const auto perturbed = run_once(perturb_more);

  TemporalBehaviourReport report;
  report.monotonic = true;
  report.linear = true;
  std::ostringstream detail;
  for (const dataflow::ActorId a : graph.actors()) {
    const auto& base = baseline->firings(a);
    const auto& del = perturbed->firings(a);
    const std::size_t common = std::min(base.size(), del.size());
    for (std::size_t k = 0; k < common; ++k) {
      if (del[k].start < base[k].start) {
        report.monotonic = false;
        detail << "actor '" << graph.actor(a).name << "' firing " << k
               << " started earlier " << wording.earlier << " ("
               << del[k].start.seconds().to_string() << " < "
               << base[k].start.seconds().to_string() << "); ";
      }
      if (del[k].start - base[k].start > max_delta) {
        report.linear = false;
        detail << "actor '" << graph.actor(a).name << "' firing " << k
               << " delayed by more than " << wording.delta << " ("
               << (del[k].start - base[k].start).seconds().to_string() << " > "
               << max_delta.seconds().to_string() << "); ";
      }
    }
  }
  report.detail = detail.str();
  if (report.detail.empty()) {
    report.detail = wording.clean;
  }
  return report;
}

}  // namespace

TemporalBehaviourReport check_monotonic_linear(
    const dataflow::VrdfGraph& graph, dataflow::ActorId delayed_actor,
    std::int64_t firing_index, Duration delay, TimePoint horizon,
    const SimulatorConfigurer& configure, std::uint64_t default_seed) {
  return compare_start_times(
      graph, {},
      [&](Simulator& sim) {
        sim.inject_release_delay(delayed_actor, firing_index, delay);
      },
      delay, horizon, configure, default_seed,
      Wording{"under delay", "the injected delta",
              "all start times within [baseline, baseline + delta]"});
}

TemporalBehaviourReport check_fault_monotonic_linear(
    const dataflow::VrdfGraph& graph, const FaultPlan& lighter,
    const FaultPlan& heavier, Duration max_extra, TimePoint horizon,
    const SimulatorConfigurer& configure, std::uint64_t default_seed) {
  return compare_start_times(
      graph, [&](Simulator& sim) { lighter.apply(sim); },
      [&](Simulator& sim) { heavier.apply(sim); }, max_extra, horizon,
      configure, default_seed,
      Wording{"under the heavier plan", "the plans' extra delta",
              "all start times within [lighter, lighter + delta]"});
}

}  // namespace vrdf::sim
