#include "sim/verify.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "util/error.hpp"

namespace vrdf::sim {

using dataflow::ActorId;

VerifyResult verify_throughput(const dataflow::VrdfGraph& graph,
                               const analysis::ConstraintSet& constraints,
                               const SimulatorConfigurer& configure,
                               const VerifyOptions& options) {
  VRDF_REQUIRE(options.observe_firings > 0, "need at least one observed firing");
  VRDF_REQUIRE(!constraints.empty(), "need at least one constraint to verify");
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    for (std::size_t j = i + 1; j < constraints.size(); ++j) {
      // A silent overwrite in set_actor_mode would enforce only the last
      // period while the verdict claimed the whole set was verified.
      VRDF_REQUIRE(constraints[i].actor != constraints[j].actor,
                   "duplicate constrained actor in the verified set");
    }
  }
  VerifyResult result;

  // Phase 1: self-timed; find one periodic offset per constrained actor.
  // All offsets come from the same run, so the enforced grids of phase 2
  // keep their phase-1 relative alignment.
  Simulator phase1(graph);
  if (configure) {
    configure(phase1);
  }
  phase1.set_default_sources(options.default_seed);
  for (const analysis::ThroughputConstraint& c : constraints) {
    // The run horizon is governed by the FIRST constraint's actor, so a
    // faster secondary actor fires ~(tau_front / tau_c) times as often;
    // cap its records accordingly or the offset fit would only see a
    // truncated prefix of its lateness history.
    const Rational ratio =
        constraints.front().period.seconds() / c.period.seconds();
    const std::int64_t per_front = std::max<std::int64_t>(ratio.ceil(), 1);
    phase1.record_firings(
        c.actor,
        static_cast<std::size_t>(options.observe_firings) *
                static_cast<std::size_t>(per_front) +
            16);
  }
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{constraints.front().actor,
                                                   options.observe_firings};
  const RunResult run1 = phase1.run(stop);
  result.firings_simulated += run1.total_firings;
  if (run1.reason != StopReason::ReachedFiringTarget) {
    std::ostringstream os;
    os << "phase 1 (self-timed) stopped early: "
       << (run1.deadlocked() ? "deadlock" : "budget/time limit") << " at t="
       << run1.end_time.seconds().to_string() << " s after "
       << run1.total_firings << " firings";
    if (run1.deadlocked()) {
      os << "; " << diagnose_blockage(graph, run1.blocked).message;
    }
    result.detail = os.str();
    return result;
  }
  // One offset per constrained actor, all measured from the same
  // self-timed run: the grids then keep phase 1's causally consistent
  // relative alignment (a pinned sink naturally lags a pinned source by
  // the realized pipeline latency; an interior pin's grid likewise lags
  // its upstream by the realized latency of its demand cone), and every
  // enforced activation is no earlier than its self-timed start — sound
  // by monotonicity.
  std::vector<TimePoint> offsets;
  offsets.reserve(constraints.size());
  Duration max_lateness;
  for (const analysis::ThroughputConstraint& c : constraints) {
    // Smallest o with start_k <= o + k·τ  ==>  o = max_k(start_k − k·τ),
    // fitted on the engine's clock.
    const std::optional<PeriodicFit> fit =
        phase1.fit_periodic_offset(c.actor, c.period);
    if (!fit.has_value()) {
      result.detail = "phase 1 recorded no firings of constrained actor '" +
                      graph.actor(c.actor).name + "'";
      return result;
    }
    offsets.push_back(fit->offset);
    max_lateness = std::max(max_lateness, fit->lateness);
  }
  result.max_lateness_phase1 = max_lateness;
  result.offset_used = offsets.front();

  // Phase 2: enforce every constrained actor's periodic schedule at its
  // measured offset, simultaneously.  With a constraint *set* the
  // independently measured offsets are only a heuristic relative
  // alignment: enforcing one grid delays the others' supplies through
  // back-pressure, so a sufficient capacity set can still starve at the
  // first alignment tried.  A throughput constraint fixes the period, not
  // the offset — so on starvation each starving grid is shifted by its
  // observed lateness and the phase is re-run (bounded retries).  This
  // cannot mask genuine insufficiency: buffers bound the head start a
  // later grid can accumulate to their capacity, so a rate-deficient
  // system starves again within ~capacity tokens no matter the offset.
  RunResult run2;
  const int max_attempts = constraints.size() > 1 ? 5 : 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Simulator phase2(graph);
    if (configure) {
      configure(phase2);
    }
    phase2.set_default_sources(options.default_seed);
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      phase2.set_actor_mode(
          constraints[c].actor,
          ActorMode::strictly_periodic(offsets[c], constraints[c].period));
    }
    std::optional<ConformanceMonitor> monitor;
    if (options.monitor) {
      monitor.emplace(graph, constraints);
      monitor->attach(phase2);
    }
    run2 = phase2.run(stop);
    result.firings_simulated += run2.total_firings;
    if (monitor.has_value()) {
      monitor->observe(phase2, run2);
      result.monitor = monitor->report();
    }
    if (run2.starvations.empty() ||
        run2.reason != StopReason::ReachedFiringTarget ||
        attempt + 1 == max_attempts) {
      break;
    }
    bool shifted = false;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      Duration worst;
      for (const Starvation& starvation : run2.starvations) {
        if (starvation.actor != constraints[c].actor) {
          continue;
        }
        const TimePoint started = starvation.actual_start.has_value()
                                      ? *starvation.actual_start
                                      : run2.end_time;
        worst = std::max(worst, started - starvation.scheduled);
      }
      if (worst.is_positive()) {
        offsets[c] = offsets[c] + worst;
        shifted = true;
      }
    }
    if (!shifted) {
      break;
    }
  }
  result.offset_used = offsets.front();
  result.starvation_count = static_cast<std::int64_t>(run2.starvations.size());
  if (run2.reason != StopReason::ReachedFiringTarget) {
    std::ostringstream os;
    os << "phase 2 (periodic) stopped early: "
       << (run2.deadlocked() ? "deadlock" : "budget/time limit") << " after "
       << run2.total_firings << " firings, " << result.starvation_count
       << " starvations";
    if (run2.deadlocked()) {
      os << "; " << diagnose_blockage(graph, run2.blocked).message;
    }
    result.detail = os.str();
    return result;
  }
  if (result.starvation_count != 0) {
    const Starvation& first = run2.starvations.front();
    std::ostringstream os;
    os << result.starvation_count << " starved activations; first on '"
       << graph.actor(first.actor).name << "' at t="
       << first.scheduled.seconds().to_string() << " s (firing "
       << first.firing << ")";
    result.detail = os.str();
    return result;
  }
  result.ok = true;
  result.detail = "periodic execution sustained for " +
                  std::to_string(options.observe_firings) + " firings";
  return result;
}

}  // namespace vrdf::sim
