#include "analysis/robustness.hpp"

#include <sstream>

#include "analysis/incremental.hpp"
#include "analysis/snapshot.hpp"
#include "util/log.hpp"

namespace vrdf::analysis {

namespace {

/// Margin search resolution: margins are multiples of slack/kGridSteps.
constexpr std::int64_t kGridSteps = 64;

/// Largest k in [0, grid] such that predicate(k) holds, assuming the
/// predicate is monotone (true at 0, and once false stays false) — the
/// capacity of every pair is monotone nondecreasing in every ρ(v).
template <typename Predicate>
[[nodiscard]] std::int64_t max_true(std::int64_t grid, Predicate&& holds) {
  if (holds(grid)) {
    return grid;
  }
  std::int64_t lo = 0;  // known true (caller checks the baseline)
  std::int64_t hi = grid;  // known false
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (holds(mid) ? lo : hi) = mid;
  }
  return lo;
}

/// ρ(v) + slack·k/kGridSteps: the response time of grid point k.
[[nodiscard]] Duration grid_point(const ActorMargin& m, std::int64_t k) {
  return m.response_time +
         (m.max_response_time - m.response_time) * Rational(k, kGridSteps);
}

}  // namespace

RobustnessReport robustness_margins(const dataflow::VrdfGraph& graph,
                                    const ConstraintSet& constraints) {
  RobustnessReport report;
  report.constraints = constraints;

  // Every probe below moves only response times, which enter neither the
  // structural snapshot nor the pacing propagation: both are built once.
  const TopologySnapshot snapshot(graph);
  IncrementalAnalysis engine(snapshot, constraints);
  const GraphAnalysis& baseline = engine.analysis();
  if (!baseline.admissible) {
    report.diagnostics = baseline.diagnostics;
    report.diagnostics.push_back(
        "robustness margins undefined: baseline analysis inadmissible");
    return report;
  }

  // Buffer headroom, and the precondition for every margin below: the
  // graph's installed capacities must cover the baseline requirement.
  bool installed_ok = true;
  report.buffers.reserve(baseline.pairs.size());
  for (const PairAnalysis& pair : baseline.pairs) {
    BufferHeadroom headroom;
    headroom.buffer = pair.buffer;
    headroom.producer = pair.producer;
    headroom.consumer = pair.consumer;
    headroom.required = pair.capacity;
    headroom.installed = graph.buffer_capacity(pair.buffer);
    headroom.headroom = headroom.installed - headroom.required;
    if (headroom.headroom < 0) {
      installed_ok = false;
      std::ostringstream os;
      os << "installed capacity of buffer "
         << graph.actor(pair.producer).name << "->"
         << graph.actor(pair.consumer).name << " (" << headroom.installed
         << ") is below the analysed requirement (" << headroom.required
         << ")";
      report.diagnostics.push_back(os.str());
    }
    report.buffers.push_back(headroom);
  }

  // An admissible baseline carries the pacing φ(v), which is the maximal
  // admissible response time of each actor.
  report.actors.reserve(baseline.actors_in_order.size());
  for (std::size_t i = 0; i < baseline.actors_in_order.size(); ++i) {
    const dataflow::ActorId v = baseline.actors_in_order[i];
    report.actors.push_back(ActorMargin{v, graph.actor(v).response_time,
                                        baseline.pacing[i], Duration()});
  }
  if (!installed_ok) {
    // Report zero margins (honest: nothing extra is tolerable) but keep
    // ok=false so callers do not inject "within-margin" faults.
    return report;
  }

  // A probe holds when it is admissible and every pair fits the graph's
  // installed capacities (probes move only response times).
  const auto fits = [&graph](const GraphAnalysis& probe) {
    return probe.admissible && first_over_installed(graph, probe) == nullptr;
  };

  // Per actor: retune its ρ on the engine, which re-derives only the ω
  // cone and pairs the actor reaches, then restore it.
  for (ActorMargin& margin : report.actors) {
    const Duration slack = margin.max_response_time - margin.response_time;
    if (slack.is_positive()) {
      const std::int64_t best = max_true(kGridSteps, [&](std::int64_t k) {
        engine.retune(margin.actor, grid_point(margin, k));
        return fits(engine.analysis());
      });
      engine.clear_retune(margin.actor);
      margin.margin = slack * Rational(best, kGridSteps);
    }
    VRDF_LOG(Trace) << "robustness: actor '" << graph.actor(margin.actor).name
                    << "' rho=" << margin.response_time.to_string()
                    << " phi=" << margin.max_response_time.to_string()
                    << " margin=" << margin.margin.to_string();
  }

  // Per-actor margins hold the *other* actors at their declared ρ and do
  // not compose; the joint fraction is what all actors may take at once.
  // Every ρ moves, so each probe is one overlay analysis on the snapshot.
  ParameterOverlay overlay;
  const std::int64_t joint = max_true(kGridSteps, [&](std::int64_t k) {
    for (const ActorMargin& m : report.actors) {
      if (m.max_response_time > m.response_time) {
        overlay.set_response_time(m.actor, grid_point(m, k));
      }
    }
    return fits(compute_buffer_capacities(snapshot, constraints, {}, overlay));
  });
  report.joint_safe_fraction = Rational(joint, kGridSteps);

  report.ok = true;
  return report;
}

}  // namespace vrdf::analysis
