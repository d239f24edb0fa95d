// Robustness showcase (PR 6): how much can each task overrun its declared
// worst-case response time before the installed buffers stop covering it?
//
// Sizes the interior-pinned media pipeline, computes the analysis-derived
// robustness margins, then exercises them both ways with the fault
// injector and the conformance monitor:
//  - a fault at the exact margin boundary keeps the two-phase verification
//    green while the monitor still names the broken ρ contract;
//  - starving the pinned core's feed buffer outright (a producer slowed
//    past what token conservation lets the buffer hide) is detected and
//    attributed, never a silent hang.
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/robustness.hpp"
#include "io/report.hpp"
#include "io/trace.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/verify.hpp"

int main() {
  using namespace vrdf;

  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  if (!sized.admissible) {
    for (const auto& d : sized.diagnostics) {
      std::cerr << d << '\n';
    }
    return 1;
  }
  analysis::apply_capacities(app.graph, sized);

  const analysis::RobustnessReport margins =
      analysis::robustness_margins(app.graph,
                                     analysis::ConstraintSet{app.constraint});
  if (!margins.ok) {
    for (const auto& d : margins.diagnostics) {
      std::cerr << d << '\n';
    }
    return 1;
  }
  std::cout << io::analysis_report(app.graph, app.constraint, sized) << '\n';
  std::cout << io::margins_to_csv(margins, app.graph) << '\n';

  // The actor with the widest tolerable overrun.
  const analysis::ActorMargin* target = &margins.actors.front();
  for (const analysis::ActorMargin& m : margins.actors) {
    if (target->margin < m.margin) {
      target = &m;
    }
  }
  std::cout << "widest margin: '" << app.graph.actor(target->actor).name
            << "' may overrun by " << target->margin.seconds().to_string()
            << " s per firing\n\n";

  sim::VerifyOptions options;
  options.observe_firings = 200;
  options.monitor = true;

  // 1) Stress the boundary: the whole margin on every firing.
  sim::FaultPlan boundary(1);
  boundary.rho_overrun(target->actor, target->margin);
  std::cout << "-- within margin --\n" << boundary.describe(app.graph) << '\n';
  const sim::VerifyResult within = sim::verify_throughput(
      app.graph, app.constraint,
      [&](sim::Simulator& sim) { boundary.apply(sim); }, options);
  std::cout << "verify: " << (within.ok ? "OK" : "FAILED") << " — "
            << within.detail << '\n';
  if (within.monitor.has_value()) {
    std::cout << "monitor: " << within.monitor->summary << "\n\n";
  }

  // 2) Break it: slow the pin's feeding producer until the buffer's
  //    conservation bound (installed capacity / rho') undercuts demand.
  const analysis::BufferHeadroom* feed = nullptr;
  for (const analysis::BufferHeadroom& buffer : margins.buffers) {
    if (buffer.consumer == app.constraint.actor) {
      feed = &buffer;
      break;
    }
  }
  if (feed == nullptr) {
    std::cerr << "pin has no feed buffer\n";
    return 1;
  }
  sim::FaultPlan starving(2);
  starving.rho_overrun(feed->producer,
                       app.constraint.period *
                           Rational(4 * (feed->installed + 1)));
  std::cout << "-- beyond margin --\n" << starving.describe(app.graph) << '\n';
  const sim::VerifyResult beyond = sim::verify_throughput(
      app.graph, app.constraint,
      [&](sim::Simulator& sim) { starving.apply(sim); }, options);
  std::cout << "verify: " << (beyond.ok ? "OK" : "FAILED") << " — "
            << beyond.detail << '\n';
  if (beyond.monitor.has_value()) {
    std::cout << "monitor: " << beyond.monitor->summary << '\n';
    std::cout << io::conformance_to_csv(*beyond.monitor, app.graph);
  }

  // The demo succeeded iff the boundary held and the starvation was caught.
  return (within.ok && !beyond.ok) ? 0 : 1;
}
