// Cyclic showcase: sizes the decoder + rate-control credit loop, shows
// the back-edge's required circulating tokens and the max-cycle-ratio
// headroom, verifies the capacities by two-phase simulation, and prints
// the report plus a DOT rendering with the back-edge dashed.
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

int main() {
  using namespace vrdf;

  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  if (!sized.admissible) {
    for (const auto& d : sized.diagnostics) {
      std::cerr << d << '\n';
    }
    return 1;
  }
  analysis::apply_capacities(app.graph, sized);

  std::cout << io::analysis_report(app.graph, {app.constraint}, sized) << '\n';

  for (const analysis::PairAnalysis& pair : sized.pairs) {
    if (pair.is_feedback) {
      std::cout << "back-edge " << app.graph.actor(pair.producer).name
                << " -> " << app.graph.actor(pair.consumer).name
                << ": circulating tokens delta=" << pair.initial_tokens
                << " (required " << pair.required_initial_tokens
                << "), capacity " << pair.capacity << "\n";
    }
  }

  const analysis::MinPeriodResult headroom =
      analysis::min_admissible_period(app.graph, app.constraint.actor);
  if (headroom.ok) {
    std::cout << "fastest admissible period: "
              << headroom.min_period.seconds().to_string()
              << " s (binding: " << headroom.binding_constraint << ")\n\n";
  }

  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, {app.constraint});
  std::cout << "verify: " << (verdict.ok ? "OK" : "FAILED") << " — "
            << verdict.detail << "\n\n";

  std::cout << io::to_dot(app.graph, {app.constraint}, sized);
  return verdict.ok ? 0 : 1;
}
