// Fork-join showcase: sizes the audio/video demux-decode-sync pipeline,
// verifies the capacities by two-phase simulation, and prints the report
// plus an annotated DOT rendering of the sized graph.  A second section
// runs the dual-presenter variant — two simultaneous throughput
// constraints (15 ms audio, 40 ms video) through the multi-constraint
// analysis and harness.
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "baseline/traditional.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

int main() {
  using namespace vrdf;

  models::AvSyncPipeline app = models::make_av_sync_pipeline();
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

  const baseline::TraditionalResult traditional =
      baseline::traditional_capacities(app.graph);
  if (traditional.ok) {
    std::cout << "Traditional (all-max quanta) total: "
              << traditional.total_capacity << " containers vs VRDF "
              << sized.total_capacity << ".\n\n";
  }

  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, {app.constraint});
  std::cout << "verify: " << (verdict.ok ? "OK" : "FAILED") << " — "
            << verdict.detail << "\n\n";

  std::cout << io::to_dot(app.graph, {app.constraint}, sized);

  // Dual-presenter variant: audio and video pinned at once.
  models::AvDualSinkPipeline dual = models::make_av_dual_sink_pipeline();
  const analysis::GraphAnalysis dual_sized =
      analysis::compute_buffer_capacities(dual.graph, dual.constraints);
  if (!dual_sized.admissible) {
    for (const auto& d : dual_sized.diagnostics) {
      std::cerr << d << '\n';
    }
    return 1;
  }
  analysis::apply_capacities(dual.graph, dual_sized);
  std::cout << '\n'
            << io::analysis_report(dual.graph, dual.constraints, dual_sized)
            << '\n';
  const baseline::TraditionalResult dual_traditional =
      baseline::traditional_capacities(dual.graph);
  if (dual_traditional.ok) {
    std::cout << "Traditional (all-max quanta) total: "
              << dual_traditional.total_capacity << " containers vs VRDF "
              << dual_sized.total_capacity << ".\n\n";
  }
  const sim::VerifyResult dual_verdict =
      sim::verify_throughput(dual.graph, dual.constraints);
  std::cout << "verify (dual presenter): "
            << (dual_verdict.ok ? "OK" : "FAILED") << " — "
            << dual_verdict.detail << "\n\n";
  std::cout << io::to_dot(dual.graph, dual.constraints, dual_sized);
  return (verdict.ok && dual_verdict.ok) ? 0 : 1;
}
