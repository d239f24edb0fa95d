// Interior-pin showcase (PR 5): a fixed-rate DSP core strictly periodic
// in the *middle* of a media chain (source → dec → dsp → render → sink).
// Sizes the buffers — the upstream half paced like a sink-constrained
// chain, the downstream half like a source-constrained one — verifies by
// two-phase simulation with the pin enforced periodic, and prints the
// report plus a DOT rendering with the pin double-bordered.
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "models/synthetic.hpp"
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

  std::cout << io::analysis_report(app.graph, {app.constraint}, sized) << '\n';

  for (const analysis::PairAnalysis& pair : sized.pairs) {
    std::cout << "buffer " << app.graph.actor(pair.producer).name << " -> "
              << app.graph.actor(pair.consumer).name << ": "
              << (pair.determined_by == analysis::ConstraintSide::Sink
                      ? "consumer-paced (upstream of the pin)"
                      : "producer-paced (downstream of the pin)")
              << ", capacity " << pair.capacity << "\n";
  }

  const analysis::MinPeriodResult headroom =
      analysis::min_admissible_period(app.graph, app.dsp);
  if (headroom.ok) {
    std::cout << "fastest admissible DSP period: "
              << headroom.min_period.seconds().to_string()
              << " s (binding: " << headroom.binding_constraint << ")\n\n";
  }

  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, {app.constraint});
  std::cout << "verify: " << (verdict.ok ? "OK" : "FAILED") << " — "
            << verdict.detail << "\n\n";

  std::cout << io::to_dot(app.graph, analysis::ConstraintSet{app.constraint},
                          sized);
  return verdict.ok ? 0 : 1;
}
