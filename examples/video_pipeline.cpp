// Sink-constrained variable-rate video decoding pipeline.
//
// A 5-stage chain (reader → demux → vld → idct → display) where the
// variable-length decoder consumes a data-dependent number of bytes per
// firing, possibly zero (a skipped macroblock row), and the display is
// strictly periodic at 25 Hz.  Demonstrates:
//  * capacity computation for a longer chain with multiple variable pairs,
//  * the response-time budget per stage,
//  * how much the data dependence costs over a constant-rate lower bound.
//
// Build & run:  ./build/examples/video_pipeline
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "baseline/traditional.hpp"
#include "io/table.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

int main() {
  using namespace vrdf;

  models::SyntheticChain chain = models::make_video_pipeline();

  const analysis::GraphAnalysis ours =
      analysis::compute_buffer_capacities(chain.graph, chain.constraint);
  const baseline::TraditionalResult trad =
      baseline::traditional_capacities(chain.graph);
  if (!ours.admissible || !trad.ok) {
    std::cerr << "analysis failed\n";
    return 1;
  }

  std::cout << "Stage pacing (max admissible response times):\n";
  for (std::size_t i = 0; i < ours.actors_in_order.size(); ++i) {
    std::cout << "  " << chain.graph.actor(ours.actors_in_order[i]).name
              << ": " << ours.pacing[i].to_millis_double() << " ms\n";
  }

  io::Table table({"buffer", "pi / gamma", "VRDF capacity",
                   "traditional (max rates)", "overhead"});
  for (std::size_t i = 0; i < ours.pairs.size(); ++i) {
    const auto& data = chain.graph.edge(ours.pairs[i].buffer.data);
    const double overhead =
        trad.pairs[i].capacity == 0
            ? 0.0
            : 100.0 *
                  (static_cast<double>(ours.pairs[i].capacity) /
                       static_cast<double>(trad.pairs[i].capacity) -
                   1.0);
    table.add_row(
        {chain.graph.actor(ours.pairs[i].producer).name + "->" +
             chain.graph.actor(ours.pairs[i].consumer).name,
         data.production.to_string() + " / " + data.consumption.to_string(),
         std::to_string(ours.pairs[i].capacity),
         std::to_string(trad.pairs[i].capacity),
         std::to_string(overhead).substr(0, 5) + " %"});
  }
  std::cout << '\n' << table.to_string() << '\n';

  analysis::apply_capacities(chain.graph, ours);
  sim::VerifyOptions options;
  options.observe_firings = 2000;  // 80 s of video at 25 fps
  const sim::VerifyResult verdict =
      sim::verify_throughput(chain.graph, {chain.constraint}, {}, options);
  std::cout << "verify [random rates]: " << (verdict.ok ? "OK" : "FAILED")
            << " — " << verdict.detail << '\n';
  return verdict.ok ? 0 : 1;
}
