// The paper's Sec 5 case study, end to end: MP3 playback of a variable
// bit-rate stream with a 44.1 kHz DAC.
//
// Prints the derived response-time budget, the capacity table (ours vs the
// traditional technique), verifies the capacities in simulation for
// several bit-rate profiles, and writes the VRDF graph as Graphviz DOT.
//
// Build & run:  ./build/examples/mp3_playback [out.dot]
#include <fstream>
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "baseline/traditional.hpp"
#include "io/dot.hpp"
#include "io/table.hpp"
#include "models/mp3.hpp"
#include "sim/verify.hpp"

int main(int argc, char** argv) {
  using namespace vrdf;

  models::Mp3Playback app = models::make_mp3_playback();

  // Response times that "just allow" the throughput constraint (Sec 5).
  const auto budget =
      analysis::max_admissible_response_times(app.graph, {app.constraint});
  std::cout << "Maximal admissible response times (phi propagation):\n";
  for (std::size_t i = 0; i < budget.actors_in_order.size(); ++i) {
    std::cout << "  " << app.graph.actor(budget.actors_in_order[i]).name
              << ": " << budget.max_response_times[i].to_millis_double()
              << " ms\n";
  }

  const analysis::GraphAnalysis ours =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  const baseline::TraditionalResult trad =
      baseline::traditional_capacities(app.graph);
  if (!ours.admissible || !trad.ok) {
    std::cerr << "analysis failed\n";
    return 1;
  }

  io::Table table({"buffer", "pi / gamma", "VRDF (this paper)",
                   "traditional [10], n=960", "paper reports"});
  const char* const paper_vrdf[] = {"6015", "3263", "882"};
  const char* const paper_trad[] = {"5888", "3072", "882"};
  for (std::size_t i = 0; i < ours.pairs.size(); ++i) {
    const auto& data = app.graph.edge(ours.pairs[i].buffer.data);
    std::string buffer = "d";
    buffer += std::to_string(i + 1);
    table.add_row({buffer,
                   data.production.to_string() + " / " +
                       data.consumption.to_string(),
                   std::to_string(ours.pairs[i].capacity),
                   std::to_string(trad.pairs[i].capacity),
                   std::string(paper_vrdf[i]) + " / " + paper_trad[i]});
  }
  std::cout << '\n' << table.to_string() << '\n';

  // Verify in simulation, as the paper did.
  analysis::apply_capacities(app.graph, ours);
  sim::VerifyOptions options;
  options.observe_firings = 100000;  // ~2.3 s of audio per profile
  bool all_ok = true;
  struct Profile {
    const char* name;
    sim::SimulatorConfigurer configure;
  };
  const Profile profiles[] = {
      {"uniform random n in [0,960]", {}},
      {"constant n = 96 (low bit-rate)",
       [&](sim::Simulator& s) {
         s.set_quantum_source(app.mp3, app.b1.data, sim::constant_source(96));
       }},
      {"constant n = 960 (max bit-rate)",
       [&](sim::Simulator& s) {
         s.set_quantum_source(app.mp3, app.b1.data, sim::constant_source(960));
       }},
      {"min/max alternation",
       [&](sim::Simulator& s) {
         s.set_quantum_source(
             app.mp3, app.b1.data,
             sim::min_max_alternating_source(
                 app.graph.edge(app.b1.data).consumption));
       }},
      {"random walk over [0,960]",
       [&](sim::Simulator& s) {
         s.set_quantum_source(
             app.mp3, app.b1.data,
             sim::random_walk_source(app.graph.edge(app.b1.data).consumption,
                                     7, 40));
       }},
  };
  for (const Profile& profile : profiles) {
    const sim::VerifyResult verdict = sim::verify_throughput(
        app.graph, {app.constraint}, profile.configure, options);
    std::cout << "verify [" << profile.name
              << "]: " << (verdict.ok ? "OK" : "FAILED") << " — "
              << verdict.detail << '\n';
    all_ok = all_ok && verdict.ok;
  }

  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << io::to_dot(app.graph);
    std::cout << "wrote " << argv[1] << '\n';
  }
  return all_ok ? 0 : 1;
}
