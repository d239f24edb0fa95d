// Source-constrained acquisition chain (the Sec 4.4 variant).
//
// An ADC samples strictly periodically at 48 kHz and pushes data through
// filter → compressor → writer.  The compressor's production quantum is
// data dependent and may be zero (nothing worth emitting for a block) —
// the mirrored zero-rate rule of Sec 4.4.  Downstream tasks must keep up
// with the source; capacities guarantee the ADC is never blocked on a full
// buffer.  Also demonstrates the plain-text model serialization.
//
// Build & run:  ./build/examples/sensor_acquisition
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "io/table.hpp"
#include "io/text_format.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

int main() {
  using namespace vrdf;

  models::SyntheticChain chain = models::make_sensor_acquisition();

  const analysis::GraphAnalysis result =
      analysis::compute_buffer_capacities(chain.graph, chain.constraint);
  if (!result.admissible) {
    std::cerr << "analysis failed:\n";
    for (const auto& d : result.diagnostics) {
      std::cerr << "  " << d << '\n';
    }
    return 1;
  }
  std::cout << "Constraint side: "
            << (result.side == analysis::ConstraintSide::Source ? "source"
                                                                : "sink")
            << " (ADC strictly periodic at 48 kHz)\n\n";

  io::Table table({"buffer", "pi / gamma", "capacity", "raw bound"});
  for (const auto& pair : result.pairs) {
    const auto& data = chain.graph.edge(pair.buffer.data);
    table.add_row({chain.graph.actor(pair.producer).name + "->" +
                       chain.graph.actor(pair.consumer).name,
                   data.production.to_string() + " / " +
                       data.consumption.to_string(),
                   std::to_string(pair.capacity), pair.raw_tokens.to_string()});
  }
  std::cout << table.to_string() << '\n';

  analysis::apply_capacities(chain.graph, result);

  sim::VerifyOptions options;
  options.observe_firings = 48000;  // one second of samples
  const sim::VerifyResult verdict =
      sim::verify_throughput(chain.graph, {chain.constraint}, {}, options);
  std::cout << "verify [random compressor output]: "
            << (verdict.ok ? "OK" : "FAILED") << " — " << verdict.detail
            << "\n\n";

  std::cout << "Serialized model (vrdf-chain v1):\n"
            << io::write_chain(chain.graph, {chain.constraint});
  return verdict.ok ? 0 : 1;
}
