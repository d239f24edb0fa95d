// Quickstart: the complete workflow on the paper's running example (Fig 1).
//
//  1. describe the application as a task graph (tasks + FIFO buffers),
//  2. convert it to the VRDF analysis model (Sec 3.3),
//  3. compute buffer capacities for a throughput constraint (Sec 4),
//  4. back-annotate the capacities and verify them in simulation.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "analysis/buffer_sizing.hpp"
#include "dataflow/rate_set.hpp"
#include "sim/verify.hpp"
#include "taskgraph/task_graph.hpp"

int main() {
  using namespace vrdf;

  // Step 1: the task graph of Fig 1.  Task wa produces 3 containers per
  // execution; wb consumes 2 or 3 depending on the processed data.  Both
  // tasks have a worst-case response time of 3 ms under their arbiters.
  taskgraph::TaskGraph app;
  const auto wa = app.add_task("wa", milliseconds(Rational(3)));
  const auto wb = app.add_task("wb", milliseconds(Rational(3)));
  const auto buffer = app.add_buffer(wa, wb, dataflow::RateSet::singleton(3),
                                     dataflow::RateSet::of({2, 3}));

  // Step 2: construct the VRDF model: one actor per task, one pair of
  // anti-parallel edges per buffer.
  taskgraph::VrdfConstruction model = app.to_vrdf();

  // Step 3: wb must run strictly periodically every 3 ms.
  const analysis::ThroughputConstraint constraint{
      model.actor_of_task[wb.index()], milliseconds(Rational(3))};
  const analysis::GraphAnalysis result =
      analysis::compute_buffer_capacities(model.graph, constraint);
  if (!result.admissible) {
    std::cerr << "constraint not satisfiable:\n";
    for (const auto& d : result.diagnostics) {
      std::cerr << "  " << d << '\n';
    }
    return 1;
  }
  for (const auto& pair : result.pairs) {
    std::cout << "buffer " << model.graph.actor(pair.producer).name << " -> "
              << model.graph.actor(pair.consumer).name
              << ": capacity " << pair.capacity << " containers (raw bound "
              << pair.raw_tokens.to_string() << " tokens)\n";
  }

  // Step 4: install the capacities and check them with the two-phase
  // simulation (self-timed offset measurement, then enforced periodic wb).
  analysis::apply_capacities(model.graph, result);
  app.set_capacity(buffer, result.pairs[0].capacity);

  sim::VerifyOptions options;
  options.observe_firings = 10000;
  const sim::VerifyResult verdict =
      sim::verify_throughput(model.graph, {constraint}, {}, options);
  std::cout << "simulation: " << (verdict.ok ? "OK" : "FAILED") << " — "
            << verdict.detail << '\n';
  return verdict.ok ? 0 : 1;
}
