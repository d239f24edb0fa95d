#include "baseline/traditional.hpp"

#include "dataflow/validation.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::baseline {

std::int64_t sriram_pair_capacity(std::int64_t production,
                                  std::int64_t consumption) {
  VRDF_REQUIRE(production > 0, "production quantum must be positive");
  VRDF_REQUIRE(consumption > 0, "consumption quantum must be positive");
  const std::int64_t window =
      checked_sub(checked_add(production, consumption),
                  gcd64(production, consumption));
  return checked_mul(2, window);
}

TraditionalResult traditional_capacities(const dataflow::VrdfGraph& graph) {
  dataflow::ValidationReport validation =
      dataflow::validate_cyclic_model(graph);
  TraditionalResult result;
  if (!validation.ok()) {
    result.diagnostics = std::move(validation.errors);
    return result;
  }
  for (const dataflow::BufferEdges& b : validation.view.value().buffers) {
    const dataflow::Edge& data = graph.edge(b.data);
    TraditionalPair pair;
    pair.producer = data.source;
    pair.consumer = data.target;
    pair.buffer = b;
    pair.production = data.production.max();
    pair.consumption = data.consumption.max();
    // Initial tokens (back-edges of cyclic models) occupy containers on
    // top of the classical window.
    pair.capacity =
        checked_add(sriram_pair_capacity(pair.production, pair.consumption),
                    data.initial_tokens);
    result.total_capacity = checked_add(result.total_capacity, pair.capacity);
    result.pairs.push_back(pair);
  }
  result.ok = true;
  return result;
}

}  // namespace vrdf::baseline
