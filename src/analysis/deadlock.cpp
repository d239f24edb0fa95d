#include "analysis/deadlock.hpp"

#include <string>

#include "dataflow/validation.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

std::int64_t min_deadlock_free_pair_capacity(
    const dataflow::RateSet& production, const dataflow::RateSet& consumption) {
  // g = gcd of every positive quantum; zero quanta transfer nothing and
  // never block (a zero consumption is always enabled, a zero production
  // needs no space), so they do not constrain g.
  const std::int64_t g =
      gcd64(production.positive_gcd(), consumption.positive_gcd());
  return checked_sub(checked_add(production.max(), consumption.max()), g);
}

std::vector<std::int64_t> min_deadlock_free_capacities(
    const dataflow::VrdfGraph& graph) {
  const dataflow::ValidationReport validation =
      dataflow::validate_cyclic_model(graph);
  if (!validation.ok()) {
    throw ModelError("not a consistent network of buffers: " +
                     validation.summary());
  }
  std::vector<std::int64_t> minima;
  const dataflow::VrdfGraph::BufferView& view = validation.view.value();
  minima.reserve(view.buffers.size());
  for (const dataflow::BufferEdges& b : view.buffers) {
    const dataflow::Edge& data = graph.edge(b.data);
    // Initial tokens occupy containers from t=0 on: the pair slack must
    // exist on top of them or the capacity itself deadlocks the loop.
    minima.push_back(checked_add(
        min_deadlock_free_pair_capacity(data.production, data.consumption),
        data.initial_tokens));
  }
  return minima;
}

}  // namespace vrdf::analysis
