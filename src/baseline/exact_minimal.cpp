#include "baseline/exact_minimal.hpp"

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "util/error.hpp"

namespace vrdf::baseline {

namespace {

bool capacity_feasible(const PairSearchSpec& spec, std::int64_t capacity) {
  dataflow::VrdfGraph graph;
  const dataflow::ActorId producer =
      graph.add_actor("producer", spec.producer_response);
  const dataflow::ActorId consumer =
      graph.add_actor("consumer", spec.consumer_response);
  const dataflow::BufferEdges buffer = graph.add_buffer(
      producer, consumer, spec.production, spec.consumption, capacity);

  const analysis::ThroughputConstraint constraint{consumer,
                                                  spec.consumer_period};
  sim::VerifyOptions options;
  options.observe_firings = spec.observe_firings;
  const sim::VerifyResult result = sim::verify_throughput(
      graph, {constraint},
      [&](sim::Simulator& s) {
        if (spec.producer_sequence) {
          s.set_quantum_source(producer, buffer.data, spec.producer_sequence());
        } else {
          s.set_quantum_source(producer, buffer.data,
                               sim::always_max_source(spec.production));
        }
        if (spec.consumer_sequence) {
          s.set_quantum_source(consumer, buffer.data, spec.consumer_sequence());
        } else {
          s.set_quantum_source(consumer, buffer.data,
                               sim::always_max_source(spec.consumption));
        }
      },
      options);
  return result.ok;
}

}  // namespace

std::optional<std::int64_t> exact_minimal_pair_capacity(
    const PairSearchSpec& spec, std::int64_t upper_bound) {
  VRDF_REQUIRE(upper_bound >= 1, "upper bound must be positive");
  if (!capacity_feasible(spec, upper_bound)) {
    return std::nullopt;
  }
  std::int64_t lo = 1;         // smallest conceivable capacity
  std::int64_t hi = upper_bound;  // known feasible
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (capacity_feasible(spec, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

}  // namespace vrdf::baseline
