// Seeded model generation for the sizer and margins workloads.
//
// Pools are stratified: the structural class of model i and its size
// parameter follow a fixed schedule, and only the generator seeds come from
// --seed.  Two seeds therefore draw different models with the same mix of
// shapes and sizes, which keeps a run's latency distribution comparable
// across seeds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace bench {

enum class Shape { ForkJoin, Cyclic, InteriorPinned, MultiSink, Chain };

struct Model {
  vrdf::dataflow::VrdfGraph graph;
  vrdf::analysis::ConstraintSet constraints;
};

/// Inclusive actor-count range.
struct ActorRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

struct PoolSpec {
  /// Class schedule, repeated: model i has shape schedule[i % size].
  std::vector<Shape> schedule;
  /// Actor-count targets per shape: the k-th model of a shape targets the
  /// k-th point of a stride-17 walk through its range.
  ActorRange fork_join, cyclic, interior, multi_sink, chain;
  std::size_t count = 0;
};

/// Generates `spec.count` models from `seed`.  Each slot redraws (next
/// seed, generator size re-scaled toward the target) until the model's
/// actor count is within 5% of the slot's target, so every seed yields the
/// same size distribution.  A draw whose generator throws OverflowError
/// (long random chains overflow) is redrawn the same way.
[[nodiscard]] std::vector<Model> generate_pool(const PoolSpec& spec,
                                               std::uint64_t seed);

}  // namespace bench
