#include "inputs.hpp"

#include <algorithm>

#include "models/synthetic.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace bench {

using namespace vrdf;

namespace {

constexpr int kVariablePercent = 50;
constexpr int kZeroPercent = 20;
/// Response times at half the admissible maximum leave every actor slack,
/// so robustness margins are non-trivial.
const Rational kResponseFraction(1, 2);

Model draw(Shape shape, std::size_t size, std::uint64_t seed) {
  Model model;
  // Sink- and source-constrained variants alternate with the seed.
  const bool source = (seed & 1u) != 0;
  switch (shape) {
    case Shape::ForkJoin:
    case Shape::Cyclic: {
      models::RandomForkJoinSpec base;
      base.seed = seed;
      base.stages = size;
      base.variable_percent = kVariablePercent;
      base.zero_percent = kZeroPercent;
      base.response_fraction = kResponseFraction;
      base.source_constrained = source;
      models::SyntheticChain generated;
      if (shape == Shape::ForkJoin) {
        generated = models::make_random_fork_join(base);
      } else {
        models::RandomCyclicSpec cyclic;
        cyclic.base = base;
        generated = models::make_random_cyclic(cyclic);
      }
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
    case Shape::InteriorPinned: {
      models::RandomInteriorPinSpec pin;
      pin.seed = seed;
      pin.upstream_length = std::max<std::size_t>(1, size / 2);
      pin.downstream_length = std::max<std::size_t>(1, size - size / 2);
      pin.variable_percent = kVariablePercent;
      pin.zero_percent = kZeroPercent;
      pin.response_fraction = kResponseFraction;
      models::SyntheticChain generated = models::make_random_interior_pinned(pin);
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
    case Shape::MultiSink: {
      models::RandomMultiSinkSpec multi;
      multi.seed = seed;
      multi.sinks = size;
      multi.variable_percent = kVariablePercent;
      multi.zero_percent = kZeroPercent;
      multi.response_fraction = kResponseFraction;
      models::SyntheticMultiConstraint generated =
          models::make_random_multi_sink(multi);
      model.graph = std::move(generated.graph);
      model.constraints = std::move(generated.constraints);
      break;
    }
    case Shape::Chain: {
      models::RandomChainSpec chain;
      chain.seed = seed;
      chain.length = size;
      // Quanta up to 4 keep the pacing products of chains up to 64 actors
      // inside int64; longer chains overflow in the generator.
      chain.max_quantum = 4;
      chain.variable_percent = kVariablePercent;
      chain.zero_percent = kZeroPercent;
      chain.response_fraction = kResponseFraction;
      chain.source_constrained = source;
      models::SyntheticChain generated = models::make_random_chain(chain);
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
  }
  return model;
}

const ActorRange& range_of(const PoolSpec& spec, Shape shape) {
  switch (shape) {
    case Shape::ForkJoin:
      return spec.fork_join;
    case Shape::Cyclic:
      return spec.cyclic;
    case Shape::InteriorPinned:
      return spec.interior;
    case Shape::MultiSink:
      return spec.multi_sink;
    case Shape::Chain:
      break;
  }
  return spec.chain;
}

/// First guess of the generator size parameter for a target actor count.
std::size_t initial_size(Shape shape, std::size_t target) {
  switch (shape) {
    case Shape::ForkJoin:
    case Shape::Cyclic:
      return std::max<std::size_t>(1, target / 5);
    case Shape::MultiSink:
      return std::max<std::size_t>(2, target / 3);
    case Shape::InteriorPinned:
    case Shape::Chain:
      break;
  }
  return target;
}

std::size_t min_size(Shape shape) {
  return shape == Shape::MultiSink ? 2 : shape == Shape::InteriorPinned ? 2 : 1;
}

}  // namespace

std::vector<Model> generate_pool(const PoolSpec& spec, std::uint64_t seed) {
  std::vector<Model> pool;
  pool.reserve(spec.count);
  std::vector<std::size_t> per_shape(5, 0);
  for (std::size_t i = 0; i < spec.count; ++i) {
    const Shape shape = spec.schedule[i % spec.schedule.size()];
    const ActorRange& range = range_of(spec, shape);
    const std::size_t k = per_shape[static_cast<std::size_t>(shape)]++;
    const std::size_t target = range.lo + (k * 17) % (range.hi - range.lo + 1);
    const std::size_t tolerance = std::max<std::size_t>(1, target / 20);
    std::size_t size = initial_size(shape, target);
    for (std::uint64_t attempt = 0;; ++attempt) {
      VRDF_REQUIRE(attempt < 256, "no model of the target size found");
      const std::uint64_t draw_seed =
          util::derive_seed(seed, (static_cast<std::uint64_t>(i) << 12) | attempt);
      try {
        Model model = draw(shape, size, draw_seed);
        const std::size_t actors = model.graph.actor_count();
        if (actors + tolerance >= target && actors <= target + tolerance) {
          pool.push_back(std::move(model));
          break;
        }
        // Re-scale the size parameter toward the target, one step at least.
        const std::size_t scaled = size * target / actors;
        size = std::max(min_size(shape),
                        scaled != size ? scaled
                                       : (actors < target ? size + 1 : size - 1));
      } catch (const OverflowError&) {
        // The generator itself overflowed; redraw with the next seed.
      }
    }
  }
  return pool;
}

}  // namespace bench
