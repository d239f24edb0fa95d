// Tests for the deadlock-freedom analysis, cross-validated against
// simulation search.
#include <gtest/gtest.h>

#include "analysis/deadlock.hpp"
#include "models/mp3.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::RateSet;

/// p + c − gcd(p, c): the pair formula on constant quanta.
std::int64_t constant_pair_capacity(std::int64_t p, std::int64_t c) {
  return min_deadlock_free_pair_capacity(RateSet::singleton(p),
                                         RateSet::singleton(c));
}

TEST(Deadlock, ConstantPairFormula) {
  EXPECT_EQ(constant_pair_capacity(3, 3), 3);   // Fig 1, n ≡ 3
  EXPECT_EQ(constant_pair_capacity(3, 2), 4);   // Fig 1, n ≡ 2
  EXPECT_EQ(constant_pair_capacity(1, 1), 1);
  EXPECT_EQ(constant_pair_capacity(441, 1), 441);
  EXPECT_EQ(constant_pair_capacity(4, 6), 8);
}

TEST(Deadlock, PairCapacityForAllSequences) {
  // Fig 1: pi_max + gamma_max - gcd(3,2,3) = 5.  Note this exceeds both
  // constant-sequence minima (3 and 4): mixed sequences can park the
  // buffer at (data 2, space 2) where pending quanta 3/3 deadlock.
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(3),
                                            RateSet::of({2, 3})),
            5);
  // Zero quanta never bind; with only 3s left g = 3.
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(3),
                                            RateSet::of({0, 3})),
            3);
  // The MP3 reader pair: g = 1 over [1,960] u {2048}.
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(2048),
                                            RateSet::interval(0, 960)),
            2048 + 960 - 1);
  // Singleton sets degenerate to the classical formula.
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(4),
                                            RateSet::singleton(6)),
            8);
}

TEST(Deadlock, WideIntervalGcdIsNotEnumerated) {
  // A dense interval holds two consecutive integers (or 1), so g = 1
  // whatever its width; enumerating [2, 2^40] would not finish.
  const std::int64_t wide = std::int64_t{1} << 40;
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(3),
                                            RateSet::interval(2, wide)),
            3 + wide - 1);
  dataflow::VrdfGraph g;
  const auto src = g.add_actor("src", milliseconds(Rational(1)));
  const auto snk = g.add_actor("snk", milliseconds(Rational(1)));
  (void)g.add_buffer(src, snk, RateSet::singleton(4),
                     RateSet::interval(2, wide), 0);
  EXPECT_EQ(min_deadlock_free_capacities(g),
            (std::vector<std::int64_t>{4 + wide - 1}));
  // Only positive values count: [0, 1] contributes 1.
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(4),
                                            RateSet::interval(0, 1)),
            4);
  // A one-value interval gives its value; an explicit set its own gcd.
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(6),
                                            RateSet::interval(4, 4)),
            8);
  EXPECT_EQ(min_deadlock_free_pair_capacity(RateSet::singleton(4),
                                            RateSet::of({0, 6, 10})),
            12);
}

TEST(Deadlock, MixedSequenceBeatsConstantMinima) {
  // The adversarial trace behind the 5: capacity 4 survives both constant
  // sequences but deadlocks on 2,3,2 followed by a pending 3.
  const auto survives = [](std::int64_t capacity,
                           std::unique_ptr<sim::QuantumSource> source) {
    dataflow::VrdfGraph g;
    const auto a = g.add_actor("a", milliseconds(Rational(1)));
    const auto b = g.add_actor("b", milliseconds(Rational(1)));
    const auto buf =
        g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({2, 3}), capacity);
    sim::Simulator sim(g);
    sim.set_quantum_source(b, buf.data, std::move(source));
    sim.set_default_sources(1);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{b, 64};
    return sim.run(stop).reason == sim::StopReason::ReachedFiringTarget;
  };
  EXPECT_TRUE(survives(4, sim::constant_source(3)));
  EXPECT_TRUE(survives(4, sim::constant_source(2)));
  EXPECT_FALSE(survives(4, sim::scripted_source({2, 3, 2}, 3)));
  EXPECT_TRUE(survives(5, sim::scripted_source({2, 3, 2}, 3)));
}

TEST(Deadlock, ChainCapacitiesInOrder) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const std::vector<std::int64_t> minima =
      min_deadlock_free_capacities(app.graph);
  ASSERT_EQ(minima.size(), 3u);
  EXPECT_EQ(minima[0], 2048 + 960 - 1);
  EXPECT_EQ(minima[1], 1152 + 480 - 96);
  EXPECT_EQ(minima[2], 441);
}

TEST(Deadlock, ChainRejectsNonChain) {
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(1)));
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_THROW((void)min_deadlock_free_capacities(g), ModelError);
}

// Cross-validation: the formula must equal the simulation-search minimum
// for every constant quantum pair in a small grid.
class DeadlockGrid
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(DeadlockGrid, FormulaMatchesSimulationSearch) {
  const auto [p, c] = GetParam();
  const auto deadlock_free = [&](std::int64_t capacity) {
    dataflow::VrdfGraph g;
    const auto a = g.add_actor("a", milliseconds(Rational(1)));
    const auto b = g.add_actor("b", milliseconds(Rational(1)));
    (void)g.add_buffer(a, b, RateSet::singleton(p), RateSet::singleton(c),
                       capacity);
    sim::Simulator sim(g);
    sim.set_default_sources(1);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{b, 64};
    return sim.run(stop).reason == sim::StopReason::ReachedFiringTarget;
  };
  const std::int64_t formula = constant_pair_capacity(p, c);
  EXPECT_TRUE(deadlock_free(formula)) << p << '/' << c;
  EXPECT_FALSE(deadlock_free(formula - 1)) << p << '/' << c;
}

INSTANTIATE_TEST_SUITE_P(
    SmallGrid, DeadlockGrid,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 8),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 8)));

TEST(Deadlock, VariableSequenceSurvivesAtPairCapacity) {
  // Random {2,3} sequences never deadlock at the all-sequence capacity 5.
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(1)));
  const auto buf =
      g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({2, 3}), 5);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim(g);
    sim.set_quantum_source(
        b, buf.data, sim::uniform_random_source(RateSet::of({2, 3}), seed));
    sim.set_default_sources(seed);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{b, 500};
    EXPECT_EQ(sim.run(stop).reason, sim::StopReason::ReachedFiringTarget)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace vrdf::analysis
