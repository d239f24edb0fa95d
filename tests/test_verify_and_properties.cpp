// Tests for the two-phase sufficiency verifier, the monotonicity/linearity
// property checkers (Defs 1 and 2), and linear-bound conservativeness.
#include <gtest/gtest.h>

#include <random>

#include "analysis/buffer_sizing.hpp"
#include "analysis/linear_bounds.hpp"
#include "models/fig1.hpp"
#include "models/synthetic.hpp"
#include "sim/property_checks.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf {
namespace {

using analysis::GraphAnalysis;
using analysis::ThroughputConstraint;
using dataflow::RateSet;
using models::Fig1Vrdf;

const Duration kTau = milliseconds(Rational(3));

Fig1Vrdf sized_fig1() {
  Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  analysis::apply_capacities(model.graph, analysis);
  return model;
}

TEST(Verify, Fig1ComputedCapacityPassesAllSequences) {
  Fig1Vrdf model = sized_fig1();
  sim::VerifyOptions options;
  options.observe_firings = 2000;
  for (const auto& make_source :
       {+[]() { return sim::constant_source(2); },
        +[]() { return sim::constant_source(3); },
        +[]() { return sim::cyclic_source({2, 3}); },
        +[]() { return sim::uniform_random_source(RateSet::of({2, 3}), 99); }}) {
    const sim::VerifyResult result = sim::verify_throughput(
        model.graph, {model.constraint},
        [&](sim::Simulator& s) {
          s.set_quantum_source(model.vb, model.buffer.data, make_source());
        },
        options);
    EXPECT_TRUE(result.ok) << result.detail;
  }
}

TEST(Verify, OneBelowPerSequenceMinimumFails) {
  // Find the exact per-sequence minimum for the alternating sequence via
  // simulation, then show one token less starves the periodic consumer —
  // the verifier must be able to tell the difference.
  const auto feasible = [&](std::int64_t capacity) {
    Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
    model.graph.set_initial_tokens(model.buffer.space, capacity);
    sim::VerifyOptions options;
    options.observe_firings = 2000;
    return sim::verify_throughput(
               model.graph, {model.constraint},
               [&](sim::Simulator& s) {
                 s.set_quantum_source(model.vb, model.buffer.data,
                                      sim::cyclic_source({2, 3}));
               },
               options)
        .ok;
  };
  std::int64_t minimum = 3;
  while (!feasible(minimum)) {
    ++minimum;
    ASSERT_LE(minimum, 11);  // the analysis bound must suffice
  }
  EXPECT_GT(minimum, 3);         // deadlock-free floor is not enough
  EXPECT_FALSE(feasible(minimum - 1));
  EXPECT_TRUE(feasible(11));     // the analysis capacity always passes
}

TEST(Verify, ReportsDeadlockInPhaseOne) {
  Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  model.graph.set_initial_tokens(model.buffer.space, 2);  // < π̂ = 3
  const sim::VerifyResult result =
      sim::verify_throughput(model.graph, {model.constraint});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("deadlock"), std::string::npos);
}

TEST(Verify, MeasureSelfTimedThroughput) {
  Fig1Vrdf model = sized_fig1();
  const Rational throughput = sim::measure_self_timed_throughput(
      model.graph, model.vb, 500, [&](sim::Simulator& s) {
        s.set_quantum_source(model.vb, model.buffer.data,
                             sim::constant_source(3));
      });
  // Self-timed must be at least the required rate 1/τ.
  EXPECT_GE(throughput, kTau.seconds().reciprocal());
}

TEST(Verify, ThroughputZeroOnDeadlock) {
  models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  model.graph.set_initial_tokens(model.buffer.space, 1);
  EXPECT_EQ(sim::measure_self_timed_throughput(model.graph, model.vb, 10),
            Rational(0));
}

class TemporalProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TemporalProperties, RandomChainsAreMonotonicAndLinear) {
  models::RandomChainSpec spec;
  spec.seed = GetParam();
  spec.length = 4;
  spec.response_fraction = Rational(1, 2);
  models::SyntheticChain chain = models::make_random_chain(spec);
  const GraphAnalysis analysis = analysis::compute_buffer_capacities(
      chain.graph, chain.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(chain.graph, analysis);

  // Delay firing 3 of the middle actor by half a period.
  const auto report = sim::check_monotonic_linear(
      chain.graph, analysis.actors_in_order[1], 3,
      chain.constraint.period * Rational(1, 2),
      TimePoint() + chain.constraint.period * Rational(200), {}, GetParam());
  EXPECT_TRUE(report.monotonic) << report.detail;
  EXPECT_TRUE(report.linear) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalProperties,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST_P(TemporalProperties, RandomCyclicGraphsAreMonotonicAndLinear) {
  models::RandomCyclicSpec spec;
  spec.base.seed = GetParam();
  spec.base.response_fraction = Rational(1, 2);
  models::SyntheticChain model = models::make_random_cyclic(spec);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(model.graph, analysis);

  // Delay firing 3 of the data source by half a period; back-edges must
  // propagate the delay without amplifying it (Defs 1 and 2 hold for
  // cyclic graphs too — the sufficiency argument relies on it).
  const auto report = sim::check_monotonic_linear(
      model.graph, analysis.actors_in_order.front(), 3,
      model.constraint.period * Rational(1, 2),
      TimePoint() + model.constraint.period * Rational(200), {}, GetParam());
  EXPECT_TRUE(report.monotonic) << report.detail;
  EXPECT_TRUE(report.linear) << report.detail;
}

TEST_P(TemporalProperties, RandomInteriorPinnedChainsAreMonotonicAndLinear) {
  models::RandomInteriorPinSpec spec;
  spec.seed = GetParam();
  spec.response_fraction = Rational(1, 2);
  models::SyntheticChain model = models::make_random_interior_pinned(spec);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(model.graph, analysis);

  // Delay an actor upstream of the pin: the delay must reach the pin's
  // downstream cone monotonically and stay bounded by the injected Δ.
  const auto report = sim::check_monotonic_linear(
      model.graph, analysis.actors_in_order.front(), 3,
      model.constraint.period * Rational(1, 2),
      TimePoint() + model.constraint.period * Rational(200), {}, GetParam());
  EXPECT_TRUE(report.monotonic) << report.detail;
  EXPECT_TRUE(report.linear) << report.detail;
}

TEST_P(TemporalProperties, FaultedCyclicLatenessIsMonotoneAndLinearInDelta) {
  models::RandomCyclicSpec spec;
  spec.base.seed = GetParam();
  spec.base.response_fraction = Rational(1, 2);
  models::SyntheticChain model = models::make_random_cyclic(spec);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(model.graph, analysis);

  // Injected Δ via the fault layer instead of a release delay: a
  // transient stall of Δ vs 2Δ on the source.  Start times must move
  // monotonically and by at most the extra Δ.
  const Duration delta = model.constraint.period * Rational(1, 2);
  const TimePoint horizon =
      TimePoint() + model.constraint.period * Rational(200);
  sim::FaultPlan light;
  light.transient_stall(analysis.actors_in_order.front(), 3, delta);
  sim::FaultPlan heavy;
  heavy.transient_stall(analysis.actors_in_order.front(), 3,
                        delta * Rational(2));
  const auto report = sim::check_fault_monotonic_linear(
      model.graph, light, heavy, delta, horizon, {}, GetParam());
  EXPECT_TRUE(report.monotonic) << report.detail;
  EXPECT_TRUE(report.linear) << report.detail;
}

TEST_P(TemporalProperties, FaultedInteriorPinLatenessIsMonotoneAndLinear) {
  models::RandomInteriorPinSpec spec;
  spec.seed = GetParam();
  spec.response_fraction = Rational(1, 2);
  models::SyntheticChain model = models::make_random_interior_pinned(spec);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(model.graph, analysis);

  const Duration delta = model.constraint.period * Rational(1, 2);
  const TimePoint horizon =
      TimePoint() + model.constraint.period * Rational(200);
  sim::FaultPlan none;
  sim::FaultPlan stalled;
  stalled.transient_stall(analysis.actors_in_order.front(), 3, delta);
  const auto report = sim::check_fault_monotonic_linear(
      model.graph, none, stalled, delta, horizon, {}, GetParam());
  EXPECT_TRUE(report.monotonic) << report.detail;
  EXPECT_TRUE(report.linear) << report.detail;
}

TEST(LinearBounds, EvaluationIsAffine) {
  const analysis::LinearBound bound(milliseconds(Rational(5)),
                                    milliseconds(Rational(2)));
  EXPECT_EQ(bound.at(1), TimePoint(Rational(7, 1000)));
  EXPECT_EQ(bound.at(4), TimePoint(Rational(13, 1000)));
  EXPECT_THROW((void)bound.at(0), ContractError);
}

TEST(LinearBounds, PairBoundsSatisfyEquations) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  const analysis::PairBounds bounds =
      analysis::derive_pair_bounds(analysis.pairs[0], TimePoint());
  // Eq (1): α̂p(data) − α̌c(space) = Δ1.
  EXPECT_EQ(bounds.data_production_upper.offset() -
                bounds.space_consumption_lower.offset(),
            analysis.pairs[0].delta_producer);
  // Eq (2): α̂p(space) − α̌c(data) = Δ2.
  EXPECT_EQ(bounds.space_production_upper.offset() -
                bounds.data_consumption_lower.offset(),
            analysis.pairs[0].delta_consumer);
  // Eq (3)+(4): token distance equals the raw token count.
  EXPECT_EQ(analysis::bound_token_distance(bounds), analysis.pairs[0].raw_tokens);
}

TEST(LinearBounds, JustConservativeSchedulesAreConservative) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  const analysis::PairBounds bounds =
      analysis::derive_pair_bounds(analysis.pairs[0], TimePoint());

  const std::vector<std::int64_t> producer_quanta{3, 3, 3, 3};
  const auto productions = analysis::just_conservative_producer_schedule(
      bounds.data_production_upper, producer_quanta);
  EXPECT_TRUE(analysis::production_conservative(bounds.data_production_upper,
                                                productions));

  const std::vector<std::int64_t> consumer_quanta{2, 3, 2, 2, 3};
  const auto consumptions = analysis::just_conservative_consumer_schedule(
      bounds.data_consumption_lower, consumer_quanta);
  EXPECT_TRUE(analysis::consumption_conservative(bounds.data_consumption_lower,
                                                 consumptions));

  // Fig 3/4 over many admissible sequences: 1000 random {2,3} consumer
  // sequences of 32 firings against the always-3 producer witness.
  const auto witness = analysis::just_conservative_producer_schedule(
      bounds.data_production_upper, std::vector<std::int64_t>(32, 3));
  EXPECT_TRUE(
      analysis::production_conservative(bounds.data_production_upper, witness));
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<int> pick(0, 1);
  for (int round = 0; round < 1000; ++round) {
    std::vector<std::int64_t> quanta;
    for (int i = 0; i < 32; ++i) {
      quanta.push_back(pick(rng) == 0 ? 2 : 3);
    }
    const auto schedule = analysis::just_conservative_consumer_schedule(
        bounds.data_consumption_lower, quanta);
    ASSERT_TRUE(analysis::consumption_conservative(
        bounds.data_consumption_lower, schedule))
        << "round " << round;
  }
}

TEST(LinearBounds, ViolationsAreDetected) {
  const analysis::LinearBound bound(Duration(), milliseconds(Rational(1)));
  // Token 5 produced after its bound (5 ms).
  const std::vector<analysis::TransferEvent> late{
      {5, 5, TimePoint(Rational(6, 1000))}};
  EXPECT_FALSE(analysis::production_conservative(bound, late));
  // Token 5 consumed before its bound.
  const std::vector<analysis::TransferEvent> early{
      {5, 5, TimePoint(Rational(4, 1000))}};
  EXPECT_FALSE(analysis::consumption_conservative(bound, early));
  // Zero-count events are ignored by both directions.
  const std::vector<analysis::TransferEvent> zero{{5, 0, TimePoint()}};
  EXPECT_TRUE(analysis::production_conservative(bound, zero));
  EXPECT_TRUE(analysis::consumption_conservative(bound, zero));
}

TEST(LinearBounds, PeriodicMaxRateRunMatchesBoundsExactly) {
  // Drive Fig 1 exactly as the bound construction assumes: the consumer
  // strictly periodic at period τ with always-max quanta.  Anchoring the
  // pair bounds at (first consumer start − τ), the simulation must
  // satisfy, with equality at the binding tokens:
  //  * the lower bound on data consumption times (Sec 4.2 construction),
  //  * the upper bound on space production times (Eq 2),
  //  * the upper bound on data production times (producer self-timed is
  //    never later than the witness schedule — monotonicity).
  // Witness anchoring: the producer fires self-timed from t = 0, so its
  // first firing finishes at ρ(va) and the data production bound must pass
  // through (token 1, ρ(va)): anchor A = ρ(va) − s.  The consumer is then
  // pinned one period after the anchor (o = A + γ̂·s = A + τ), the offset
  // at which its lower consumption bound is met with equality.
  models::Fig1Vrdf model = sized_fig1();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  const Duration s = analysis.pairs[0].bound_rate;
  const TimePoint anchor = TimePoint() + (kTau - s);  // ρ(va) − s
  const TimePoint consumer_offset = anchor + kTau;    // A + 3s

  sim::Simulator periodic(model.graph);
  periodic.set_quantum_source(model.vb, model.buffer.data,
                              sim::constant_source(3));
  periodic.set_default_sources(1);
  periodic.set_actor_mode(
      model.vb, sim::ActorMode::strictly_periodic(consumer_offset, kTau));
  periodic.record_transfers(model.buffer.data);
  periodic.record_transfers(model.buffer.space);
  sim::StopCondition stop;
  stop.firing_target = sim::StopCondition::FiringTarget{model.vb, 300};
  const sim::RunResult run = periodic.run(stop);
  ASSERT_EQ(run.reason, sim::StopReason::ReachedFiringTarget);
  ASSERT_TRUE(run.starvations.empty());

  const analysis::PairBounds bounds =
      analysis::derive_pair_bounds(analysis.pairs[0], anchor);

  const auto convert = [](const std::vector<sim::EdgeTransfer>& events) {
    std::vector<analysis::TransferEvent> out;
    for (const auto& e : events) {
      out.push_back(analysis::TransferEvent{e.cumulative, e.count, e.time});
    }
    return out;
  };
  // All four bounds of the pair hold on the recorded schedule.
  EXPECT_TRUE(analysis::consumption_conservative(
      bounds.data_consumption_lower,
      convert(periodic.consumption_events(model.buffer.data))));
  EXPECT_TRUE(analysis::production_conservative(
      bounds.data_production_upper,
      convert(periodic.production_events(model.buffer.data))));
  EXPECT_TRUE(analysis::production_conservative(
      bounds.space_production_upper,
      convert(periodic.production_events(model.buffer.space))));
  EXPECT_TRUE(analysis::consumption_conservative(
      bounds.space_consumption_lower,
      convert(periodic.consumption_events(model.buffer.space))));
}

}  // namespace
}  // namespace vrdf
