// Tests for the inverse analysis: fastest admissible period for given
// capacities.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "models/fig1.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

namespace vrdf::analysis {
namespace {

TEST(MinPeriod, Mp3RoundTripIsExact) {
  // Capacities computed at 1/44100 s with tight response times: the
  // fastest admissible period is exactly 1/44100 s (the response-time
  // constraints bind — the paper chose ρ(v) = φ(v)).
  models::Mp3Playback app = models::make_mp3_playback();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  apply_capacities(app.graph, sized);
  const MinPeriodResult inverse = min_admissible_period(app.graph, app.dac);
  ASSERT_TRUE(inverse.ok) << (inverse.diagnostics.empty()
                                  ? ""
                                  : inverse.diagnostics[0]);
  EXPECT_EQ(inverse.min_period, period_of_hz(Rational(44100)));
  // x is integral on every pair here, so infimum and minimum coincide and
  // the bound is attained (response times bind).
  EXPECT_EQ(inverse.infimum_period, inverse.min_period);
  EXPECT_TRUE(inverse.infimum_attained);
}

TEST(MinPeriod, CapacityBoundWhenResponseTimesHaveSlack) {
  // Halved response times: capacities sized for τ become the binding
  // constraint at some faster rate; the round trip must be consistent.
  const Duration tau = milliseconds(Rational(3));
  models::Fig1Vrdf model =
      models::make_fig1_vrdf(tau, tau / Rational(2), tau / Rational(2));
  const GraphAnalysis sized =
      compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(model.graph, sized);

  const MinPeriodResult inverse =
      min_admissible_period(model.graph, model.vb);
  ASSERT_TRUE(inverse.ok);
  EXPECT_LE(inverse.min_period, tau);

  // At the reported minimum the same capacities must still be admissible
  // and sufficient per the forward analysis...
  const GraphAnalysis at_min = compute_buffer_capacities(
      model.graph, ThroughputConstraint{model.vb, inverse.min_period});
  ASSERT_TRUE(at_min.admissible);
  for (std::size_t i = 0; i < at_min.pairs.size(); ++i) {
    EXPECT_LE(at_min.pairs[i].capacity,
              model.graph.edge(at_min.pairs[i].buffer.space).initial_tokens);
  }
  // ...and 1% faster must violate the (attained) sufficiency criterion
  // x ≤ d − 1 the inverse analysis uses — the closed form is conservative
  // by design: the literal forward rounding accepts x < d, an open
  // condition with no attained minimum period.
  const Duration faster = inverse.min_period * Rational(99, 100);
  const GraphAnalysis too_fast = compute_buffer_capacities(
      model.graph, ThroughputConstraint{model.vb, faster});
  bool violated = !too_fast.admissible;
  if (!violated) {
    for (std::size_t i = 0; i < too_fast.pairs.size(); ++i) {
      const std::int64_t installed =
          model.graph.edge(too_fast.pairs[i].buffer.space).initial_tokens;
      violated =
          violated || too_fast.pairs[i].raw_tokens > Rational(installed - 1);
    }
  }
  EXPECT_TRUE(violated);
}

TEST(MinPeriod, VerifiedBySimulationAtTheMinimum) {
  const Duration tau = milliseconds(Rational(3));
  models::Fig1Vrdf model =
      models::make_fig1_vrdf(tau, tau / Rational(2), tau / Rational(2));
  const GraphAnalysis sized =
      compute_buffer_capacities(model.graph, model.constraint);
  apply_capacities(model.graph, sized);
  const MinPeriodResult inverse =
      min_admissible_period(model.graph, model.vb);
  ASSERT_TRUE(inverse.ok);

  sim::VerifyOptions options;
  options.observe_firings = 3000;
  const sim::VerifyResult verdict = sim::verify_throughput(
      model.graph,
      {ThroughputConstraint{model.vb, inverse.min_period}}, {}, options);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(MinPeriod, SourceConstrainedRoundTrip) {
  models::SyntheticChain chain = models::make_sensor_acquisition();
  const GraphAnalysis sized =
      compute_buffer_capacities(chain.graph, chain.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(chain.graph, sized);
  const MinPeriodResult inverse =
      min_admissible_period(chain.graph, chain.constraint.actor);
  ASSERT_TRUE(inverse.ok);
  EXPECT_LE(inverse.infimum_period, chain.constraint.period);
}

TEST(MinPeriod, UndersizedBufferCannotSustainAnyRate) {
  const Duration tau = milliseconds(Rational(3));
  models::Fig1Vrdf model = models::make_fig1_vrdf(tau, tau, tau);
  // π̂ + γ̂ − 1 = 5 is the structural floor for the +1 form.
  model.graph.set_initial_tokens(model.buffer.space, 5);
  const MinPeriodResult inverse =
      min_admissible_period(model.graph, model.vb);
  EXPECT_FALSE(inverse.ok);
  ASSERT_FALSE(inverse.diagnostics.empty());
  EXPECT_NE(inverse.diagnostics[0].find("cannot sustain any rate"),
            std::string::npos);
}

TEST(MinPeriod, LargerCapacityNeverSlowsTheMinimum) {
  const Duration tau = milliseconds(Rational(3));
  Duration previous = seconds(Rational(1000));
  for (const std::int64_t capacity : {6LL, 8LL, 11LL, 20LL, 100LL}) {
    models::Fig1Vrdf model =
        models::make_fig1_vrdf(tau, tau / Rational(4), tau / Rational(4));
    model.graph.set_initial_tokens(model.buffer.space, capacity);
    const MinPeriodResult inverse =
        min_admissible_period(model.graph, model.vb);
    ASSERT_TRUE(inverse.ok) << "capacity " << capacity;
    EXPECT_LE(inverse.min_period, previous);
    previous = inverse.min_period;
  }
}

TEST(MinPeriod, ReportsBindingConstraint) {
  models::Mp3Playback app = models::make_mp3_playback();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  apply_capacities(app.graph, sized);
  const MinPeriodResult inverse = min_admissible_period(app.graph, app.dac);
  ASSERT_TRUE(inverse.ok);
  // With ρ(v) = φ(v) every actor binds; the reported one must be an actor.
  EXPECT_EQ(inverse.binding_constraint.rfind("actor ", 0), 0u);
}

class MinPeriodRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinPeriodRoundTrip, ForwardThenInverseIsConsistentOnRandomChains) {
  models::RandomChainSpec spec;
  spec.seed = GetParam();
  spec.length = 3 + spec.seed % 4;
  spec.response_fraction = Rational(1, 2);
  models::SyntheticChain chain = models::make_random_chain(spec);
  const GraphAnalysis sized =
      compute_buffer_capacities(chain.graph, chain.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(chain.graph, sized);

  const MinPeriodResult inverse =
      min_admissible_period(chain.graph, chain.constraint.actor);
  ASSERT_TRUE(inverse.ok) << (inverse.diagnostics.empty()
                                  ? ""
                                  : inverse.diagnostics[0]);
  // The sizing period is feasible, so it is at least the infimum; the
  // attained min_period may exceed it by less than one token's rate when
  // x is non-integral at the binding pair.
  EXPECT_LE(inverse.infimum_period, chain.constraint.period);
  EXPECT_LE(inverse.infimum_period, inverse.min_period);
  // The forward analysis at the (attained, conservative) minimum must fit
  // within the installed capacities.
  const GraphAnalysis at_min = compute_buffer_capacities(
      chain.graph,
      ThroughputConstraint{chain.constraint.actor, inverse.min_period});
  ASSERT_TRUE(at_min.admissible);
  for (const auto& pair : at_min.pairs) {
    EXPECT_LE(pair.capacity,
              chain.graph.edge(pair.buffer.space).initial_tokens);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinPeriodRoundTrip,
                         ::testing::Values(2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u));

}  // namespace
}  // namespace vrdf::analysis
