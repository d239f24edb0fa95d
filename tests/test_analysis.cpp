// Unit tests for pacing propagation and buffer sizing (Sections 4.2-4.4)
// beyond the MP3 case study: the Fig 1/2 example, the source-constrained
// mirror, rounding modes, admissibility diagnostics, and the
// sink/source symmetry property.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"
#include "models/fig1.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

const Duration kTau = milliseconds(Rational(3));

TEST(Pacing, Fig1PacingPropagatesUpstream) {
  // m = {3}, n = {2,3}: φ(va) = (τ/γ̂)·π̌ = (τ/3)·3 = τ.
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const PacingResult pacing = compute_pacing(model.graph, {model.constraint});
  ASSERT_TRUE(pacing.ok);
  EXPECT_EQ(pacing.side, ConstraintSide::Sink);
  ASSERT_EQ(pacing.pacing.size(), 2u);
  EXPECT_EQ(pacing.pacing[0], kTau);
  EXPECT_EQ(pacing.pacing[1], kTau);
}

TEST(Pacing, AcceptsInteriorConstraint) {
  // PR 5: an interior pin paces its upstream cone like a sink and its
  // downstream cone like a source (the old ends-only rejection is gone).
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ActorId b = g.add_actor("b", kTau);
  const ActorId c = g.add_actor("c", kTau);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{b, kTau}});
  ASSERT_TRUE(pacing.ok) << pacing.diagnostics[0];
  EXPECT_EQ(pacing.pacing_of(a), kTau);
  EXPECT_EQ(pacing.pacing_of(b), kTau);
  EXPECT_EQ(pacing.pacing_of(c), kTau);
  ASSERT_EQ(pacing.determined_by.size(), 2u);
  EXPECT_EQ(pacing.determined_by[0], ConstraintSide::Sink);    // a -> b
  EXPECT_EQ(pacing.determined_by[1], ConstraintSide::Source);  // b -> c
  ASSERT_EQ(pacing.constraint_is_sink_kind.size(), 1u);
  EXPECT_TRUE(pacing.constraint_is_sink_kind[0]);
  EXPECT_TRUE(pacing.constraint_is_source_kind[0]);
}

TEST(Pacing, RejectsNonPositivePeriod) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const PacingResult pacing = compute_pacing(
      model.graph, {ThroughputConstraint{model.vb, Duration()}});
  EXPECT_FALSE(pacing.ok);
}

TEST(Pacing, RejectsZeroMinProductionInSinkMode) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ActorId b = g.add_actor("b", kTau);
  (void)g.add_buffer(a, b, RateSet::of({0, 3}), RateSet::singleton(2));
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{b, kTau}});
  EXPECT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("minimum production quantum is zero"),
            std::string::npos);
}

TEST(Pacing, AllowsZeroMinConsumptionInSinkMode) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ActorId b = g.add_actor("b", kTau * Rational(2, 3));
  (void)g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({0, 2, 3}));
  EXPECT_TRUE(compute_pacing(g, {ThroughputConstraint{b, kTau}}).ok);
}

TEST(Pacing, SourceModeMirrorsZeroRules) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ActorId b = g.add_actor("b", kTau);
  (void)g.add_buffer(a, b, RateSet::of({0, 3}), RateSet::singleton(2));
  // Zero *production* is tolerated under a source constraint...
  EXPECT_TRUE(compute_pacing(g, {ThroughputConstraint{a, kTau}}).ok);

  VrdfGraph h;
  const ActorId c = h.add_actor("c", kTau);
  const ActorId d = h.add_actor("d", kTau);
  (void)h.add_buffer(c, d, RateSet::singleton(2), RateSet::of({0, 3}));
  // ...but zero consumption is not.
  const PacingResult pacing =
      compute_pacing(h, {ThroughputConstraint{c, kTau}});
  EXPECT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("minimum consumption quantum is zero"),
            std::string::npos);
}

TEST(BufferSizing, Fig1CapacityAtMaxResponseTimes) {
  // s = τ/3, Δ = 2τ + 2s + 2s = 10τ/3, x = 10; variable pair ⇒ x+1 = 11.
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const GraphAnalysis analysis =
      compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  ASSERT_EQ(analysis.pairs.size(), 1u);
  EXPECT_EQ(analysis.pairs[0].raw_tokens, Rational(10));
  EXPECT_EQ(analysis.pairs[0].capacity, 11);
  EXPECT_FALSE(analysis.pairs[0].is_static);
  EXPECT_EQ(analysis.total_capacity, 11);
}

TEST(BufferSizing, Fig1DeltaBreakdownMatchesEquations) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const GraphAnalysis analysis =
      compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  const PairAnalysis& pair = analysis.pairs[0];
  const Duration s = kTau / Rational(3);
  // Eq (1): ρ(va) + s·(π̂−1) = τ + 2s.
  EXPECT_EQ(pair.delta_producer, kTau + s * Rational(2));
  // Eq (2): ρ(vb) + s·(γ̂−1) = τ + 2s.
  EXPECT_EQ(pair.delta_consumer, kTau + s * Rational(2));
  // Eq (3).
  EXPECT_EQ(pair.delta_total, pair.delta_producer + pair.delta_consumer);
  EXPECT_EQ(pair.bound_rate, s);
}

TEST(BufferSizing, SmallerResponseTimesShrinkCapacity) {
  const Duration half = kTau / Rational(2);
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, half, half);
  const GraphAnalysis analysis =
      compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  // Δ = τ + 4τ/3 = 7τ/3, x = 7 ⇒ 8.
  EXPECT_EQ(analysis.pairs[0].raw_tokens, Rational(7));
  EXPECT_EQ(analysis.pairs[0].capacity, 8);
}

TEST(BufferSizing, RoundingModesDiffer) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  AnalysisOptions options;
  options.rounding = RoundingMode::Ceil;
  EXPECT_EQ(compute_buffer_capacities(model.graph, model.constraint, options)
                .pairs[0]
                .capacity,
            10);
  options.rounding = RoundingMode::PaperLiteral;
  EXPECT_EQ(compute_buffer_capacities(model.graph, model.constraint, options)
                .pairs[0]
                .capacity,
            11);
}

TEST(BufferSizing, InadmissibleWhenResponseExceedsPacing) {
  // ρ(va) = 2τ > φ(va) = τ.
  const models::Fig1Vrdf model =
      models::make_fig1_vrdf(kTau, kTau * Rational(2), kTau);
  const GraphAnalysis analysis =
      compute_buffer_capacities(model.graph, model.constraint);
  EXPECT_FALSE(analysis.admissible);
  ASSERT_FALSE(analysis.diagnostics.empty());
  EXPECT_NE(analysis.diagnostics[0].find("exceeds pacing"), std::string::npos);
  EXPECT_TRUE(analysis.pairs.empty());
}

TEST(BufferSizing, SourceConstrainedStaticPair) {
  // Source mode, static 2/4 pair: s = τ/2, φ(vb) = 2τ,
  // Δ = ρa + ρb + s·1 + s·3 = τ + 2τ + 2τ = 5τ, x = 10; tight pair ⇒ 10.
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ActorId b = g.add_actor("b", kTau * Rational(2));
  (void)g.add_buffer(a, b, RateSet::singleton(2), RateSet::singleton(4));
  const GraphAnalysis analysis =
      compute_buffer_capacities(g, ThroughputConstraint{a, kTau});
  ASSERT_TRUE(analysis.admissible);
  EXPECT_EQ(analysis.side, ConstraintSide::Source);
  EXPECT_EQ(analysis.pacing[1], kTau * Rational(2));
  EXPECT_EQ(analysis.pairs[0].raw_tokens, Rational(10));
  EXPECT_EQ(analysis.pairs[0].capacity, 10);
}

TEST(BufferSizing, SourceAndSinkModesAreMirrorImages) {
  // Reversing a source-constrained chain and swapping π/γ must give
  // identical capacities under a sink constraint (Sec 4.4 mirrors
  // Sec 4.2/4.3).
  const auto expect_mirrored = [](const VrdfGraph& source_graph,
                                  const ThroughputConstraint& constraint) {
    const auto view = source_graph.chain_view();
    ASSERT_TRUE(view.has_value());
    const std::size_t n = view->actors.size();
    VrdfGraph sink_graph;
    std::vector<ActorId> ids;
    for (std::size_t i = n; i-- > 0;) {
      const dataflow::Actor& actor = source_graph.actor(view->actors[i]);
      ids.push_back(sink_graph.add_actor(actor.name, actor.response_time));
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const dataflow::Edge& data =
          source_graph.edge(view->buffers[n - 2 - i].data);
      (void)sink_graph.add_buffer(ids[i], ids[i + 1], data.consumption,
                                  data.production);
    }
    const GraphAnalysis source_analysis =
        compute_buffer_capacities(source_graph, {constraint});
    const GraphAnalysis sink_analysis = compute_buffer_capacities(
        sink_graph, {ThroughputConstraint{ids.back(), constraint.period}});
    ASSERT_TRUE(source_analysis.admissible);
    ASSERT_TRUE(sink_analysis.admissible);
    EXPECT_EQ(source_analysis.side, ConstraintSide::Source);
    EXPECT_EQ(sink_analysis.side, ConstraintSide::Sink);
    ASSERT_EQ(sink_analysis.pairs.size(), n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_EQ(source_analysis.pairs[i].raw_tokens,
                sink_analysis.pairs[n - 2 - i].raw_tokens);
      EXPECT_EQ(source_analysis.pairs[i].capacity,
                sink_analysis.pairs[n - 2 - i].capacity);
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(source_analysis.pacing[i], sink_analysis.pacing[n - 1 - i]);
    }
  };

  VrdfGraph pair;
  const ActorId a = pair.add_actor("a", kTau);
  const ActorId b = pair.add_actor("b", kTau * Rational(3, 5));
  (void)pair.add_buffer(a, b, RateSet::of({2, 5}), RateSet::of({3, 4}));
  expect_mirrored(pair, ThroughputConstraint{a, kTau});

  const models::SyntheticChain sensor = models::make_sensor_acquisition();
  expect_mirrored(sensor.graph, sensor.constraint);
}

TEST(BufferSizing, SingleActorChainIsTriviallyAdmissible) {
  VrdfGraph g;
  const ActorId a = g.add_actor("only", kTau);
  const GraphAnalysis analysis =
      compute_buffer_capacities(g, ThroughputConstraint{a, kTau});
  ASSERT_TRUE(analysis.admissible);
  EXPECT_TRUE(analysis.pairs.empty());
  EXPECT_EQ(analysis.total_capacity, 0);
}

TEST(BufferSizing, SingleActorSlowerThanPeriodIsInadmissible) {
  VrdfGraph g;
  const ActorId a = g.add_actor("only", kTau * Rational(2));
  EXPECT_FALSE(
      compute_buffer_capacities(g, ThroughputConstraint{a, kTau}).admissible);
}

TEST(BufferSizing, ApplyCapacitiesWritesSpaceEdges) {
  models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const GraphAnalysis analysis =
      compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(analysis.admissible);
  apply_capacities(model.graph, analysis);
  EXPECT_EQ(model.graph.edge(model.buffer.space).initial_tokens, 11);
  EXPECT_EQ(model.graph.edge(model.buffer.data).initial_tokens, 0);
}

TEST(BufferSizing, ApplyCapacitiesRejectsInadmissibleAnalysis) {
  models::Fig1Vrdf model =
      models::make_fig1_vrdf(kTau, kTau * Rational(2), kTau);
  const GraphAnalysis analysis =
      compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_FALSE(analysis.admissible);
  EXPECT_THROW(apply_capacities(model.graph, analysis), ContractError);
}

TEST(BufferSizing, WiderConsumptionSetNeverShrinksCapacity) {
  // Monotonicity of the formula in the variability: enlarging γ's range
  // cannot reduce the computed capacity.
  std::int64_t previous = 0;
  for (std::int64_t gamma_min : {3LL, 2LL, 1LL, 0LL}) {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kTau);
    const ActorId b = g.add_actor("b", kTau);
    (void)g.add_buffer(a, b, RateSet::singleton(3),
                       RateSet::interval(gamma_min, 3));
    const GraphAnalysis analysis =
        compute_buffer_capacities(g, ThroughputConstraint{b, kTau});
    ASSERT_TRUE(analysis.admissible);
    EXPECT_GE(analysis.pairs[0].capacity, previous);
    previous = analysis.pairs[0].capacity;
  }
}

TEST(ResponseTimeBudget, MatchesPacing) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const ResponseTimeBudget budget =
      max_admissible_response_times(model.graph, {model.constraint});
  ASSERT_TRUE(budget.ok);
  ASSERT_EQ(budget.max_response_times.size(), 2u);
  EXPECT_EQ(budget.max_response_times[0], kTau);
  EXPECT_EQ(budget.max_response_times[1], kTau);
}

TEST(ResponseTimeBudget, FailsOnNonChain) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ResponseTimeBudget budget = max_admissible_response_times(
      g, {ThroughputConstraint{a, Duration()}});
  EXPECT_FALSE(budget.ok);
}

}  // namespace
}  // namespace vrdf::analysis
