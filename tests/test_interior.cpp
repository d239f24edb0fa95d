// Interior throughput constraints (PR 5): a strictly periodic actor in
// the middle of the graph anchors its upstream cone like a sink and its
// downstream cone like a source.  Hand-checked capacities on the
// interior-pinned pipeline, the two-phase simulation harness, a random
// interior-pin sweep, min-period (plain and designated), the io
// surfaces, and the rejection diagnostics that *remain* once the old
// "is interior" rejection is gone.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"
#include "analysis/period.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "io/text_format.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

// ------------------------------------------------ interior-pinned pipeline

TEST(Interior, PinnedPipelineHandComputedCapacities) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  ASSERT_EQ(sized.pairs.size(), 4u);
  EXPECT_TRUE(sized.is_chain);
  ASSERT_EQ(sized.constraint_is_sink_kind.size(), 1u);
  EXPECT_TRUE(sized.constraint_is_sink_kind[0]);
  EXPECT_TRUE(sized.constraint_is_source_kind[0]);

  // Gears 4/2/1/2/8 with τ = 5 ms: φ(source) 20 ms, φ(dec) 10 ms,
  // φ(dsp) = τ = 5 ms, φ(render) 10 ms, φ(sink) 40 ms.
  for (std::size_t i = 0; i < sized.actors_in_order.size(); ++i) {
    const std::string& name = app.graph.actor(sized.actors_in_order[i]).name;
    const Rational phi = sized.pacing[i].seconds();
    if (name == "source") {
      EXPECT_EQ(phi, Rational(1, 50));
    } else if (name == "dec" || name == "render") {
      EXPECT_EQ(phi, Rational(1, 100));
    } else if (name == "dsp") {
      EXPECT_EQ(phi, Rational(1, 200));
    } else {
      EXPECT_EQ(name, "sink");
      EXPECT_EQ(phi, Rational(1, 25));
    }
  }

  // Hand computation at tight response times ρ(v) = φ(v), every bound
  // rate s = 5 ms per token, in units of τ = 5 ms:
  //   ω(dsp) = 0 (the pin anchors both passes)
  //   pass A: ω(dec) = 2 + (0 + 1·(2−1))     = 3
  //           ω(source) = 4 + (3 + 1·(4−1))  = 10
  //   pass B: ω(render) = 0 + 1 + 1·(1−1)    = 1
  //           ω(sink)   = 1 + 2 + 1·(2−1)    = 4
  // Pair capacities (Δ_p = max(ω gap, ρ_p + s(π̂−1)), Δ_c = ρ_c + s(γ̂−1)):
  //   source→dec:  max(10−3, 4+3) + 2+1   → x = 10 → 11
  //   dec→dsp:     max(3−0, 2+1) + 1+0    → x = 4  → 4 (static at the pin: tight)
  //   dsp→render:  max(1−0, 1+0) + 2+3    → x = 6  → 7 (producer-paced)
  //   render→sink: max(4−1, 2+1) + 8+7    → x = 18 → 19 (producer-paced)
  for (const PairAnalysis& pair : sized.pairs) {
    const std::string name = app.graph.actor(pair.producer).name + "->" +
                             app.graph.actor(pair.consumer).name;
    if (name == "source->dec") {
      EXPECT_EQ(pair.capacity, 11) << name;
      EXPECT_EQ(pair.determined_by, ConstraintSide::Sink);
    } else if (name == "dec->dsp") {
      EXPECT_EQ(pair.capacity, 4) << name;
      EXPECT_EQ(pair.determined_by, ConstraintSide::Sink);
    } else if (name == "dsp->render") {
      EXPECT_EQ(pair.capacity, 7) << name;
      EXPECT_EQ(pair.determined_by, ConstraintSide::Source);
    } else {
      EXPECT_EQ(name, "render->sink");
      EXPECT_EQ(pair.capacity, 19) << name;
      EXPECT_EQ(pair.determined_by, ConstraintSide::Source);
    }
  }
  EXPECT_EQ(sized.total_capacity, 41);
}

TEST(Interior, PinnedPipelineSurvivesTwoPhaseSimulation) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 2000;
  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, {app.constraint}, {}, options);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

TEST(Interior, PinnedForkJoinThroughTheInteriorJoin) {
  // The pin may be a join/fork itself: src forks into two static
  // branches joined by the pinned mixer, which feeds a sink — the
  // upstream fork-join block paces like a sink-constrained DAG, the
  // downstream edge like a source-constrained chain.
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  const ActorId src = bare.add_actor("src", dummy);
  const ActorId ba = bare.add_actor("ba", dummy);
  const ActorId bb = bare.add_actor("bb", dummy);
  const ActorId mix = bare.add_actor("mix", dummy);
  const ActorId out = bare.add_actor("out", dummy);
  // Gears src 2 / ba 1 / bb 4 / mix 2 / out 1 (φ(v) = g(v)·2 ms): both
  // branches demand φ(src) = 4 ms, the block is static, and the
  // downstream edge carries the source-mode zero-tolerant production.
  (void)bare.add_buffer(src, ba, RateSet::singleton(2), RateSet::singleton(1));
  (void)bare.add_buffer(src, bb, RateSet::singleton(2), RateSet::singleton(4));
  (void)bare.add_buffer(ba, mix, RateSet::singleton(1), RateSet::singleton(2));
  (void)bare.add_buffer(bb, mix, RateSet::singleton(4), RateSet::singleton(2));
  (void)bare.add_buffer(mix, out, RateSet::of({0, 2}), RateSet::singleton(1));
  const ThroughputConstraint pin{mix, milliseconds(Rational(4))};
  auto scaled = models::with_scaled_response_times(bare, {pin}, Rational(1));
  ASSERT_TRUE(scaled.has_value());
  VrdfGraph graph = std::move(*scaled);
  const GraphAnalysis sized = compute_buffer_capacities(graph, pin);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  apply_capacities(graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 1000;
  const sim::VerifyResult verdict =
      sim::verify_throughput(graph, {pin}, {}, options);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

// ----------------------------------------------- random interior-pin sweep

TEST(Interior, RandomInteriorPinnedChainsSustainPeriodicExecution) {
  // The acceptance check, through the fleet harness (PR 8): 60 random
  // interior-pinned chains — up from 40 — pass the two-phase simulation
  // harness with zero phase-2 starvations.  The generator preserves the
  // PR 5 per-seed shape schedule.
  sim::SweepSpec spec;
  spec.classes = {models::ModelClass::InteriorPinned};
  spec.seeds_per_class = 60;
  spec.observe_firings = 400;
  spec.generator = [](const sim::FleetItem& item) {
    models::RandomInteriorPinSpec pin;
    pin.seed = item.seed_ordinal;
    pin.upstream_length = 1 + item.seed_ordinal % 3;
    pin.downstream_length = 1 + (item.seed_ordinal / 3) % 3;
    pin.variable_percent = 60;
    pin.zero_percent = 25;
    models::SyntheticChain generated = models::make_random_interior_pinned(pin);
    models::SyntheticModel model;
    model.graph = std::move(generated.graph);
    model.constraints = {generated.constraint};
    return model;
  };
  const sim::FleetReport report = sim::FleetSweep(spec).run(4);
  EXPECT_EQ(report.total_items, 60);
  EXPECT_EQ(report.passed, report.total_items) << sim::canonical_text(report);
  EXPECT_EQ(report.failed + report.rejected, 0);
  EXPECT_EQ(report.starvations, 0);
}

// ------------------------------------------------------ min-period solvers

TEST(Interior, DesignatedMinPeriodCouplesThePinToAFixedSink) {
  // Chain src → pin → snk, static flow-balanced rates; with the sink
  // fixed at 8 ms, flow consistency pins the interior actor to exactly
  // 2 ms (gears 2/1/4).
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  const ActorId src = bare.add_actor("src", dummy);
  const ActorId pin = bare.add_actor("pin", dummy);
  const ActorId snk = bare.add_actor("snk", dummy);
  (void)bare.add_buffer(src, pin, RateSet::singleton(2), RateSet::singleton(1));
  (void)bare.add_buffer(pin, snk, RateSet::singleton(1), RateSet::singleton(4));
  const ConstraintSet both = {
      ThroughputConstraint{pin, milliseconds(Rational(2))},
      ThroughputConstraint{snk, milliseconds(Rational(8))}};
  auto scaled = models::with_scaled_response_times(bare, both, Rational(1));
  ASSERT_TRUE(scaled.has_value());
  VrdfGraph graph = std::move(*scaled);
  const GraphAnalysis sized = compute_buffer_capacities(graph, both);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  apply_capacities(graph, sized);
  const MinPeriodResult coupled = min_admissible_period(graph, both, pin);
  ASSERT_TRUE(coupled.ok)
      << (coupled.diagnostics.empty() ? "" : coupled.diagnostics[0]);
  EXPECT_EQ(coupled.min_period, milliseconds(Rational(2)));
  EXPECT_NE(coupled.binding_constraint.find("flow-coupling"),
            std::string::npos);

  // And the pinned pair survives phase-2 enforcement of both grids.
  const sim::VerifyResult verdict = sim::verify_throughput(graph, both);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

// ------------------------------------------- surviving rejection diagnostics

TEST(Interior, ReconvergentVariableQuantaStillRejectedNamingTheBuffer) {
  // An interior pin on a reconvergent diamond with variable quanta on a
  // block-internal edge: the fork-join rule survives and names the
  // buffer and its rates; the old "is interior" message is gone.
  VrdfGraph g;
  const Duration tau = milliseconds(Rational(1));
  const ActorId src = g.add_actor("src", tau);
  const ActorId ba = g.add_actor("ba", tau);
  const ActorId bb = g.add_actor("bb", tau);
  const ActorId pin = g.add_actor("pin", tau);
  const ActorId out = g.add_actor("out", tau);
  (void)g.add_buffer(src, ba, RateSet::singleton(1), RateSet::of({0, 1}));
  (void)g.add_buffer(src, bb, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(ba, pin, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(bb, pin, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(pin, out, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult rejected =
      compute_pacing(g, {ThroughputConstraint{pin, milliseconds(Rational(1))}});
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_EQ(rejected.diagnostics[0].find("is interior"), std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("buffer src -> ba"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("reconvergent"), std::string::npos);
}

TEST(Interior, ActorBypassingThePinRejectedByName) {
  // src → pin → snk plus a side path src → side → snk that bypasses the
  // pin: `side` neither reaches the pin nor hangs off it, so it receives
  // no demand — rejected naming the actor, not "interior".
  VrdfGraph g;
  const Duration tau = milliseconds(Rational(1));
  const ActorId src = g.add_actor("src", tau);
  const ActorId pin = g.add_actor("pin", tau);
  const ActorId side = g.add_actor("side", tau);
  const ActorId snk = g.add_actor("snk", tau);
  (void)g.add_buffer(src, pin, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(src, side, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(pin, snk, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(side, snk, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult rejected =
      compute_pacing(g, {ThroughputConstraint{pin, tau}});
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_EQ(rejected.diagnostics[0].find("is interior"), std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("actor 'side'"), std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("no pacing demand"),
            std::string::npos);
}

TEST(Interior, VariableQuantaBetweenTwoPinsRejectedAsCoupled) {
  // Two pins in series: the segment between them is sandwiched between
  // two exact periodic grids, so a variable realized flow there could
  // back-pressure the upstream pin off its grid — the constraint-coupling
  // rule fires, naming the buffer and path semantics.
  VrdfGraph g;
  const Duration tau = milliseconds(Rational(1));
  const ActorId src = g.add_actor("src", tau);
  const ActorId p1 = g.add_actor("p1", tau);
  const ActorId mid = g.add_actor("mid", tau);
  const ActorId p2 = g.add_actor("p2", tau);
  const ActorId snk = g.add_actor("snk", tau);
  (void)g.add_buffer(src, p1, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(p1, mid, RateSet::singleton(1), RateSet::of({0, 1}));
  (void)g.add_buffer(mid, p2, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(p2, snk, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet pins = {ThroughputConstraint{p1, tau},
                              ThroughputConstraint{p2, tau}};
  const PacingResult rejected = compute_pacing(g, pins);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("constraint-coupled"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("p1 -> mid"), std::string::npos);

  // With static rates the two exactly-periodic pins coexist and verify.
  VrdfGraph h;
  const ActorId s2 = h.add_actor("src", tau);
  const ActorId q1 = h.add_actor("p1", tau);
  const ActorId m2 = h.add_actor("mid", tau);
  const ActorId q2 = h.add_actor("p2", tau);
  const ActorId k2 = h.add_actor("snk", tau);
  (void)h.add_buffer(s2, q1, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(q1, m2, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(m2, q2, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(q2, k2, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet static_pins = {ThroughputConstraint{q1, tau},
                                     ThroughputConstraint{q2, tau}};
  auto scaled = models::with_scaled_response_times(h, static_pins, Rational(1));
  ASSERT_TRUE(scaled.has_value());
  VrdfGraph graph = std::move(*scaled);
  const GraphAnalysis sized = compute_buffer_capacities(graph, static_pins);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  apply_capacities(graph, sized);
  const sim::VerifyResult verdict = sim::verify_throughput(graph, static_pins);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

TEST(Interior, FlowInconsistentInteriorSeedRejectedWithPath) {
  // src → pin → snk with the pin seeded slower than the sink demands:
  // rejected as a seed violation naming both constraints and the path.
  VrdfGraph g;
  const Duration tau = milliseconds(Rational(1));
  const ActorId src = g.add_actor("src", tau);
  const ActorId pin = g.add_actor("pin", tau);
  const ActorId snk = g.add_actor("snk", tau);
  (void)g.add_buffer(src, pin, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(pin, snk, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet skewed = {
      ThroughputConstraint{pin, milliseconds(Rational(2))},
      ThroughputConstraint{snk, milliseconds(Rational(1))}};
  const PacingResult rejected = compute_pacing(g, skewed);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("'pin'"), std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("'snk'"), std::string::npos);
  EXPECT_NE(rejected.diagnostics[0].find("pin -> snk"), std::string::npos);
}

// ------------------------------------------------------------- io surfaces

TEST(Interior, ReportNamesTheInteriorPin) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string report =
      io::analysis_report(app.graph, {app.constraint}, sized);
  EXPECT_NE(report.find("interior-pinned chain"), std::string::npos) << report;
  EXPECT_NE(report.find("`dsp`"), std::string::npos);
  // The downstream (source-determined) pairs are marked producer-paced.
  EXPECT_NE(report.find("dsp->render (producer-paced)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("render->sink (producer-paced)"), std::string::npos);
  EXPECT_NE(report.find("## Rate headroom"), std::string::npos);
}

TEST(Interior, DotDoubleBordersTheInteriorPin) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string dot =
      io::to_dot(app.graph, analysis::ConstraintSet{app.constraint}, sized);
  std::size_t borders = 0;
  for (std::size_t at = dot.find("peripheries=2"); at != std::string::npos;
       at = dot.find("peripheries=2", at + 1)) {
    ++borders;
  }
  EXPECT_EQ(borders, 1u) << dot;
  EXPECT_NE(dot.find("tau=1/200 s"), std::string::npos) << dot;
  EXPECT_EQ(dot.find("(!)"), std::string::npos);
}

TEST(Interior, TextFormatRoundTripsTheInteriorConstraint) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string text = io::write_chain(
      app.graph, analysis::ConstraintSet{app.constraint});
  EXPECT_NE(text.find("constraint dsp period=1/200"), std::string::npos)
      << text;
  const io::ChainDocument parsed = io::read_chain(text);
  ASSERT_EQ(parsed.constraints.size(), 1u);
  const GraphAnalysis reparsed =
      compute_buffer_capacities(parsed.graph, parsed.constraints);
  ASSERT_TRUE(reparsed.admissible);
  EXPECT_EQ(reparsed.total_capacity, sized.total_capacity);
  EXPECT_EQ(io::write_chain(parsed.graph, parsed.constraints), text);
}

}  // namespace
}  // namespace vrdf::analysis
