// Multiple simultaneous throughput constraints: bidirectional pacing with
// per-constraint admissibility — hand-checked capacities on the dual-sink
// A/V pipeline, flow-consistency rejections with binding constraint +
// path, collapse-to-single-constraint equivalence, pinned source+sink,
// multi-sink random sweeps through the two-phase harness, the designated
// min-period solver, and the multi-constraint io surfaces.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"
#include "analysis/period.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "io/text_format.hpp"
#include "models/fig1.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

// ------------------------------------------------- dual-sink A/V pipeline

TEST(MultiConstraint, DualSinkAvPipelineHandComputedCapacities) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  ASSERT_EQ(sized.pairs.size(), 5u);
  ASSERT_EQ(sized.constraints.size(), 2u);
  EXPECT_FALSE(sized.is_chain);
  EXPECT_FALSE(sized.is_cyclic);

  // Gears 4/2/3/8/3/8 with λ = 5 ms: φ(src) 20 ms, φ(demux) 10 ms,
  // φ(adec) 15 ms, φ(vdec) 40 ms, φ(apresent) = τ_a = 15 ms,
  // φ(vpresent) = τ_v = 40 ms — every bound rate is 5 ms per token.
  for (std::size_t i = 0; i < sized.actors_in_order.size(); ++i) {
    const std::string& name = app.graph.actor(sized.actors_in_order[i]).name;
    const Rational phi = sized.pacing[i].seconds();
    if (name == "src") {
      EXPECT_EQ(phi, Rational(1, 50));
    } else if (name == "demux") {
      EXPECT_EQ(phi, Rational(1, 100));
    } else if (name == "adec" || name == "apresent") {
      EXPECT_EQ(phi, Rational(3, 200));
    } else {
      EXPECT_EQ(phi, Rational(1, 25));
    }
  }

  // Hand computation at tight response times ρ(v) = φ(v), s = 5 ms:
  //   ω(apresent) = ω(vpresent) = 0 (the anchors)
  //   ω(adec) = 15 + 5·(3−1)          = 25 ms
  //   ω(vdec) = 40 + 5·(8−1)          = 75 ms
  //   ω(demux) = 10 + max(25+5, 75+5) = 90 ms  (video path binds)
  //   ω(src)  = 20 + (90 + 5·(4−1))   = 125 ms
  // Pair x: Δ_producer = max(ω gap, ρ_p + s·(π̂−1)), Δ_consumer =
  // ρ_c + s·(γ̂−1); capacity = ⌊Δ/s⌋ + 1, except the static pairs at the
  // constrained presenters, which take the tight ⌈Δ/s⌉:
  //   src→demux:      max(35,35)+10+5  → x=10 → 11
  //   demux→adec:     max(65,15)+15+10 → x=18 → 19
  //   demux→vdec:     max(15,15)+40+35 → x=18 → 19
  //   adec→apresent:  max(25,25)+15+10 → x=10 → 10 (tight)
  //   vdec→vpresent:  max(75,75)+40+35 → x=30 → 30 (tight)
  for (const PairAnalysis& pair : sized.pairs) {
    EXPECT_EQ(pair.determined_by, ConstraintSide::Sink);
    const std::string name = app.graph.actor(pair.producer).name + "->" +
                             app.graph.actor(pair.consumer).name;
    if (name == "src->demux") {
      EXPECT_EQ(pair.capacity, 11) << name;
    } else if (name == "demux->adec" || name == "demux->vdec") {
      EXPECT_EQ(pair.capacity, 19) << name;
    } else if (name == "adec->apresent") {
      EXPECT_EQ(pair.capacity, 10) << name;
    } else {
      EXPECT_EQ(name, "vdec->vpresent");
      EXPECT_EQ(pair.capacity, 30) << name;
    }
  }
  EXPECT_EQ(sized.total_capacity, 89);
}

TEST(MultiConstraint, DualSinkSurvivesTwoPhaseSimulation) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 1000;
  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, app.constraints, {}, options);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

// ------------------------------------------------ collapse to one constraint

TEST(MultiConstraint, SetOfOneCollapsesToSingleConstraintBitForBit) {
  // The MP3 chain, a random fork-join and a random cyclic model must be
  // identical through the set-of-one path, field by field.
  const auto expect_identical = [](const VrdfGraph& graph,
                                   const ThroughputConstraint& constraint) {
    const GraphAnalysis a = compute_buffer_capacities(graph, constraint);
    const GraphAnalysis b =
        compute_buffer_capacities(graph, ConstraintSet{constraint});
    ASSERT_EQ(a.admissible, b.admissible);
    ASSERT_EQ(a.diagnostics, b.diagnostics);
    ASSERT_EQ(a.side, b.side);
    ASSERT_EQ(a.pacing, b.pacing);
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
      EXPECT_EQ(a.pairs[i].capacity, b.pairs[i].capacity);
      EXPECT_EQ(a.pairs[i].raw_tokens, b.pairs[i].raw_tokens);
      EXPECT_EQ(a.pairs[i].delta_producer, b.pairs[i].delta_producer);
      EXPECT_EQ(a.pairs[i].delta_consumer, b.pairs[i].delta_consumer);
      EXPECT_EQ(a.pairs[i].determined_by, b.pairs[i].determined_by);
      EXPECT_EQ(a.pairs[i].required_initial_tokens,
                b.pairs[i].required_initial_tokens);
    }
    EXPECT_EQ(a.total_capacity, b.total_capacity);
  };

  const models::Mp3Playback mp3 = models::make_mp3_playback();
  expect_identical(mp3.graph, mp3.constraint);
  {
    const GraphAnalysis sized = compute_buffer_capacities(
        mp3.graph, ConstraintSet{mp3.constraint});
    ASSERT_TRUE(sized.admissible);
    ASSERT_EQ(sized.pairs.size(), 3u);
    EXPECT_EQ(sized.pairs[0].capacity, 6015);
    EXPECT_EQ(sized.pairs[1].capacity, 3263);
    EXPECT_EQ(sized.pairs[2].capacity, 882);
  }

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    models::RandomForkJoinSpec fj;
    fj.seed = seed;
    fj.stages = 1 + seed % 2;
    fj.source_constrained = seed % 2 == 0;
    const models::SyntheticChain model = models::make_random_fork_join(fj);
    expect_identical(model.graph, model.constraint);

    models::RandomCyclicSpec cy;
    cy.base.seed = seed;
    const models::SyntheticChain cyclic = models::make_random_cyclic(cy);
    expect_identical(cyclic.graph, cyclic.constraint);
  }
}

// ----------------------------------------------------- rejection diagnostics

TEST(MultiConstraint, SlowSeededSourceRejectedWithBindingConstraintAndPath) {
  // src* → mid → snk*, static rates, flow-consistent at τ_src = 2 ms;
  // seeding src slower starves snk — the diagnostic names the binding
  // constraint and the propagation path.
  VrdfGraph g;
  const ActorId src = g.add_actor("src", milliseconds(Rational(1, 2)));
  const ActorId mid = g.add_actor("mid", milliseconds(Rational(1, 2)));
  const ActorId snk = g.add_actor("snk", milliseconds(Rational(1, 2)));
  (void)g.add_buffer(src, mid, RateSet::singleton(2), RateSet::singleton(1));
  (void)g.add_buffer(mid, snk, RateSet::singleton(1), RateSet::singleton(2));

  const ConstraintSet good = {
      ThroughputConstraint{src, milliseconds(Rational(2))},
      ThroughputConstraint{snk, milliseconds(Rational(2))}};
  EXPECT_TRUE(compute_pacing(g, good).ok);

  const ConstraintSet slow = {
      ThroughputConstraint{src, milliseconds(Rational(3))},
      ThroughputConstraint{snk, milliseconds(Rational(2))}};
  const PacingResult rejected = compute_pacing(g, slow);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("exceeds the pacing"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("constraint on 'snk'"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("src -> mid -> snk"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("starve"), std::string::npos);
}

TEST(MultiConstraint, FastSeededSourceRejectedAsNotFlowConsistent) {
  VrdfGraph g;
  const ActorId src = g.add_actor("src", milliseconds(Rational(1, 2)));
  const ActorId snk = g.add_actor("snk", milliseconds(Rational(1, 2)));
  (void)g.add_buffer(src, snk, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet fast = {
      ThroughputConstraint{src, milliseconds(Rational(1))},
      ThroughputConstraint{snk, milliseconds(Rational(2))}};
  const PacingResult rejected = compute_pacing(g, fast);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("undercuts the pacing"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("accumulate without bound"),
            std::string::npos);
}

TEST(MultiConstraint, InconsistentSinkPeriodsConflictAtTheSharedFork) {
  // Doubling the video period breaks flow consistency at the shared
  // demultiplexer; the conflict names both constraints and their paths.
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  ConstraintSet skewed = app.constraints;
  skewed[1].period = milliseconds(Rational(80));
  const PacingResult rejected = compute_pacing(app.graph, skewed);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("conflicting pacing demands"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("'apresent'"), std::string::npos);
  EXPECT_NE(rejected.diagnostics[0].find("'vpresent'"), std::string::npos);
  EXPECT_NE(rejected.diagnostics[0].find("not flow-consistent"),
            std::string::npos);
}

TEST(MultiConstraint, UnconstrainedEndIsRejectedAsUnpaced) {
  // Two sinks, only one constrained: the other branch receives no demand.
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const ConstraintSet only_audio = {app.constraints[0]};
  const PacingResult rejected = compute_pacing(app.graph, only_audio);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  // The single-constraint path keeps its uniqueness diagnostic.
  EXPECT_NE(rejected.diagnostics[0].find("unique data sink"),
            std::string::npos)
      << rejected.diagnostics[0];

  // A genuinely multi-constraint set with an unpinned third end.
  VrdfGraph g;
  const ActorId src = g.add_actor("src", milliseconds(Rational(1, 2)));
  const ActorId a = g.add_actor("a", milliseconds(Rational(1, 2)));
  const ActorId b = g.add_actor("b", milliseconds(Rational(1, 2)));
  const ActorId c = g.add_actor("c", milliseconds(Rational(1, 2)));
  (void)g.add_buffer(src, a, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(src, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(src, c, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet two_of_three = {
      ThroughputConstraint{a, milliseconds(Rational(2))},
      ThroughputConstraint{b, milliseconds(Rational(2))}};
  const PacingResult unpaced = compute_pacing(g, two_of_three);
  ASSERT_FALSE(unpaced.ok);
  ASSERT_FALSE(unpaced.diagnostics.empty());
  EXPECT_NE(unpaced.diagnostics[0].find("'c'"), std::string::npos)
      << unpaced.diagnostics[0];
  EXPECT_NE(unpaced.diagnostics[0].find("no pacing demand"),
            std::string::npos);
}

TEST(MultiConstraint, EdgePacedByNoConstraintRejected) {
  // Actor coverage alone is not enough: s->a, p->a, p->k with a pinned
  // source s and a pinned sink k covers every actor (p via p->k, a via
  // s->a), yet no constraint relates the rates across p->a — p would
  // produce into it at 1 token / 2 ms while a drains at 1 token / 5 ms.
  // Sizing it anyway starves the harness; the analysis must reject.
  VrdfGraph g;
  const ActorId s = g.add_actor("s", milliseconds(Rational(1)));
  const ActorId p = g.add_actor("p", milliseconds(Rational(1)));
  const ActorId a = g.add_actor("a", milliseconds(Rational(1)));
  const ActorId k = g.add_actor("k", milliseconds(Rational(1)));
  (void)g.add_buffer(s, a, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(p, a, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(p, k, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet constraints = {
      ThroughputConstraint{s, milliseconds(Rational(5))},
      ThroughputConstraint{k, milliseconds(Rational(2))}};
  const PacingResult rejected = compute_pacing(g, constraints);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("buffer p -> a"), std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("paced by no throughput constraint"),
            std::string::npos);
  const GraphAnalysis sized = compute_buffer_capacities(g, constraints);
  EXPECT_FALSE(sized.admissible);
}

TEST(MultiConstraint, DuplicateAndEmptyConstraintsRejected) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const ConstraintSet duplicate = {app.constraints[0], app.constraints[0]};
  const PacingResult dup = compute_pacing(app.graph, duplicate);
  ASSERT_FALSE(dup.ok);
  EXPECT_NE(dup.diagnostics[0].find("duplicate throughput constraint"),
            std::string::npos);

  // min_admissible_period rejects the same sets with the same diagnostic,
  // whether the duplicated actor is the designated one or a fixed one.
  models::Fig1Vrdf fig1 = models::make_fig1_vrdf(
      milliseconds(Rational(3)), milliseconds(Rational(3)),
      milliseconds(Rational(3)));
  analysis::apply_capacities(
      fig1.graph, compute_buffer_capacities(fig1.graph, {fig1.constraint}));
  const MinPeriodResult twice_designated = min_admissible_period(
      fig1.graph,
      {ThroughputConstraint{fig1.vb, milliseconds(Rational(3))},
       ThroughputConstraint{fig1.vb, milliseconds(Rational(7))}},
      fig1.vb);
  EXPECT_FALSE(twice_designated.ok);
  ASSERT_FALSE(twice_designated.diagnostics.empty());
  EXPECT_EQ(twice_designated.diagnostics[0],
            "duplicate throughput constraint on actor 'vb'");
  const MinPeriodResult twice_fixed = min_admissible_period(
      app.graph, {app.constraints[0], app.constraints[1], app.constraints[1]},
      app.constraints[0].actor);
  EXPECT_FALSE(twice_fixed.ok);
  ASSERT_FALSE(twice_fixed.diagnostics.empty());
  EXPECT_EQ(twice_fixed.diagnostics[0],
            compute_pacing(app.graph, {app.constraints[0], app.constraints[1],
                                       app.constraints[1]})
                .diagnostics[0]);

  // PR 5: an interior pin is a valid constraint.  Adding the shared
  // demultiplexer at its flow-consistent period (φ(demux) = 10 ms) now
  // *succeeds* — the old "is interior" rejection is gone — while a
  // flow-inconsistent interior period is still rejected as a seed
  // violation, not as "interior".
  ConstraintSet interior = app.constraints;
  interior.push_back(
      ThroughputConstraint{app.demux, milliseconds(Rational(10))});
  const PacingResult inner = compute_pacing(app.graph, interior);
  EXPECT_TRUE(inner.ok) << (inner.diagnostics.empty()
                                ? ""
                                : inner.diagnostics[0]);
  ConstraintSet skewed_interior = app.constraints;
  skewed_interior.push_back(
      ThroughputConstraint{app.demux, milliseconds(Rational(12))});
  const PacingResult skewed = compute_pacing(app.graph, skewed_interior);
  ASSERT_FALSE(skewed.ok);
  ASSERT_FALSE(skewed.diagnostics.empty());
  EXPECT_EQ(skewed.diagnostics[0].find("interior"), std::string::npos)
      << skewed.diagnostics[0];
  EXPECT_NE(skewed.diagnostics[0].find("'demux'"), std::string::npos)
      << skewed.diagnostics[0];

  const PacingResult empty = compute_pacing(app.graph, ConstraintSet{});
  ASSERT_FALSE(empty.ok);
  EXPECT_NE(empty.diagnostics[0].find("must not be empty"), std::string::npos);
}

// ----------------------------------------------------- pinned source + sink

TEST(MultiConstraint, PinnedSourceAndSinkChainVerifiedBySimulation) {
  // Both ends strictly periodic on a static, flow-balanced chain: the
  // analysis accepts the exact periods and the capacities sustain phase-2
  // enforcement of *both* grids.
  VrdfGraph g;
  const ActorId src = g.add_actor("src", milliseconds(Rational(1)));
  const ActorId mid = g.add_actor("mid", milliseconds(Rational(1, 2)));
  const ActorId snk = g.add_actor("snk", milliseconds(Rational(1)));
  (void)g.add_buffer(src, mid, RateSet::singleton(4), RateSet::singleton(2));
  (void)g.add_buffer(mid, snk, RateSet::singleton(2), RateSet::singleton(4));
  const ConstraintSet pinned = {
      ThroughputConstraint{src, milliseconds(Rational(2))},
      ThroughputConstraint{snk, milliseconds(Rational(2))}};
  const GraphAnalysis sized = compute_buffer_capacities(g, pinned);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  apply_capacities(g, sized);
  const sim::VerifyResult verdict = sim::verify_throughput(g, pinned);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

TEST(MultiConstraint, FeedbackPipelineWithPinnedSourceAndSink) {
  // A credit loop with both its skeleton source (the rate controller) and
  // its sink (the presenter) pinned: src emits 4 blocks per credit batch,
  // dec decodes 2, present consumes composed frames of 4 strictly
  // periodically at 25 Hz, and dec reports consumed blocks back to rctl
  // through a tokened back-edge.  All rates are static and flow-exact —
  // the constraint-coupling rule demands it when a pinned source sits
  // upstream.  φ: rctl 10 ms, src 40 ms, dec 20 ms, present 40 ms.
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  const ActorId src = bare.add_actor("src", dummy);
  const ActorId dec = bare.add_actor("dec", dummy);
  const ActorId present = bare.add_actor("present", dummy);
  const ActorId rctl = bare.add_actor("rctl", dummy);
  (void)bare.add_buffer(src, dec, RateSet::singleton(4), RateSet::singleton(2));
  (void)bare.add_buffer(dec, present, RateSet::singleton(2),
                        RateSet::singleton(4));
  const dataflow::BufferEdges dec_rctl =
      bare.add_buffer(dec, rctl, RateSet::singleton(2), RateSet::singleton(1),
                      /*capacity=*/0, /*initial_tokens=*/1);
  (void)bare.add_buffer(rctl, src, RateSet::singleton(1),
                        RateSet::singleton(4));
  const ConstraintSet both = {
      ThroughputConstraint{present, milliseconds(Rational(40))},
      ThroughputConstraint{rctl, milliseconds(Rational(10))}};
  auto scaled = models::with_scaled_response_times(bare, both, Rational(1));
  ASSERT_TRUE(scaled.has_value());
  VrdfGraph graph = std::move(*scaled);

  // Size the loop's circulating tokens from the analysis' own requirement
  // (δ-independent), then re-analyse.
  const GraphAnalysis probe = compute_buffer_capacities(graph, both);
  ASSERT_FALSE(probe.pairs.empty());
  for (const PairAnalysis& pair : probe.pairs) {
    if (pair.is_feedback) {
      EXPECT_EQ(pair.buffer.data, dec_rctl.data);
      graph.set_initial_tokens(pair.buffer.data,
                               pair.required_initial_tokens + 2);
    }
  }
  const GraphAnalysis sized = compute_buffer_capacities(graph, both);
  ASSERT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  EXPECT_TRUE(sized.is_cyclic);
  apply_capacities(graph, sized);
  const sim::VerifyResult verdict = sim::verify_throughput(graph, both);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

TEST(MultiConstraint, VariableRatesOnCoupledBranchesRejected) {
  // A fork serving two constrained sinks: a zero-tolerant consumption set
  // on one branch would let that presenter's realized drain fall below
  // its worst case, fill the branch, block the fork and starve the
  // sibling — rejected as constraint-coupled, at any capacity.
  VrdfGraph g;
  const ActorId fork = g.add_actor("fork", milliseconds(Rational(1)));
  const ActorId sa = g.add_actor("sa", milliseconds(Rational(2)));
  const ActorId sb = g.add_actor("sb", milliseconds(Rational(2)));
  (void)g.add_buffer(fork, sa, RateSet::singleton(1), RateSet::of({0, 1}));
  (void)g.add_buffer(fork, sb, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet constraints = {
      ThroughputConstraint{sa, milliseconds(Rational(2))},
      ThroughputConstraint{sb, milliseconds(Rational(2))}};
  const PacingResult rejected = compute_pacing(g, constraints);
  ASSERT_FALSE(rejected.ok);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_NE(rejected.diagnostics[0].find("constraint-coupled"),
            std::string::npos)
      << rejected.diagnostics[0];
  EXPECT_NE(rejected.diagnostics[0].find("fork -> sa"), std::string::npos);
}

// ------------------------------------------------- random multi-sink sweep

// The published per-seed shape schedule of the PR 4 sweep — kept as the
// fleet's custom generator so seed N still yields the same graph.
models::SyntheticMultiConstraint make_sweep_multi_sink(std::uint64_t seed) {
  models::RandomMultiSinkSpec spec;
  spec.seed = seed;
  spec.sinks = 2 + seed % 3;
  spec.max_branch_length = 1 + seed % 3;
  spec.max_prefix_length = seed % 3;
  spec.variable_percent = 60;
  spec.zero_percent = 25;
  return models::make_random_multi_sink(spec);
}

TEST(MultiConstraint, RandomMultiSinkGraphsSustainPeriodicExecution) {
  // The acceptance check, through the fleet harness (PR 8): 60 random
  // multi-sink graphs — up from 40 — pass the two-phase simulation
  // harness with zero phase-2 starvations, every sink enforced strictly
  // periodic at once.
  sim::SweepSpec spec;
  spec.classes = {models::ModelClass::MultiConstraint};
  spec.seeds_per_class = 60;
  spec.observe_firings = 400;
  spec.generator = [](const sim::FleetItem& item) {
    models::SyntheticMultiConstraint generated =
        make_sweep_multi_sink(item.seed_ordinal);
    models::SyntheticModel model;
    model.graph = std::move(generated.graph);
    model.constraints = std::move(generated.constraints);
    return model;
  };
  const sim::FleetReport report = sim::FleetSweep(spec).run(4);
  EXPECT_EQ(report.total_items, 60);
  EXPECT_EQ(report.passed, report.total_items) << sim::canonical_text(report);
  EXPECT_EQ(report.failed + report.rejected, 0);
  EXPECT_EQ(report.starvations, 0);

  // The structural claim the old loop also made: each generated graph
  // really carries at least two sinks (the fleet only checks verdicts).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_GE(make_sweep_multi_sink(seed).constraints.size(), 2u)
        << "seed " << seed;
  }
}

// --------------------------------------------- designated min-period solver

TEST(MultiConstraint, MinPeriodScalesDesignatedConstraintAgainstFixedOnes) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);

  // With the audio presenter fixed at 15 ms, flow consistency pins the
  // video presenter to exactly 40 ms.
  const MinPeriodResult coupled =
      min_admissible_period(app.graph, app.constraints, app.vpresent);
  ASSERT_TRUE(coupled.ok) << (coupled.diagnostics.empty()
                                  ? ""
                                  : coupled.diagnostics[0]);
  EXPECT_EQ(coupled.min_period, milliseconds(Rational(40)));
  EXPECT_EQ(coupled.infimum_period, coupled.min_period);
  EXPECT_TRUE(coupled.infimum_attained);
  EXPECT_NE(coupled.binding_constraint.find("flow-coupling"),
            std::string::npos);

  // Starving the installed capacities makes the coupled period infeasible.
  VrdfGraph strangled = app.graph;
  strangled.set_initial_tokens(app.vdec_vpresent.space, 1);
  const MinPeriodResult infeasible =
      min_admissible_period(strangled, app.constraints, app.vpresent);
  EXPECT_FALSE(infeasible.ok);
  ASSERT_FALSE(infeasible.diagnostics.empty());

  // An actor without a constraint in the set is a usage error.
  const MinPeriodResult unknown =
      min_admissible_period(app.graph, app.constraints, app.demux);
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.diagnostics[0].find("no constraint"), std::string::npos);
}

// ----------------------------------------------------------- io round trips

TEST(MultiConstraint, TextFormatRoundTripsConstraintSets) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);

  const std::string text = io::write_chain(app.graph, app.constraints);
  EXPECT_NE(text.find("constraint apresent period=3/200"), std::string::npos)
      << text;
  EXPECT_NE(text.find("constraint vpresent period=1/25"), std::string::npos);

  const io::ChainDocument parsed = io::read_chain(text);
  ASSERT_EQ(parsed.constraints.size(), 2u);
  ASSERT_TRUE(parsed.constraint.has_value());
  EXPECT_EQ(parsed.constraint->period, milliseconds(Rational(15)));
  const GraphAnalysis reparsed =
      compute_buffer_capacities(parsed.graph, parsed.constraints);
  ASSERT_TRUE(reparsed.admissible);
  EXPECT_EQ(reparsed.total_capacity, sized.total_capacity);
}

TEST(MultiConstraint, TextFormatRejectsMalformedIntegersWithLineNumbers) {
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& needle) {
    try {
      (void)io::read_chain(text);
      FAIL() << "expected rejection of: " << text;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const std::string header =
      "vrdf-chain v1\nactor a rho=0.001\nactor b rho=0.001\n";
  // Overflowing and non-numeric integers must produce parse diagnostics,
  // not std::out_of_range / std::invalid_argument aborts.
  expect_rejected(
      header + "buffer a -> b pi={1} gamma={1} capacity=9999999999999999999\n",
      "out of range");
  expect_rejected(header + "buffer a -> b pi={1} gamma={1} delta=abc\n",
                  "malformed delta");
  expect_rejected(header + "buffer a -> b pi={1} gamma={1} capacity=12abc\n",
                  "trailing characters");
  expect_rejected(header + "buffer a -> b pi={1,x} gamma={1}\n",
                  "malformed rate value");
  expect_rejected(header + "buffer a -> b pi={99999999999999999999} gamma={1}\n",
                  "out of range");
  expect_rejected(header + "buffer a -> b pi={1} gamma={1} zeta=3\n",
                  "unknown attribute");
  expect_rejected("vrdf-chain v1\nactor a rho=oops\n", "malformed rho");
  expect_rejected(header +
                      "buffer a -> b pi={1} gamma={1}\n"
                      "constraint b period=nope\n",
                  "malformed period");
  // Duplicate constraint lines for the same actor are rejected; distinct
  // actors accumulate into the set.
  expect_rejected(header +
                      "buffer a -> b pi={1} gamma={1}\n"
                      "constraint b period=0.002\n"
                      "constraint b period=0.004\n",
                  "duplicate constraint");
}

TEST(MultiConstraint, DotDoubleBordersEveryConstrainedActor) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string dot = io::to_dot(app.graph, app.constraints, sized);
  std::size_t borders = 0;
  for (std::size_t at = dot.find("peripheries=2"); at != std::string::npos;
       at = dot.find("peripheries=2", at + 1)) {
    ++borders;
  }
  EXPECT_EQ(borders, 2u) << dot;
  EXPECT_NE(dot.find("tau=3/200 s"), std::string::npos);
  EXPECT_NE(dot.find("tau=1/25 s"), std::string::npos);
  EXPECT_EQ(dot.find("(!)"), std::string::npos);
}

TEST(MultiConstraint, ReportListsAllConstraints) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string report =
      io::analysis_report(app.graph, app.constraints, sized);
  EXPECT_NE(report.find("Throughput constraints (2)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("`apresent`"), std::string::npos);
  EXPECT_NE(report.find("`vpresent`"), std::string::npos);
  EXPECT_NE(report.find("Deadlock-free floor"), std::string::npos);
  EXPECT_NE(report.find("## Rate headroom"), std::string::npos);
  EXPECT_NE(report.find("flow-coupling"), std::string::npos);
}

TEST(MultiConstraint, VerifyRejectsDuplicateConstrainedActors) {
  // verify_throughput is an independent entry point: a duplicate actor
  // would silently overwrite the first enforced grid and "verify" only
  // the last period.  It must fail loudly instead.
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const ConstraintSet duplicate = {
      app.constraints[0],
      ThroughputConstraint{app.constraints[0].actor,
                           milliseconds(Rational(30))}};
  EXPECT_THROW((void)sim::verify_throughput(app.graph, duplicate),
               ContractError);
}

// ----------------------------------------------------- pacing_of hardening

TEST(MultiConstraint, PacingOfMisuseFailsLoudly) {
  models::AvDualSinkPipeline app = models::make_av_dual_sink_pipeline();
  const PacingResult pacing = compute_pacing(app.graph, app.constraints);
  ASSERT_TRUE(pacing.ok);
  // In-range actors resolve; an id beyond the graph is a contract error
  // instead of an out-of-bounds read.
  EXPECT_TRUE(pacing.pacing_of(app.demux).is_positive());
  const ActorId bogus(static_cast<ActorId::underlying_type>(
      app.graph.actor_count() + 17));
  EXPECT_THROW((void)pacing.pacing_of(bogus), ContractError);
}

}  // namespace
}  // namespace vrdf::analysis
