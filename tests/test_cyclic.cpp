// Cyclic-topology tests: back-edge classification in the buffer view,
// validate_cyclic_model diagnostics (token-free cycles, variable rates on
// cycle edges), pacing over the skeleton with back-edge flow-consistency
// checks, capacities covering initial tokens plus alignment slack, the
// max-cycle-ratio period bound, deadlock minima with cycles, io
// rendering, and end-to-end sufficiency of ≥ 50 random cyclic graphs
// under the two-phase simulation harness.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/pacing.hpp"
#include "analysis/period.hpp"
#include "baseline/traditional.hpp"
#include "dataflow/validation.hpp"
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
using dataflow::BufferEdges;
using dataflow::RateSet;
using dataflow::VrdfGraph;

const Duration kTau = milliseconds(Rational(40));

// --------------------------------------------------------- classification

TEST(CyclicBufferView, ClassifiesTokenedBackEdges) {
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  const auto view = app.graph.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_cyclic);
  EXPECT_FALSE(view->is_chain);
  ASSERT_EQ(view->feedback_buffers.size(), 1u);
  const std::size_t fpos = view->feedback_buffers[0];
  EXPECT_EQ(view->buffers[fpos].data, app.dec_rctl.data);
  EXPECT_TRUE(view->is_feedback[fpos]);
  // Every edge of the loop src→dec→rctl→src is on the directed cycle;
  // the dec→present bridge is not.
  for (std::size_t pos = 0; pos < view->buffers.size(); ++pos) {
    const dataflow::Edge& data = app.graph.edge(view->buffers[pos].data);
    const bool bridge = data.target == app.present;
    EXPECT_EQ(view->on_cycle[pos], !bridge) << "buffer " << pos;
  }
  // Skeleton-only degrees: present is the unique data sink even though
  // it is downstream of a loop, and rctl (paced through rctl→src) is a
  // skeleton source.
  EXPECT_EQ(view->data_sinks, (std::vector<ActorId>{app.present}));
  EXPECT_EQ(view->data_sources, (std::vector<ActorId>{app.rctl}));
}

TEST(CyclicBufferView, TokenFreeCycleHasNoView) {
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(g.buffer_view().has_value());
  // One initial token on the back-edge makes the same topology viewable.
  VrdfGraph h;
  const ActorId c = h.add_actor("c", rho);
  const ActorId d = h.add_actor("d", rho);
  (void)h.add_buffer(c, d, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(d, c, RateSet::singleton(1), RateSet::singleton(1),
                     /*capacity=*/0, /*initial_tokens=*/1);
  const auto view = h.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_cyclic);
  EXPECT_EQ(view->feedback_buffers.size(), 1u);
}

TEST(CyclicBufferView, MultiTokenedCycleBreaksAtOneEdgeOnly) {
  // Ping-pong loop a ⇄ b with initial tokens on *both* directions: only
  // a minimal feedback set is stripped (the later-inserted b→a), so a→b
  // keeps ordering the skeleton and the graph stays analysable with a
  // unique data sink.  A side branch a → tap → snk pins the skeleton's
  // topological order: a releases its off-cycle edge a → tap before the
  // re-admitted a → b, so b (pushed last) is ordered before tap.
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId src = g.add_actor("src", rho);
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  const ActorId snk = g.add_actor("snk", rho);
  const ActorId tap = g.add_actor("tap", rho);
  (void)g.add_buffer(src, a, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges ab =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1),
                   /*capacity=*/0, /*initial_tokens=*/2);
  const BufferEdges ba =
      g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1),
                   /*capacity=*/0, /*initial_tokens=*/2);
  (void)g.add_buffer(b, snk, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, tap, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(tap, snk, RateSet::singleton(1), RateSet::singleton(1));
  const auto view = g.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->actors, (std::vector<ActorId>{src, a, b, tap, snk}));
  ASSERT_EQ(view->feedback_buffers.size(), 1u);
  EXPECT_EQ(view->buffers[view->feedback_buffers[0]].data, ba.data);
  for (std::size_t pos = 0; pos < view->buffers.size(); ++pos) {
    if (view->buffers[pos].data == ab.data) {
      EXPECT_FALSE(view->is_feedback[pos]);
      EXPECT_TRUE(view->on_cycle[pos]);
    }
  }
  EXPECT_EQ(view->data_sinks, (std::vector<ActorId>{snk}));
  const GraphAnalysis sized = compute_buffer_capacities(
      g, ThroughputConstraint{snk, seconds(Rational(4))});
  EXPECT_TRUE(sized.admissible)
      << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
}

TEST(CyclicBufferView, BufferCapacityCountsBothEdges) {
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  const BufferEdges buffer = g.add_buffer(a, b, RateSet::singleton(1),
                                          RateSet::singleton(1),
                                          /*capacity=*/7, /*initial_tokens=*/3);
  EXPECT_EQ(g.edge(buffer.data).initial_tokens, 3);
  EXPECT_EQ(g.edge(buffer.space).initial_tokens, 4);
  EXPECT_EQ(g.buffer_capacity(buffer), 7);
  EXPECT_THROW((void)g.add_buffer(a, b, RateSet::singleton(1),
                                  RateSet::singleton(1), /*capacity=*/2,
                                  /*initial_tokens=*/3),
               ContractError);
}

// ------------------------------------------------------------- validation

TEST(CyclicValidation, RejectsTokenFreeCycleWithDiagnostic) {
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  const ActorId c = g.add_actor("c", rho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(c, a, RateSet::singleton(1), RateSet::singleton(1));
  const dataflow::ValidationReport report = dataflow::validate_cyclic_model(g);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("cycle without initial tokens"),
            std::string::npos);
  EXPECT_NE(report.summary().find("a -> b -> c -> a"), std::string::npos)
      << report.summary();
  // The analysis never runs on it: diagnostics, not capacities.
  const GraphAnalysis analysis =
      compute_buffer_capacities(g, ThroughputConstraint{c, kTau});
  EXPECT_FALSE(analysis.admissible);
  EXPECT_NE(analysis.diagnostics[0].find("cycle without initial tokens"),
            std::string::npos);
}

TEST(CyclicValidation, RejectsVariableRatesOnCycleEdges) {
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  (void)g.add_buffer(a, b, RateSet::interval(1, 2), RateSet::singleton(1));
  (void)g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1),
                     /*capacity=*/0, /*initial_tokens=*/2);
  const dataflow::ValidationReport report = dataflow::validate_cyclic_model(g);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("directed data cycle must be static"),
            std::string::npos);
}

TEST(CyclicValidation, AcceptsFeedbackPipeline) {
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  const dataflow::ValidationReport report =
      dataflow::validate_cyclic_model(app.graph);
  EXPECT_TRUE(report.ok());
  // It is no DAG: the view records the directed cycle.
  ASSERT_TRUE(report.view.has_value());
  EXPECT_TRUE(report.view->is_cyclic);
  EXPECT_FALSE(report.view->is_chain);
}

// ----------------------------------------------------------------- pacing

TEST(CyclicPacing, PropagatesOverSkeletonAndChecksBackEdges) {
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  const PacingResult pacing =
      compute_pacing(app.graph, {app.constraint});
  ASSERT_TRUE(pacing.ok) << pacing.diagnostics[0];
  EXPECT_TRUE(pacing.is_cyclic);
  EXPECT_FALSE(pacing.is_chain);
  // φ(v) = g(v)·τ: present τ, dec 2τ, src 4τ, and rctl is paced through
  // its skeleton out-edge rctl→src to τ.
  EXPECT_EQ(pacing.pacing_of(app.present), kTau);
  EXPECT_EQ(pacing.pacing_of(app.dec), kTau * Rational(2));
  EXPECT_EQ(pacing.pacing_of(app.src), kTau * Rational(4));
  EXPECT_EQ(pacing.pacing_of(app.rctl), kTau);
}

TEST(CyclicPacing, RejectsFlowInconsistentBackEdge) {
  // Like the pipeline's loop but the back-edge produces twice per dec
  // firing while rctl still consumes one: the circulating count grows
  // forever.  The rates are static, so validation passes and pacing must
  // diagnose the imbalance.
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  const ActorId snk = g.add_actor("snk", rho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, snk, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, a, RateSet::singleton(2), RateSet::singleton(1),
                     /*capacity=*/0, /*initial_tokens=*/4);
  EXPECT_TRUE(dataflow::validate_cyclic_model(g).ok());
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{snk, kTau}});
  ASSERT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("flow-inconsistent"),
            std::string::npos);
}

TEST(CyclicPacing, ActorFedOnlyByBackEdgesStaysATopologicalSource) {
  // rctl consumes only from the back-edge, produces into the skeleton —
  // it must be paced (through rctl→src), not reported as a second
  // sink/source problem.
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis analysis =
      compute_buffer_capacities(app.graph, app.constraint);
  EXPECT_TRUE(analysis.admissible);
}

// ------------------------------------------------------------- capacities

TEST(CyclicCapacity, FeedbackPipelineHandComputed) {
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible) << sized.diagnostics[0];
  EXPECT_TRUE(sized.is_cyclic);
  ASSERT_EQ(sized.pairs.size(), 4u);
  const auto pair_of = [&](const BufferEdges& b) -> const PairAnalysis& {
    for (const PairAnalysis& pair : sized.pairs) {
      if (pair.buffer.data == b.data) {
        return pair;
      }
    }
    throw ContractError("buffer not analysed");
  };
  // Hand-computed at tight response times (ρ = φ, τ = 40 ms), leads
  // ω(present)=0, ω(dec)=3τ, ω(src)=10τ, ω(rctl)=11τ:
  //   src→dec:      x = (7τ + 3τ)/τ = 10 → 11
  //   dec→present:  x = (3τ + τ)/τ  =  4 →  5 (variable γ: keeps the +1)
  //   dec→rctl:     back-edge, Δp = chain-local 3τ: x = 4 → 5, +δ=12 → 17
  //   rctl→src:     x = (τ + 7τ)/τ  =  8 →  9
  EXPECT_EQ(pair_of(app.src_dec).capacity, 11);
  EXPECT_EQ(pair_of(app.dec_present).capacity, 5);
  EXPECT_EQ(pair_of(app.dec_rctl).capacity, 17);
  EXPECT_EQ(pair_of(app.rctl_src).capacity, 9);
  EXPECT_EQ(sized.total_capacity, 42);
  EXPECT_TRUE(pair_of(app.dec_rctl).is_feedback);
  EXPECT_EQ(pair_of(app.dec_rctl).initial_tokens, 12);
  EXPECT_EQ(pair_of(app.dec_rctl).required_initial_tokens, 11);
  EXPECT_FALSE(pair_of(app.src_dec).is_feedback);
}

TEST(CyclicCapacity, ApplyCapacitiesKeepsCirculatingTokens) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  // ζ(dec→rctl) = 17 total: 12 containers hold the circulating reports,
  // 5 are free.
  EXPECT_EQ(app.graph.edge(app.dec_rctl.data).initial_tokens, 12);
  EXPECT_EQ(app.graph.edge(app.dec_rctl.space).initial_tokens, 5);
  EXPECT_EQ(app.graph.buffer_capacity(app.dec_rctl), 17);
}

TEST(CyclicCapacity, RejectsCycleWithInsufficientTokens) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  // The loop's schedule-alignment credit requires 11 tokens but 3 only
  // buy 3τ: the period is unattainable and the analysis must say so
  // instead of emitting capacities that starve.
  app.graph.set_initial_tokens(app.dec_rctl.data, 3);
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_FALSE(sized.admissible);
  EXPECT_NE(sized.diagnostics[0].find("cycle through back-edge"),
            std::string::npos);
  EXPECT_NE(sized.diagnostics[0].find("requires at least 11"),
            std::string::npos)
      << sized.diagnostics[0];
}

TEST(CyclicCapacity, SelfLoopIsAnalysable) {
  // A tokened self-loop models bounded self-concurrency; its pair
  // capacity covers the circulating tokens plus the chain-local slack.
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId snk = g.add_actor("snk", rho);
  const BufferEdges loop =
      g.add_buffer(a, a, RateSet::singleton(1), RateSet::singleton(1),
                   /*capacity=*/0, /*initial_tokens=*/2);
  (void)g.add_buffer(a, snk, RateSet::singleton(1), RateSet::singleton(1));
  const GraphAnalysis sized = compute_buffer_capacities(
      g, ThroughputConstraint{snk, seconds(Rational(2))});
  ASSERT_TRUE(sized.admissible) << sized.diagnostics[0];
  for (const PairAnalysis& pair : sized.pairs) {
    if (pair.buffer.data == loop.data) {
      EXPECT_TRUE(pair.is_feedback);
      EXPECT_GE(pair.capacity, 2 + 1);
    }
  }
}

// ------------------------------------------------------------- min period

TEST(CyclicMinPeriod, CycleBoundBindsWhenCapacitiesAreGenerous) {
  // a → b → snk with a single-token loop b → a; response times τ/4 and
  // huge capacities leave the max-cycle-ratio constraint as the binding
  // one: period ≥ (ρ(a) + ρ(b)) / 1 token = τ/2.
  VrdfGraph g;
  const Duration rho = kTau * Rational(1, 4);
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  const ActorId snk = g.add_actor("snk", rho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 1000);
  (void)g.add_buffer(b, snk, RateSet::singleton(1), RateSet::singleton(1),
                     1000);
  (void)g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1),
                     /*capacity=*/1000, /*initial_tokens=*/1);
  const MinPeriodResult result = min_admissible_period(g, snk);
  ASSERT_TRUE(result.ok) << (result.diagnostics.empty()
                                 ? ""
                                 : result.diagnostics[0]);
  EXPECT_EQ(result.min_period, kTau * Rational(1, 2));
  EXPECT_NE(result.binding_constraint.find("cycle through back-edge b->a"),
            std::string::npos)
      << result.binding_constraint;
}

// --------------------------------------------------------------- deadlock

TEST(CyclicDeadlock, MinimaCoverCirculatingTokens) {
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  const std::vector<std::int64_t> minima =
      min_deadlock_free_capacities(app.graph);
  const auto view = app.graph.buffer_view();
  ASSERT_EQ(minima.size(), view->buffers.size());
  for (std::size_t pos = 0; pos < view->buffers.size(); ++pos) {
    const dataflow::Edge& data = app.graph.edge(view->buffers[pos].data);
    const std::int64_t expected =
        min_deadlock_free_pair_capacity(data.production, data.consumption) +
        data.initial_tokens;
    EXPECT_EQ(minima[pos], expected) << "buffer " << pos;
  }
}

TEST(CyclicDeadlock, TokenFreeCycleThrows) {
  VrdfGraph g;
  const Duration rho = seconds(Rational(1));
  const ActorId a = g.add_actor("a", rho);
  const ActorId b = g.add_actor("b", rho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_THROW((void)min_deadlock_free_capacities(g), ModelError);
}

// --------------------------------------------------------------------- io

TEST(CyclicIo, DotRendersBackEdgesDashed) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string dot = io::to_dot(app.graph, {app.constraint}, sized);
  EXPECT_NE(dot.find("d=12 [feedback]\" style=dashed"), std::string::npos)
      << dot;
  EXPECT_NE(dot.find("zeta=17"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST(CyclicIo, ReportNamesTheModelClassAndBackEdges) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string report =
      io::analysis_report(app.graph, {app.constraint}, sized);
  EXPECT_NE(report.find("cyclic graph"), std::string::npos);
  EXPECT_NE(report.find("1 feedback back-edge"), std::string::npos);
  EXPECT_NE(report.find("(feedback, delta=12)"), std::string::npos);
  // The baseline also carries the circulating tokens.
  const baseline::TraditionalResult traditional =
      baseline::traditional_capacities(app.graph);
  ASSERT_TRUE(traditional.ok);
  ASSERT_EQ(traditional.pairs.size(), 4u);
}

TEST(CyclicIo, TextFormatRoundTripsBackEdgeTokens) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string text = io::write_chain(app.graph, {app.constraint});
  EXPECT_NE(text.find("delta=12"), std::string::npos) << text;
  EXPECT_NE(text.find("capacity=17"), std::string::npos) << text;
  const io::ChainDocument doc = io::read_chain(text);
  const auto view = doc.graph.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_cyclic);
  ASSERT_EQ(doc.constraints.size(), 1u);
  const GraphAnalysis reloaded =
      compute_buffer_capacities(doc.graph, doc.constraints);
  ASSERT_TRUE(reloaded.admissible)
      << (reloaded.diagnostics.empty() ? "" : reloaded.diagnostics[0]);
  EXPECT_EQ(reloaded.total_capacity, sized.total_capacity);
}

// ------------------------------------------------------------- end-to-end

TEST(CyclicSufficiency, FeedbackPipelineSustainsPeriodicExecution) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, {app.constraint});
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);
}

// The published per-seed shape schedule of the PR 3 sweep — kept as the
// fleet's custom generator so seed N still yields the same graph.
models::SyntheticChain make_sweep_cyclic(std::uint64_t seed,
                                         bool source_constrained) {
  models::RandomCyclicSpec spec;
  spec.base.seed = seed;
  spec.base.stages = 1 + seed % 3;
  spec.base.max_branches = 2 + seed % 2;
  spec.base.max_branch_length = 1 + seed % 3;
  spec.base.max_segment_length = seed % 3;
  spec.base.variable_percent = 60;
  spec.base.zero_percent = 25;
  spec.base.source_constrained = source_constrained;
  spec.feedback_percent = 60;
  return models::make_random_cyclic(spec);
}

TEST(CyclicSufficiency, RandomCyclicGraphsSustainPeriodicExecution) {
  // The tentpole acceptance check, through the fleet harness (PR 8): on
  // 50 random cyclic graphs per constraint placement — up from 30 — the
  // computed capacities survive the two-phase simulation check with not
  // a single starved activation.
  sim::SweepSpec spec;
  spec.classes = {models::ModelClass::Cyclic};
  spec.seeds_per_class = 50;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.observe_firings = 400;
  spec.generator = [](const sim::FleetItem& item) {
    models::SyntheticChain generated = make_sweep_cyclic(
        item.seed_ordinal, item.mode == sim::ConstraintMode::Source);
    models::SyntheticModel model;
    model.graph = std::move(generated.graph);
    model.constraints = {generated.constraint};
    return model;
  };
  const sim::FleetReport report = sim::FleetSweep(spec).run(4);
  EXPECT_EQ(report.total_items, 100);
  EXPECT_EQ(report.passed, report.total_items) << sim::canonical_text(report);
  EXPECT_EQ(report.failed + report.rejected, 0);
  EXPECT_EQ(report.starvations, 0);

  // The structural claim the old loop also made: the generated graphs
  // really carry back edges (the fleet only checks the verdicts).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const models::SyntheticChain model = make_sweep_cyclic(seed, false);
    const GraphAnalysis sized =
        compute_buffer_capacities(model.graph, model.constraint);
    ASSERT_TRUE(sized.admissible)
        << "seed " << seed << ": " << sized.diagnostics[0];
    EXPECT_TRUE(sized.is_cyclic) << "seed " << seed;
  }
}

TEST(CyclicSufficiency, StrippedTokensAreRejectedNotAnalysed) {
  // Every token-free cycle is rejected with a diagnostic rather than
  // analysed: strip the circulating tokens from generated cyclic models
  // and require the analysis to refuse.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    models::RandomCyclicSpec spec;
    spec.base.seed = seed;
    spec.base.stages = 1 + seed % 2;
    const models::SyntheticChain model = models::make_random_cyclic(spec);
    VrdfGraph graph = model.graph;
    const auto view = graph.buffer_view();
    ASSERT_TRUE(view.has_value());
    ASSERT_FALSE(view->feedback_buffers.empty());
    for (const std::size_t pos : view->feedback_buffers) {
      graph.set_initial_tokens(view->buffers[pos].data, 0);
    }
    const GraphAnalysis sized =
        compute_buffer_capacities(graph, model.constraint);
    ASSERT_FALSE(sized.admissible) << "seed " << seed;
    EXPECT_NE(sized.diagnostics[0].find("cycle without initial tokens"),
              std::string::npos)
        << "seed " << seed << ": " << sized.diagnostics[0];
  }
}

}  // namespace
}  // namespace vrdf::analysis
