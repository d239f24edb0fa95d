// Fork-join generalisation tests: DAG validation and pacing, the
// schedule-alignment capacity terms, end-to-end sufficiency on random
// fork-join graphs (analysis vs two-phase simulation), and bit-for-bit
// chain-regression identity of the refactored GraphAnalysis against a
// reference implementation of the pre-refactor chain-indexed algorithm
// (including the paper's MP3 numbers {6015, 3263, 882}).
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"
#include "analysis/period.hpp"
#include "baseline/traditional.hpp"
#include "dataflow/validation.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "models/fig1.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::ActorId;
using dataflow::BufferEdges;
using dataflow::RateSet;
using dataflow::VrdfGraph;

const Duration kTau = milliseconds(Rational(3));

// ------------------------------------------------------------- DAG pacing

// A diamond with gear-matched demands: a feeds b (gear 2) and c (gear 3),
// both feed d (gear 1); every edge pins π̌ = g(source), γ̂ = g(target).
VrdfGraph make_diamond(ActorId* out_a = nullptr, ActorId* out_d = nullptr) {
  VrdfGraph g;
  const Duration dummy = seconds(Rational(1));
  const ActorId a = g.add_actor("a", dummy);
  const ActorId b = g.add_actor("b", dummy);
  const ActorId c = g.add_actor("c", dummy);
  const ActorId d = g.add_actor("d", dummy);
  (void)g.add_buffer(a, b, RateSet::singleton(4), RateSet::singleton(2));
  (void)g.add_buffer(a, c, RateSet::singleton(4), RateSet::singleton(3));
  (void)g.add_buffer(b, d, RateSet::singleton(2), RateSet::singleton(1));
  (void)g.add_buffer(c, d, RateSet::singleton(3), RateSet::singleton(1));
  if (out_a != nullptr) {
    *out_a = a;
  }
  if (out_d != nullptr) {
    *out_d = d;
  }
  return g;
}

TEST(DagPacing, DiamondPropagatesPerEdge) {
  ActorId a, d;
  const VrdfGraph g = make_diamond(&a, &d);
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{d, kTau}});
  ASSERT_TRUE(pacing.ok) << pacing.diagnostics[0];
  EXPECT_EQ(pacing.side, ConstraintSide::Sink);
  EXPECT_FALSE(pacing.is_chain);
  // φ(v) = g(v)·τ under the gear scheme: φ(b) = 2τ, φ(c) = 3τ and the
  // fork actor takes the min over its two (equal) demands: φ(a) = 4τ.
  const ActorId b = *g.find_actor("b");
  const ActorId c = *g.find_actor("c");
  EXPECT_EQ(pacing.pacing_of(d), kTau);
  EXPECT_EQ(pacing.pacing_of(b), kTau * Rational(2));
  EXPECT_EQ(pacing.pacing_of(c), kTau * Rational(3));
  EXPECT_EQ(pacing.pacing_of(a), kTau * Rational(4));
}

TEST(DagPacing, RejectsConflictingForkDemands) {
  // Mismatched demands: branch via b demands 2τ of a, branch via c
  // demands τ/2.  With static rates this is rate inconsistency around the
  // reconvergent cycle — the realized flows of the two branches diverge,
  // so no finite capacities exist and the analysis must say so instead of
  // silently taking the min (which used to deadlock the simulator).
  VrdfGraph g;
  const Duration dummy = seconds(Rational(1));
  const ActorId a = g.add_actor("a", dummy);
  const ActorId b = g.add_actor("b", dummy);
  const ActorId c = g.add_actor("c", dummy);
  const ActorId d = g.add_actor("d", dummy);
  (void)g.add_buffer(a, b, RateSet::singleton(2), RateSet::singleton(1));
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(2));
  (void)g.add_buffer(b, d, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(c, d, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{d, kTau}});
  ASSERT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("conflicting pacing demands"),
            std::string::npos);
  const GraphAnalysis analysis =
      compute_buffer_capacities(g, ThroughputConstraint{d, kTau});
  EXPECT_FALSE(analysis.admissible);
}

TEST(DagPacing, RejectsFlowInconsistentDiamond) {
  // Unit rates everywhere except c→d producing 2 per firing: branch c
  // delivers twice branch b's flow to the join.  validate_cyclic_model
  // accepts it as an acyclic network, but pacing must reject (demand via
  // b: τ, via c: 2τ) — previously this returned admissible capacities
  // under which the self-timed simulation deadlocked.
  VrdfGraph g;
  const Duration dummy = seconds(Rational(1));
  const ActorId a = g.add_actor("a", dummy);
  const ActorId b = g.add_actor("b", dummy);
  const ActorId c = g.add_actor("c", dummy);
  const ActorId d = g.add_actor("d", dummy);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, d, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(c, d, RateSet::singleton(2), RateSet::singleton(1));
  const dataflow::ValidationReport report = dataflow::validate_cyclic_model(g);
  EXPECT_TRUE(report.ok() && !report.view->is_cyclic) << report.summary();
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{d, kTau}});
  ASSERT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("inconsistent rates"),
            std::string::npos);
}

TEST(DagPacing, RejectsVariableRatesOnReconvergentEdges) {
  // A variable consumption set inside the diamond lets the sibling
  // branches' realized flows diverge; only chain-segment (bridge) edges
  // may carry data-dependent rates.
  ActorId a, d;
  VrdfGraph g = make_diamond(&a, &d);
  const ActorId e = g.add_actor("e", seconds(Rational(1)));
  // d → e is a bridge: variability is fine there.
  (void)g.add_buffer(d, e, RateSet::singleton(1), RateSet::of({0, 1}));
  ASSERT_TRUE(compute_pacing(g, {ThroughputConstraint{e, kTau}}).ok);
  // ...but on the diamond edge b → d it must be rejected.
  VrdfGraph h;
  const Duration dummy = seconds(Rational(1));
  const ActorId ha = h.add_actor("a", dummy);
  const ActorId hb = h.add_actor("b", dummy);
  const ActorId hc = h.add_actor("c", dummy);
  const ActorId hd = h.add_actor("d", dummy);
  (void)h.add_buffer(ha, hb, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(ha, hc, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(hb, hd, RateSet::of({1, 2}), RateSet::singleton(1));
  (void)h.add_buffer(hc, hd, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult pacing =
      compute_pacing(h, {ThroughputConstraint{hd, kTau}});
  ASSERT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("reconvergent fork-join path"),
            std::string::npos);
}

TEST(DagPacing, InteriorPinOnDiamondBranchLeavesSiblingUnpaced) {
  // PR 5 admits interior pins, so pinning branch actor b is no longer an
  // "is interior" rejection — but its sibling branch c neither reaches
  // the pin nor hangs off it, so the coverage check still rejects,
  // naming the unpaced actor instead.
  ActorId a, d;
  const VrdfGraph g = make_diamond(&a, &d);
  const PacingResult pacing = compute_pacing(
      g, {ThroughputConstraint{*g.find_actor("b"), kTau}});
  EXPECT_FALSE(pacing.ok);
  ASSERT_FALSE(pacing.diagnostics.empty());
  EXPECT_EQ(pacing.diagnostics[0].find("interior"), std::string::npos)
      << pacing.diagnostics[0];
  EXPECT_NE(pacing.diagnostics[0].find("actor 'c'"), std::string::npos)
      << pacing.diagnostics[0];
  EXPECT_NE(pacing.diagnostics[0].find("no pacing demand"), std::string::npos);
}

TEST(DagPacing, RejectsSecondSinkInSinkMode) {
  // a → b, a → c: constraining b leaves c unpaced.
  VrdfGraph g;
  const Duration dummy = seconds(Rational(1));
  const ActorId a = g.add_actor("a", dummy);
  const ActorId b = g.add_actor("b", dummy);
  const ActorId c = g.add_actor("c", dummy);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{b, kTau}});
  EXPECT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("unique data sink"), std::string::npos);
}

TEST(DagPacing, RejectsSecondSourceInSourceMode) {
  VrdfGraph g;
  const Duration dummy = seconds(Rational(1));
  const ActorId a = g.add_actor("a", dummy);
  const ActorId b = g.add_actor("b", dummy);
  const ActorId c = g.add_actor("c", dummy);
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{a, kTau}});
  EXPECT_FALSE(pacing.ok);
  EXPECT_NE(pacing.diagnostics[0].find("unique data source"),
            std::string::npos);
}

TEST(DagPacing, SecondSourceInSinkModeIsFine) {
  // Two sources joining into the constrained sink — a plain join.
  VrdfGraph g;
  const Duration dummy = seconds(Rational(1));
  const ActorId a = g.add_actor("a", dummy);
  const ActorId b = g.add_actor("b", dummy);
  const ActorId c = g.add_actor("c", dummy);
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult pacing =
      compute_pacing(g, {ThroughputConstraint{c, kTau}});
  ASSERT_TRUE(pacing.ok);
  EXPECT_EQ(pacing.pacing_of(a), kTau);
  EXPECT_EQ(pacing.pacing_of(b), kTau);
}

// -------------------------------------------------- alignment capacities

TEST(AlignmentCapacity, AvPipelineChargesSiblingSlackToFasterBranch) {
  const models::AvSyncPipeline app = models::make_av_sync_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  EXPECT_FALSE(sized.is_chain);
  ASSERT_EQ(sized.pairs.size(), 6u);
  const auto capacity_of = [&](const BufferEdges& b) -> std::int64_t {
    for (const PairAnalysis& pair : sized.pairs) {
      if (pair.buffer.data == b.data) {
        return pair.capacity;
      }
    }
    ADD_FAILURE() << "buffer not analysed";
    return -1;
  };
  // Gears 4/2/3/8/1/1, τ = 40 ms, tight response times.  The video branch
  // (vdec, ρ = 8τ, bursts of 8) dominates the alignment: the demux fires
  // pinned to it, so the *audio* buffer absorbs the video branch's slack
  // (19 instead of the chain-local 9).  Hand-computed from
  // ω(demux) − ω(adec) = 13τ: x = (13τ + 3τ + 2τ)/τ = 18 → 19.
  EXPECT_EQ(capacity_of(app.src_demux), 11);
  EXPECT_EQ(capacity_of(app.demux_adec), 19);
  EXPECT_EQ(capacity_of(app.demux_vdec), 19);
  EXPECT_EQ(capacity_of(app.adec_sync), 7);
  EXPECT_EQ(capacity_of(app.vdec_sync), 17);
  EXPECT_EQ(capacity_of(app.sync_present), 3);
  EXPECT_EQ(sized.total_capacity, 76);
}

TEST(AlignmentCapacity, AvPipelineEndToEnd) {
  models::AvSyncPipeline app = models::make_av_sync_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const sim::VerifyResult verdict =
      sim::verify_throughput(app.graph, {app.constraint});
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(verdict.starvation_count, 0);

  // The inverse problem agrees: with tight response times the fastest
  // admissible period is the constraint's own period.
  const MinPeriodResult headroom =
      min_admissible_period(app.graph, app.constraint.actor);
  ASSERT_TRUE(headroom.ok) << (headroom.diagnostics.empty()
                                   ? ""
                                   : headroom.diagnostics[0]);
  EXPECT_EQ(headroom.min_period, app.constraint.period);

  // Reporting stack handles the fork-join shape.
  const std::string report =
      io::analysis_report(app.graph, {app.constraint}, sized);
  EXPECT_NE(report.find("fork-join graph"), std::string::npos);
  const baseline::TraditionalResult traditional =
      baseline::traditional_capacities(app.graph);
  ASSERT_TRUE(traditional.ok);
  EXPECT_EQ(traditional.pairs.size(), 6u);
}

TEST(AlignmentCapacity, DotRendersCapacitiesAndPeriod) {
  models::AvSyncPipeline app = models::make_av_sync_pipeline();
  const GraphAnalysis sized =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(app.graph, sized);
  const std::string dot = io::to_dot(app.graph, {app.constraint}, sized);
  EXPECT_NE(dot.find("zeta=19"), std::string::npos);
  EXPECT_NE(dot.find("tau=1/25 s"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
  EXPECT_EQ(dot.find("(!)"), std::string::npos);  // installed == computed
  app.graph.set_initial_tokens(app.adec_sync.space, 1);
  const std::string stale = io::to_dot(app.graph, {app.constraint}, sized);
  EXPECT_NE(stale.find("(!)"), std::string::npos);
}

// ------------------------------------------- sufficiency on random DAGs

// The published per-seed shape schedule of the PR 2 sweep — kept as the
// fleet's custom generator so seed N still yields the same graph.
models::SyntheticChain make_sweep_fork_join(std::uint64_t seed,
                                            bool source_constrained) {
  models::RandomForkJoinSpec spec;
  spec.seed = seed;
  spec.stages = 1 + seed % 3;
  spec.max_branches = 2 + seed % 2;
  spec.max_branch_length = 1 + seed % 3;
  spec.max_segment_length = seed % 3;
  spec.variable_percent = 60;
  spec.zero_percent = 25;
  spec.source_constrained = source_constrained;
  return models::make_random_fork_join(spec);
}

TEST(ForkJoinSufficiency, RandomGraphsSustainPeriodicExecution) {
  // The tentpole acceptance check, through the fleet harness (PR 8): on
  // 50 random fork-join graphs per constraint placement — up from 30 —
  // the computed capacities survive the two-phase simulation check with
  // not a single starved activation.
  sim::SweepSpec spec;
  spec.classes = {models::ModelClass::ForkJoin};
  spec.seeds_per_class = 50;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.observe_firings = 400;
  spec.generator = [](const sim::FleetItem& item) {
    models::SyntheticChain generated = make_sweep_fork_join(
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
  // really leave chain-land (the fleet only checks the verdicts).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const models::SyntheticChain model = make_sweep_fork_join(seed, false);
    const GraphAnalysis sized =
        compute_buffer_capacities(model.graph, model.constraint);
    ASSERT_TRUE(sized.admissible)
        << "seed " << seed << ": " << sized.diagnostics[0];
    EXPECT_FALSE(sized.is_chain) << "seed " << seed;
  }
}

// --------------------------------------------- chain-regression identity

// Reference implementation of the pre-refactor chain-indexed pipeline
// (PR 1 state): pacing via the positional recurrences of Sec 4.3/4.4 and
// capacities via the chain-local Eq (1)-(4).  The refactored per-edge
// GraphAnalysis must reproduce it bit-for-bit on every chain.
struct ReferenceChainAnalysis {
  bool admissible = false;
  ConstraintSide side = ConstraintSide::Sink;
  std::vector<ActorId> actors_in_order;
  std::vector<Duration> pacing;
  std::vector<Rational> raw_tokens;
  std::vector<Duration> delta_producer;
  std::vector<Duration> delta_consumer;
  std::vector<std::int64_t> capacities;
  std::int64_t total_capacity = 0;
};

ReferenceChainAnalysis reference_chain_analysis(
    const VrdfGraph& graph, const ThroughputConstraint& constraint) {
  ReferenceChainAnalysis ref;
  const auto chain = graph.buffer_view();
  VRDF_REQUIRE(chain.has_value() && chain->is_chain, "reference needs a chain");
  ref.actors_in_order = chain->actors;
  const std::size_t n = chain->actors.size();
  ref.side = constraint.actor == chain->actors.back() ? ConstraintSide::Sink
                                                      : ConstraintSide::Source;
  if (n == 1) {
    ref.side = ConstraintSide::Sink;
  }
  ref.pacing.assign(n, Duration());
  if (ref.side == ConstraintSide::Sink) {
    ref.pacing[n - 1] = constraint.period;
    for (std::size_t i = n - 1; i > 0; --i) {
      const dataflow::Edge& data = graph.edge(chain->buffers[i - 1].data);
      if (data.production.min() == 0) {
        return ref;
      }
      ref.pacing[i - 1] = ref.pacing[i] * Rational(data.production.min(),
                                                   data.consumption.max());
    }
  } else {
    ref.pacing[0] = constraint.period;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const dataflow::Edge& data = graph.edge(chain->buffers[i].data);
      if (data.consumption.min() == 0) {
        return ref;
      }
      ref.pacing[i + 1] = ref.pacing[i] * Rational(data.consumption.min(),
                                                   data.production.max());
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (graph.actor(chain->actors[i]).response_time > ref.pacing[i]) {
      return ref;
    }
  }
  for (std::size_t i = 0; i < chain->buffers.size(); ++i) {
    const dataflow::Edge& data = graph.edge(chain->buffers[i].data);
    const std::int64_t pi_max = data.production.max();
    const std::int64_t gamma_max = data.consumption.max();
    const Duration basis =
        ref.side == ConstraintSide::Sink ? ref.pacing[i + 1] : ref.pacing[i];
    const Duration s = ref.side == ConstraintSide::Sink
                           ? basis / Rational(gamma_max)
                           : basis / Rational(pi_max);
    const Duration dp = graph.actor(data.source).response_time +
                        s * Rational(pi_max - 1);
    const Duration dc = graph.actor(data.target).response_time +
                        s * Rational(gamma_max - 1);
    const Rational x = (dp + dc) / s;
    const bool is_static =
        data.production.is_singleton() && data.consumption.is_singleton();
    const bool adjacent = ref.side == ConstraintSide::Sink
                              ? i + 1 == chain->buffers.size()
                              : i == 0;
    const std::int64_t capacity = is_static && adjacent
                                      ? x.ceil()
                                      : checked_add(x.floor(), 1);
    ref.raw_tokens.push_back(x);
    ref.delta_producer.push_back(dp);
    ref.delta_consumer.push_back(dc);
    ref.capacities.push_back(capacity);
    ref.total_capacity = checked_add(ref.total_capacity, capacity);
  }
  ref.admissible = true;
  return ref;
}

void expect_matches_reference(const VrdfGraph& graph,
                              const ThroughputConstraint& constraint,
                              const std::string& label) {
  const ReferenceChainAnalysis ref =
      reference_chain_analysis(graph, constraint);
  const GraphAnalysis analysis = compute_buffer_capacities(graph, constraint);
  ASSERT_EQ(analysis.admissible, ref.admissible) << label;
  EXPECT_TRUE(analysis.is_chain) << label;
  EXPECT_EQ(analysis.actors_in_order, ref.actors_in_order) << label;
  if (!ref.admissible) {
    return;
  }
  EXPECT_EQ(analysis.side, ref.side) << label;
  ASSERT_EQ(analysis.pacing.size(), ref.pacing.size()) << label;
  for (std::size_t i = 0; i < ref.pacing.size(); ++i) {
    EXPECT_EQ(analysis.pacing[i], ref.pacing[i]) << label << " phi " << i;
  }
  ASSERT_EQ(analysis.pairs.size(), ref.capacities.size()) << label;
  for (std::size_t i = 0; i < ref.capacities.size(); ++i) {
    EXPECT_EQ(analysis.pairs[i].raw_tokens, ref.raw_tokens[i])
        << label << " pair " << i;
    EXPECT_EQ(analysis.pairs[i].delta_producer, ref.delta_producer[i])
        << label << " pair " << i;
    EXPECT_EQ(analysis.pairs[i].delta_consumer, ref.delta_consumer[i])
        << label << " pair " << i;
    EXPECT_EQ(analysis.pairs[i].capacity, ref.capacities[i])
        << label << " pair " << i;
  }
  EXPECT_EQ(analysis.total_capacity, ref.total_capacity) << label;
}

TEST(ChainRegression, FixedModelsMatchPreRefactorAlgorithm) {
  const models::Mp3Playback mp3 = models::make_mp3_playback();
  expect_matches_reference(mp3.graph, mp3.constraint, "mp3");
  const models::Fig1Vrdf fig1 = models::make_fig1_vrdf(kTau, kTau, kTau);
  expect_matches_reference(fig1.graph, fig1.constraint, "fig1");
  const models::SyntheticChain video = models::make_video_pipeline();
  expect_matches_reference(video.graph, video.constraint, "video");
  const models::SyntheticChain sensor = models::make_sensor_acquisition();
  expect_matches_reference(sensor.graph, sensor.constraint, "sensor");
}

TEST(ChainRegression, Mp3StillYieldsPublishedCapacities) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const GraphAnalysis analysis =
      compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible);
  EXPECT_TRUE(analysis.is_chain);
  ASSERT_EQ(analysis.pairs.size(), 3u);
  EXPECT_EQ(analysis.pairs[0].capacity,
            models::Mp3PaperNumbers::kVrdfCapacities[0]);  // 6015
  EXPECT_EQ(analysis.pairs[1].capacity,
            models::Mp3PaperNumbers::kVrdfCapacities[1]);  // 3263
  EXPECT_EQ(analysis.pairs[2].capacity,
            models::Mp3PaperNumbers::kVrdfCapacities[2]);  // 882
}

TEST(ChainRegression, RandomChainsMatchPreRefactorAlgorithm) {
  for (const bool source_constrained : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      models::RandomChainSpec spec;
      spec.seed = seed;
      spec.length = 2 + seed % 6;
      spec.variable_percent = 60;
      spec.zero_percent = 25;
      spec.source_constrained = source_constrained;
      const models::SyntheticChain chain = models::make_random_chain(spec);
      expect_matches_reference(
          chain.graph, chain.constraint,
          "seed " + std::to_string(seed) +
              (source_constrained ? " source" : " sink"));
    }
  }
}

TEST(ChainRegression, ChainDiagnosticsKeepTheirWording) {
  // PR 5 lifted the ends-only restriction: an interior constraint on a
  // chain now paces instead of producing the old "must be on the chain's
  // source or sink" rejection.
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kTau);
  const ActorId b = g.add_actor("b", kTau);
  const ActorId c = g.add_actor("c", kTau);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const PacingResult interior =
      compute_pacing(g, {ThroughputConstraint{b, kTau}});
  EXPECT_TRUE(interior.ok);

  // Zero-quantum diagnostics keep the "chains" wording on chains.
  VrdfGraph h;
  const ActorId d = h.add_actor("d", kTau);
  const ActorId e = h.add_actor("e", kTau);
  (void)h.add_buffer(d, e, RateSet::of({0, 3}), RateSet::singleton(2));
  const PacingResult zero = compute_pacing(h, {ThroughputConstraint{e, kTau}});
  ASSERT_FALSE(zero.ok);
  EXPECT_NE(zero.diagnostics[0].find("sink-constrained chains"),
            std::string::npos);
}

}  // namespace
}  // namespace vrdf::analysis
