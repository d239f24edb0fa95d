// Tests for the inverse analysis: fastest admissible period for given
// capacities.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "analysis/snapshot.hpp"
#include "models/fig1.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

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

/// True when the forward analysis at `period` is admissible and every
/// pair fits the capacities installed in `graph`.
bool fits_at(const VrdfGraph& graph, ActorId actor, const Duration& period,
             const AnalysisOptions& options) {
  const GraphAnalysis forward = compute_buffer_capacities(
      graph, ThroughputConstraint{actor, period}, options);
  return forward.admissible && first_over_installed(graph, forward) == nullptr;
}

TEST_P(MinPeriodRoundTrip, ForwardFitsAtTheMinimumOnRandomModels) {
  // Every single-constraint class, sized and installed under each
  // rounding mode with 0, 1 and 3 extra containers per buffer, then
  // solved and checked under the same mode.  The attained minimum fits;
  // the infimum fits exactly when it is attained; and any period above
  // the infimum fits, however close (the open forward condition x < d is
  // what the infimum bounds).
  for (const models::ModelClass model_class :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::InteriorPinned}) {
    for (std::uint64_t round = 0; round < 20; ++round) {
      for (const std::int64_t headroom : {0, 1, 3}) {
        models::RandomModelSpec spec;
        spec.model_class = model_class;
        spec.seed = GetParam() + 100 * round;
        spec.capacity_headroom = headroom;
        const models::SyntheticModel model = models::make_random_model(spec);
        ASSERT_EQ(model.constraints.size(), 1u);
        const ActorId actor = model.constraints.front().actor;
        for (const RoundingMode mode :
             {RoundingMode::PaperPublished, RoundingMode::PaperLiteral,
              RoundingMode::Ceil}) {
          const AnalysisOptions options{mode};
          VrdfGraph graph = model.graph;
          const GraphAnalysis sized =
              compute_buffer_capacities(graph, model.constraints, options);
          ASSERT_TRUE(sized.admissible);
          apply_capacities(graph, sized);
          for (const PairAnalysis& pair : sized.pairs) {
            graph.set_initial_tokens(
                pair.buffer.space,
                graph.edge(pair.buffer.space).initial_tokens + headroom);
          }
          const std::string where =
              std::string(models::class_name(model_class)) + " seed " +
              std::to_string(spec.seed) + " headroom " +
              std::to_string(headroom) + " rounding " +
              std::to_string(static_cast<int>(mode));
          const MinPeriodResult inverse =
              min_admissible_period(graph, actor, options);
          ASSERT_TRUE(inverse.ok) << where;
          EXPECT_TRUE(fits_at(graph, actor, inverse.min_period, options))
              << where;
          EXPECT_EQ(
              fits_at(graph, actor, inverse.infimum_period, options),
              inverse.infimum_attained)
              << where;
          EXPECT_TRUE(fits_at(graph, actor,
                              inverse.infimum_period * Rational(4097, 4096),
                              options))
              << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinPeriodRoundTrip,
                         ::testing::Values(2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u));

// ----------------------------------------------------------------- goldens
//
// Every MinPeriodResult field, diagnostics included, pinned byte for byte
// over named models, failure cases and a random pool.  Each case runs
// through the graph single form (one-constraint sets), the graph set form
// and the snapshot set form with an empty overlay, which must agree.  The
// texts were produced before the solver was reduced to one entry point; a
// deliberate change to a diagnostic must update them.

std::string render(const MinPeriodResult& r) {
  std::ostringstream os;
  os << "ok=" << r.ok << " min=" << r.min_period.seconds().to_string()
     << " inf=" << r.infimum_period.seconds().to_string()
     << " attained=" << r.infimum_attained << " binding="
     << r.binding_constraint;
  for (const std::string& d : r.diagnostics) {
    os << " | " << d;
  }
  return os.str();
}

/// The agreed rendering of every entry point for designating `designated`.
std::string golden_of(const VrdfGraph& graph, const ConstraintSet& constraints,
                      ActorId designated, const AnalysisOptions& options = {}) {
  const std::string set_form =
      render(min_admissible_period(graph, constraints, designated, options));
  EXPECT_EQ(render(min_admissible_period(TopologySnapshot(graph), constraints,
                                         designated, options, {})),
            set_form);
  if (constraints.size() == 1) {
    EXPECT_EQ(render(min_admissible_period(graph, designated, options)),
              set_form);
  }
  return set_form;
}

/// Sizes `graph` for `constraints` and installs the capacities.
void install_capacities(VrdfGraph& graph, const ConstraintSet& constraints) {
  const GraphAnalysis sized = compute_buffer_capacities(graph, constraints);
  ASSERT_TRUE(sized.admissible);
  apply_capacities(graph, sized);
}

TEST(MinPeriodGoldens, NamedModels) {
  // Each model is sized at its declared period with tight response times
  // ρ(v) = φ(v) (the paper's choice for MP3), so a response time binds at
  // exactly that period, and it is attained: MP3 1/44100 s, the feedback
  // pipeline its design period 1/25 s, the interior pin 5 ms.  With the
  // other presenter fixed, flow consistency pins the dual-presenter A/V
  // set to its declared 15 ms audio and 40 ms video periods.
  models::Mp3Playback mp3 = models::make_mp3_playback();
  install_capacities(mp3.graph, {mp3.constraint});
  EXPECT_EQ(golden_of(mp3.graph, {mp3.constraint}, mp3.dac),
            "ok=1 min=1/44100 inf=1/44100 attained=1 binding=actor vBR");

  models::FeedbackPipeline feedback = models::make_feedback_pipeline();
  install_capacities(feedback.graph, {feedback.constraint});
  EXPECT_EQ(golden_of(feedback.graph, {feedback.constraint},
                      feedback.constraint.actor),
            "ok=1 min=1/25 inf=1/25 attained=1 binding=actor rctl");

  models::InteriorPinnedPipeline interior =
      models::make_interior_pinned_pipeline();
  install_capacities(interior.graph, {interior.constraint});
  EXPECT_EQ(golden_of(interior.graph, {interior.constraint}, interior.dsp),
            "ok=1 min=1/200 inf=1/200 attained=1 binding=actor source");

  models::AvDualSinkPipeline av = models::make_av_dual_sink_pipeline();
  install_capacities(av.graph, av.constraints);
  EXPECT_EQ(golden_of(av.graph, av.constraints, av.apresent),
            "ok=1 min=3/200 inf=3/200 attained=1 binding=flow-coupling at "
            "actor 'src'");
  EXPECT_EQ(golden_of(av.graph, av.constraints, av.vpresent),
            "ok=1 min=1/25 inf=1/25 attained=1 binding=flow-coupling at actor "
            "'src'");

  // A fork whose alignment max switches with τ: at the 1 s start of the
  // fixed-point iteration the y branch's quantum slack τ/2 leads, at the
  // solved period the x branch's response time does.
  VrdfGraph fork;
  const Duration ms = milliseconds(Rational(1));
  const ActorId src = fork.add_actor("src", ms * Rational(5));
  const ActorId f = fork.add_actor("f", ms * Rational(5));
  const ActorId x = fork.add_actor("x", ms * Rational(10));
  const ActorId y = fork.add_actor("y", ms);
  const ActorId j = fork.add_actor("j", ms * Rational(5));
  (void)fork.add_buffer(src, f, RateSet::singleton(1), RateSet::singleton(1));
  (void)fork.add_buffer(f, x, RateSet::singleton(1), RateSet::singleton(1));
  (void)fork.add_buffer(f, y, RateSet::singleton(2), RateSet::singleton(2));
  (void)fork.add_buffer(x, j, RateSet::singleton(1), RateSet::singleton(1));
  (void)fork.add_buffer(y, j, RateSet::singleton(1), RateSet::singleton(1));
  const ConstraintSet at_j = {ThroughputConstraint{j, ms * Rational(10)}};
  install_capacities(fork, at_j);
  EXPECT_EQ(golden_of(fork, at_j, j),
            "ok=1 min=3/200 inf=1/100 attained=1 binding=buffer f->x");
}

TEST(MinPeriodGoldens, FailureCases) {
  // Undersized: below the structural floor π̂ + γ̂ − 1 of the +1 form.
  const Duration tau = milliseconds(Rational(3));
  models::Fig1Vrdf fig1 = models::make_fig1_vrdf(tau, tau, tau);
  fig1.graph.set_initial_tokens(fig1.buffer.space, 5);
  EXPECT_EQ(golden_of(fig1.graph, {fig1.constraint}, fig1.vb),
            "ok=0 min=0 inf=0 attained=0 binding= | buffer va->vb: capacity 5 "
            "cannot sustain any rate (needs more than 5 containers)");

  // Credit-starved back-edge: the loop's transfer slack
  // (π̂ − 1) + (γ̂ − 1) = 2 consumes both circulating tokens.
  VrdfGraph loop;
  const Duration rho = milliseconds(Rational(1));
  const ActorId a = loop.add_actor("a", rho);
  const ActorId b = loop.add_actor("b", rho);
  const ActorId snk = loop.add_actor("snk", rho);
  (void)loop.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1),
                        1000);
  (void)loop.add_buffer(b, snk, RateSet::singleton(1), RateSet::singleton(1),
                        1000);
  (void)loop.add_buffer(b, a, RateSet::singleton(2), RateSet::singleton(2),
                        /*capacity=*/1000, /*initial_tokens=*/2);
  EXPECT_EQ(golden_of(loop, {ThroughputConstraint{snk, tau}}, snk),
            "ok=0 min=0 inf=0 attained=0 binding= | cycle through back-edge "
            "b->a: delta=2 initial tokens cannot sustain any rate (the "
            "cycle's transfer slack alone consumes the credit)");

  // Back-edge without free containers: the 12 installed containers of
  // dec->rctl all hold circulating tokens, and the requirement counts them
  // too.  The skeleton buffers are roomy, so the back-edge binds.
  models::FeedbackPipeline feedback = models::make_feedback_pipeline();
  for (const dataflow::BufferEdges& skeleton :
       {feedback.src_dec, feedback.dec_present, feedback.rctl_src}) {
    feedback.graph.set_initial_tokens(skeleton.space, 40);
  }
  feedback.graph.set_initial_tokens(feedback.dec_rctl.data, 12);
  feedback.graph.set_initial_tokens(feedback.dec_rctl.space, 0);
  EXPECT_EQ(golden_of(feedback.graph, {feedback.constraint},
                      feedback.constraint.actor),
            "ok=0 min=0 inf=0 attained=0 binding= | buffer dec->rctl: "
            "capacity 12 cannot sustain any rate (needs more than 14 "
            "containers)");

  // Strangled: the flow-coupled period needs more than the installed
  // capacity of the video branch.
  models::AvDualSinkPipeline av = models::make_av_dual_sink_pipeline();
  install_capacities(av.graph, av.constraints);
  av.graph.set_initial_tokens(av.vdec_vpresent.space, 1);
  EXPECT_EQ(golden_of(av.graph, av.constraints, av.vpresent),
            "ok=0 min=0 inf=0 attained=0 binding= | buffer vdec->vpresent: "
            "installed capacity 1 cannot sustain the flow-coupled period 1/25 "
            "s (needs 30 containers)");

  // A designated actor without a constraint in the set is a usage error.
  EXPECT_EQ(golden_of(av.graph, av.constraints, av.demux),
            "ok=0 min=0 inf=0 attained=0 binding= | designated actor carries "
            "no constraint in the set");

  // Flow-inconsistent: designating the pin of src -> pin -> snk, its
  // source-paced downstream cone meets the fixed sink's sink-paced cone
  // at ratios that differ across the variable pin -> snk edge.
  VrdfGraph split;
  const ActorId src = split.add_actor("src", rho);
  const ActorId pin = split.add_actor("pin", rho);
  const ActorId out = split.add_actor("snk", rho);
  (void)split.add_buffer(src, pin, RateSet::singleton(1),
                         RateSet::singleton(1), 100);
  (void)split.add_buffer(pin, out, RateSet::of({1, 2}), RateSet::singleton(2),
                         100);
  EXPECT_EQ(golden_of(split,
                      {ThroughputConstraint{pin, tau},
                       ThroughputConstraint{out, milliseconds(Rational(8))}},
                      pin),
            "ok=0 min=0 inf=0 attained=0 binding= | the fixed constraints pin "
            "incompatible periods for 'pin' (1/250 s at actor 'src' vs 1/125 "
            "s at actor 'snk'); the constraint set is not flow-consistent at "
            "any period");
}


/// 64-bit FNV-1a of a golden text.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char byte : text) {
    fnv = (fnv ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  return fnv;
}

TEST(MinPeriodGoldens, RandomModels) {
  // One line per (class, seed, headroom, designated constraint) at the
  // default rounding; the same pool under the two other rounding modes
  // goes to a second text with its own digest.
  std::ostringstream lines;
  std::ostringstream other_modes;
  for (const models::ModelClass model_class :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
        models::ModelClass::InteriorPinned}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const std::int64_t headroom : {0, 1, 2}) {
        models::RandomModelSpec spec;
        spec.model_class = model_class;
        spec.seed = seed;
        spec.capacity_headroom = headroom;
        const models::SyntheticModel model = models::make_random_model(spec);
        for (const ThroughputConstraint& c : model.constraints) {
          std::ostringstream head;
          head << models::class_name(model_class) << ' ' << seed << ' '
               << headroom << ' ' << model.graph.actor(c.actor).name;
          lines << head.str() << ": "
                << golden_of(model.graph, model.constraints, c.actor) << '\n';
          for (const auto& [mode, name] :
               {std::pair{RoundingMode::PaperLiteral, "literal"},
                std::pair{RoundingMode::Ceil, "ceil"}}) {
            other_modes << head.str() << ' ' << name << ": "
                        << golden_of(model.graph, model.constraints, c.actor,
                                     AnalysisOptions{mode})
                        << '\n';
          }
        }
      }
    }
  }
  // A mismatch prints the text itself.
  EXPECT_EQ(fnv1a(lines.str()), 0xcaab2151028681c8ULL) << lines.str();
  EXPECT_EQ(fnv1a(other_modes.str()), 0x9921567635432c92ULL) << other_modes.str();
}

TEST(MinPeriodGoldens, LargerInstalledSpaceMovesThePeriod) {
  // The solver reads installed capacities from the graph: three more free
  // containers per buffer give the period pinned below, through the
  // snapshot form and the graph form alike.
  models::RandomModelSpec spec;
  spec.model_class = models::ModelClass::ForkJoin;
  spec.seed = 3;
  const models::SyntheticModel model = models::make_random_model(spec);
  const ActorId designated = model.constraints.front().actor;
  VrdfGraph mutated = model.graph;
  for (const dataflow::BufferEdges& buffer : model.graph.buffers()) {
    mutated.set_initial_tokens(
        buffer.space, model.graph.edge(buffer.space).initial_tokens + 3);
  }
  const std::string via_snapshot = render(min_admissible_period(
      TopologySnapshot(mutated), model.constraints, designated));
  EXPECT_EQ(via_snapshot, golden_of(mutated, model.constraints, designated));
  EXPECT_EQ(via_snapshot,
            "ok=1 min=7/10000 inf=7/11000 attained=0 binding=buffer "
            "src->s0_b1_0");
}

}  // namespace
}  // namespace vrdf::analysis
