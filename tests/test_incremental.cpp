// Incremental re-analysis engine and admission controller: randomized
// differential sweeps (every ModelClass × 40 seeds × random
// retune/set_period/admit/remove/δ-override sequences, asserting the
// incremental GraphAnalysis is field-for-field identical to a full
// recompute after every operation — including rejection shapes and
// diagnostics), the MP3 anchor {6015, 3263, 882} served through the
// controller, rollback-on-rejection, the single-constraint period
// rescale path, δ-override contracts, and stale-snapshot contract
// errors naming the offending mutation.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/incremental.hpp"
#include "analysis/pacing.hpp"
#include "analysis/snapshot.hpp"
#include "io/report.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::ActorId;
using dataflow::VrdfGraph;

void expect_identical(const GraphAnalysis& got, const GraphAnalysis& want) {
  EXPECT_EQ(got.admissible, want.admissible);
  EXPECT_EQ(got.diagnostics, want.diagnostics);
  EXPECT_EQ(got.side, want.side);
  ASSERT_EQ(got.constraints.size(), want.constraints.size());
  for (std::size_t i = 0; i < got.constraints.size(); ++i) {
    EXPECT_EQ(got.constraints[i].actor, want.constraints[i].actor);
    EXPECT_EQ(got.constraints[i].period, want.constraints[i].period);
  }
  EXPECT_EQ(got.constraint_is_sink_kind, want.constraint_is_sink_kind);
  EXPECT_EQ(got.constraint_is_source_kind, want.constraint_is_source_kind);
  EXPECT_EQ(got.is_chain, want.is_chain);
  EXPECT_EQ(got.is_cyclic, want.is_cyclic);
  EXPECT_EQ(got.actors_in_order, want.actors_in_order);
  EXPECT_EQ(got.pacing, want.pacing);
  EXPECT_EQ(got.leads, want.leads);
  EXPECT_EQ(got.total_capacity, want.total_capacity);
  EXPECT_EQ(got.rounding, want.rounding);
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (std::size_t i = 0; i < got.pairs.size(); ++i) {
    const PairAnalysis& g = got.pairs[i];
    const PairAnalysis& w = want.pairs[i];
    EXPECT_EQ(g.producer, w.producer) << "pair " << i;
    EXPECT_EQ(g.consumer, w.consumer) << "pair " << i;
    EXPECT_EQ(g.buffer.data, w.buffer.data) << "pair " << i;
    EXPECT_EQ(g.buffer.space, w.buffer.space) << "pair " << i;
    EXPECT_EQ(g.pacing_basis, w.pacing_basis) << "pair " << i;
    EXPECT_EQ(g.bound_rate, w.bound_rate) << "pair " << i;
    EXPECT_EQ(g.delta_producer, w.delta_producer) << "pair " << i;
    EXPECT_EQ(g.delta_consumer, w.delta_consumer) << "pair " << i;
    EXPECT_EQ(g.delta_total, w.delta_total) << "pair " << i;
    EXPECT_EQ(g.raw_tokens, w.raw_tokens) << "pair " << i;
    EXPECT_EQ(g.capacity, w.capacity) << "pair " << i;
    EXPECT_EQ(g.determined_by, w.determined_by) << "pair " << i;
    EXPECT_EQ(g.is_static, w.is_static) << "pair " << i;
    EXPECT_EQ(g.is_feedback, w.is_feedback) << "pair " << i;
    EXPECT_EQ(g.initial_tokens, w.initial_tokens) << "pair " << i;
    EXPECT_EQ(g.required_initial_tokens, w.required_initial_tokens)
        << "pair " << i;
  }
}

// ----------------------------------------------- randomized differential

void run_differential_sequence(models::ModelClass model_class,
                               std::uint64_t seed) {
  models::RandomModelSpec spec;
  spec.model_class = model_class;
  spec.seed = seed;
  models::SyntheticModel model = models::make_random_model(spec);
  const TopologySnapshot snapshot(model.graph);
  ASSERT_TRUE(snapshot.ok());
  const AnalysisOptions options;
  IncrementalAnalysis engine(snapshot, model.constraints, options);
  // Certify every admissible post-op state: the emitted certificate must
  // pass the independent checker after each incremental patch, or the
  // patching reassembled something the full analysis would not produce.
  engine.set_certify(true);
  std::mt19937_64 rng(seed * 977 + static_cast<std::uint64_t>(model_class));

  // The oracle: a full recompute over the same snapshot, constraint set
  // and overlay.  Mirroring through the engine's own constraint/overlay
  // accessors keeps the two paths in lockstep by construction.
  const auto check = [&](const char* op) {
    const GraphAnalysis full = compute_buffer_capacities(
        snapshot, engine.constraints(), options, engine.overlay());
    SCOPED_TRACE(std::string("after ") + op + ", class " +
                 std::to_string(static_cast<int>(model_class)) + ", seed " +
                 std::to_string(seed));
    expect_identical(engine.analysis(), full);
  };
  check("construction");

  const std::size_t n = model.graph.actor_count();
  const auto random_actor = [&]() {
    return ActorId(static_cast<ActorId::underlying_type>(rng() % n));
  };
  const auto constrained = [&](ActorId v) {
    for (const ThroughputConstraint& c : engine.constraints()) {
      if (c.actor == v) {
        return true;
      }
    }
    return false;
  };
  const dataflow::VrdfGraph::BufferView& view = snapshot.view();

  for (int step = 0; step < 12; ++step) {
    switch (rng() % 6) {
      case 0: {
        // Retune: mostly small ρ, occasionally huge to drive the
        // ρ-blocked shape (and its recovery on a later step).
        const bool blocking = rng() % 10 == 0;
        const std::int64_t num =
            1 + static_cast<std::int64_t>(rng() % (blocking ? 100000000 : 50));
        engine.retune(random_actor(), Duration(Rational(num, 100000)));
        check("retune");
        break;
      }
      case 1: {
        engine.clear_retune(random_actor());
        check("clear_retune");
        break;
      }
      case 2: {
        // Period move on a random serviced constraint: scale by a random
        // rational factor (shrinking periods drive ρ rejections).
        const std::size_t i = rng() % engine.constraints().size();
        const ThroughputConstraint c = engine.constraints()[i];
        const Rational factor(static_cast<std::int64_t>(1 + rng() % 5),
                              static_cast<std::int64_t>(1 + rng() % 5));
        engine.set_period(c.actor, Duration(c.period.seconds() * factor));
        check("set_period");
        break;
      }
      case 3: {
        // δ override on a random edge: classification-preserving on
        // on-cycle data edges, free on the rest; space-edge overrides
        // must be analysis-inert.
        const std::size_t pos = rng() % view.buffers.size();
        const bool space_side = rng() % 4 == 0;
        if (space_side) {
          engine.set_initial_tokens(view.buffers[pos].space,
                                    static_cast<std::int64_t>(rng() % 2000));
        } else {
          const dataflow::EdgeId data = view.buffers[pos].data;
          const std::int64_t current =
              model.graph.edge(data).initial_tokens;
          std::int64_t tokens;
          if (view.on_cycle[pos]) {
            tokens = current > 0
                         ? 1 + static_cast<std::int64_t>(
                                   rng() % static_cast<std::uint64_t>(
                                               current + 3))
                         : 0;
          } else {
            tokens = static_cast<std::int64_t>(rng() % 4);
          }
          engine.set_initial_tokens(data, tokens);
        }
        check("set_initial_tokens");
        break;
      }
      case 4: {
        // Admit: half the time at the actor's current φ (flow-consistent
        // — should be accepted), half at a random period (usually a
        // flow-consistency rejection shape).
        ActorId actor = random_actor();
        bool found = false;
        for (std::size_t tries = 0; tries < n; ++tries) {
          if (!constrained(actor)) {
            found = true;
            break;
          }
          actor = random_actor();
        }
        if (!found) {
          break;
        }
        const GraphAnalysis& current = engine.analysis();
        Duration period = Duration(
            Rational(static_cast<std::int64_t>(1 + rng() % 50), 1000));
        if (current.admissible && rng() % 2 == 0) {
          for (std::size_t i = 0; i < current.actors_in_order.size(); ++i) {
            if (current.actors_in_order[i] == actor) {
              period = current.pacing[i];
              break;
            }
          }
        }
        engine.admit(ThroughputConstraint{actor, period});
        check("admit");
        break;
      }
      default: {
        // Remove a random stream, keeping at least one (removal may
        // orphan a region — a coverage-rejection shape).
        if (engine.constraints().size() <= 1) {
          break;
        }
        const std::size_t i = rng() % engine.constraints().size();
        engine.remove(engine.constraints()[i].actor);
        check("remove");
        break;
      }
    }
  }
  EXPECT_EQ(engine.stats().certificate_violations, 0u)
      << "class " << static_cast<int>(model_class) << ", seed " << seed
      << ": "
      << (engine.last_certificate_violation().has_value()
              ? describe(*engine.last_certificate_violation())
              : std::string());
}

TEST(IncrementalDifferential, ChainSweepMatchesFullRecompute) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_differential_sequence(models::ModelClass::Chain, seed);
  }
}

TEST(IncrementalDifferential, ForkJoinSweepMatchesFullRecompute) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_differential_sequence(models::ModelClass::ForkJoin, seed);
  }
}

TEST(IncrementalDifferential, CyclicSweepMatchesFullRecompute) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_differential_sequence(models::ModelClass::Cyclic, seed);
  }
}

TEST(IncrementalDifferential, MultiConstraintSweepMatchesFullRecompute) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_differential_sequence(models::ModelClass::MultiConstraint, seed);
  }
}

TEST(IncrementalDifferential, InteriorPinnedSweepMatchesFullRecompute) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_differential_sequence(models::ModelClass::InteriorPinned, seed);
  }
}

// ------------------------------------------------------- MP3 anchor

TEST(AdmissionControl, Mp3NumbersServedIncrementally) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const TopologySnapshot snapshot(app.graph);
  AdmissionController controller(snapshot, ConstraintSet{app.constraint});

  const auto expect_paper_numbers = [&]() {
    const GraphAnalysis& analysis = controller.analysis();
    ASSERT_TRUE(analysis.admissible);
    ASSERT_EQ(analysis.pairs.size(), 3u);
    EXPECT_EQ(analysis.pairs[0].capacity, 6015);
    EXPECT_EQ(analysis.pairs[1].capacity, 3263);
    EXPECT_EQ(analysis.pairs[2].capacity, 882);
  };
  expect_paper_numbers();

  // Retune the decoder to half its response time and back: both steps
  // ride the cached pacing, and the round trip restores the published
  // numbers exactly.
  const Duration original = app.graph.actor(app.mp3).response_time;
  const AdmissionDecision faster = controller.retune(
      app.mp3, Duration(original.seconds() * Rational(1, 2)));
  EXPECT_TRUE(faster.accepted);
  EXPECT_LE(faster.capacity_delta, 0);
  const AdmissionDecision back = controller.retune(app.mp3, original);
  EXPECT_TRUE(back.accepted);
  EXPECT_EQ(back.capacity_delta, -faster.capacity_delta);
  expect_paper_numbers();
  EXPECT_EQ(controller.engine().stats().pacing_recomputes, 1u);

  // Retuning the source touches exactly one ω and one pair on the chain.
  const AdmissionDecision br = controller.retune(
      app.br, Duration(app.graph.actor(app.br).response_time.seconds() *
                       Rational(1, 2)));
  EXPECT_TRUE(br.accepted);
  EXPECT_EQ(controller.engine().stats().last_cone_actors, 1u);
  EXPECT_EQ(controller.engine().stats().last_cone_pairs, 1u);

  const std::string summary = io::admission_summary(app.graph, controller);
  EXPECT_NE(summary.find("Admission-control service summary"),
            std::string::npos);
  EXPECT_NE(summary.find("pacing cache hits"), std::string::npos);
}

TEST(AdmissionControl, RejectionRollsBackStateAndNamesBindingConstraint) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const TopologySnapshot snapshot(app.graph);
  AdmissionController controller(snapshot, ConstraintSet{app.constraint});
  const GraphAnalysis before = controller.analysis();

  // ρ far beyond the decoder's pacing: rejected, state untouched.
  const AdmissionDecision retune =
      controller.retune(app.mp3, seconds(Rational(1000)));
  EXPECT_FALSE(retune.accepted);
  EXPECT_EQ(retune.capacity_delta, 0);
  EXPECT_FALSE(retune.binding_constraint.empty());
  EXPECT_NE(retune.binding_constraint.find("response time"),
            std::string::npos);
  expect_identical(controller.analysis(), before);

  // A period too fast for the block reader's response time: rejected.
  const AdmissionDecision period = controller.set_period(
      app.constraint.actor,
      Duration(app.constraint.period.seconds() * Rational(1, 1000)));
  EXPECT_FALSE(period.accepted);
  EXPECT_FALSE(period.diagnostics.empty());
  expect_identical(controller.analysis(), before);

  // A second constraint whose period is flow-inconsistent: rejected and
  // rolled back; a flow-consistent one at the actor's own φ: accepted at
  // zero capacity delta, then removable again.
  const GraphAnalysis& current = controller.analysis();
  Duration phi_src;
  for (std::size_t i = 0; i < current.actors_in_order.size(); ++i) {
    if (current.actors_in_order[i] == app.src) {
      phi_src = current.pacing[i];
    }
  }
  const AdmissionDecision bad = controller.admit(
      ThroughputConstraint{app.src, seconds(Rational(1, 7))});
  EXPECT_FALSE(bad.accepted);
  EXPECT_FALSE(bad.binding_constraint.empty());
  expect_identical(controller.analysis(), before);
  const AdmissionDecision good =
      controller.admit(ThroughputConstraint{app.src, phi_src});
  EXPECT_TRUE(good.accepted);
  // The pin itself may shift schedule anchoring (and thus a capacity), but
  // the reported delta must account exactly for it.
  EXPECT_EQ(good.total_capacity, before.total_capacity + good.capacity_delta);
  ASSERT_EQ(controller.streams().size(), 2u);
  const AdmissionDecision stop = controller.remove(app.src);
  EXPECT_TRUE(stop.accepted);
  expect_identical(controller.analysis(), before);
}

TEST(AdmissionControl, RefusesInadmissibleInitialStateAndLastRemoval) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const TopologySnapshot snapshot(app.graph);
  EXPECT_THROW(AdmissionController(
                   snapshot, ConstraintSet{ThroughputConstraint{
                                 app.dac, seconds(Rational(1, 1000000))}}),
               ContractError);
  AdmissionController controller(snapshot, ConstraintSet{app.constraint});
  EXPECT_THROW(controller.remove(app.dac), ContractError);
  EXPECT_THROW(controller.set_period(app.src, seconds(Rational(1))),
               ContractError);
  EXPECT_THROW(controller.admit(ThroughputConstraint{
                   app.dac, seconds(Rational(1, 100))}),
               ContractError);
}

// ------------------------------------------------- single-period rescale

/// The pair rates of `pacing`, recomputed from φ and the graph's rates:
/// s = φ(near)/q̂, s·(π̂ − 1) and s·(γ̂ − 1).
void expect_pair_rates(const VrdfGraph& graph, const PacingResult& pacing) {
  ASSERT_EQ(pacing.bound_rate.size(), pacing.buffers_in_order.size());
  ASSERT_EQ(pacing.producer_slack.size(), pacing.buffers_in_order.size());
  ASSERT_EQ(pacing.consumer_slack.size(), pacing.buffers_in_order.size());
  for (std::size_t pos = 0; pos < pacing.buffers_in_order.size(); ++pos) {
    const dataflow::Edge& data =
        graph.edge(pacing.buffers_in_order[pos].data);
    const bool sink = pacing.determined_by[pos] == ConstraintSide::Sink;
    const Duration s =
        pacing.pacing_of(sink ? data.target : data.source) /
        Rational(sink ? data.consumption.max() : data.production.max());
    EXPECT_EQ(pacing.bound_rate[pos], s) << "pair " << pos;
    EXPECT_EQ(pacing.producer_slack[pos],
              s * Rational(data.production.max() - 1))
        << "pair " << pos;
    EXPECT_EQ(pacing.consumer_slack[pos],
              s * Rational(data.consumption.max() - 1))
        << "pair " << pos;
  }
}

/// Moves the single constraint through four period factors on one engine;
/// after every move the rescaled analysis must equal a fresh full one, and
/// a pacing rescaled alongside must equal a fresh propagation, pair rates
/// included.
void expect_rescale_bit_identical(const TopologySnapshot& snapshot,
                                  const ThroughputConstraint& constraint) {
  const AnalysisOptions options;
  IncrementalAnalysis engine(snapshot, ConstraintSet{constraint}, options);
  PacingResult rescaled = compute_pacing(snapshot, {constraint});
  ASSERT_TRUE(rescaled.ok);
  expect_pair_rates(snapshot.graph(), rescaled);
  const Rational factors[] = {Rational(2), Rational(1, 2), Rational(3, 7),
                              Rational(441, 480)};
  for (const Rational& f : factors) {
    const Duration tau(constraint.period.seconds() * f);
    engine.set_period(constraint.actor, tau);
    const GraphAnalysis full = compute_buffer_capacities(
        snapshot, engine.constraints(), options, engine.overlay());
    expect_identical(engine.analysis(), full);

    rescale_pacing(rescaled, snapshot.graph(),
                   tau.seconds() / rescaled.constraints.front().period.seconds());
    const PacingResult fresh =
        compute_pacing(snapshot, {ThroughputConstraint{constraint.actor, tau}});
    EXPECT_EQ(rescaled.constraints.front().period, tau);
    EXPECT_EQ(rescaled.pacing, fresh.pacing);
    EXPECT_EQ(rescaled.pacing_by_actor, fresh.pacing_by_actor);
    EXPECT_EQ(rescaled.bound_rate, fresh.bound_rate);
    EXPECT_EQ(rescaled.producer_slack, fresh.producer_slack);
    EXPECT_EQ(rescaled.consumer_slack, fresh.consumer_slack);
    expect_pair_rates(snapshot.graph(), rescaled);
    EXPECT_EQ(engine.pacing().bound_rate, fresh.bound_rate);
  }
  // Every move rode the rescale path: the only propagation was at
  // construction.
  EXPECT_EQ(engine.stats().pacing_recomputes, 1u);
  EXPECT_EQ(engine.stats().pacing_cache_hits, 4u);
}

TEST(IncrementalAnalysis, SingleConstraintPeriodRescaleIsBitIdentical) {
  const models::Mp3Playback app = models::make_mp3_playback();
  expect_rescale_bit_identical(TopologySnapshot(app.graph), app.constraint);
  for (const models::ModelClass model_class :
       {models::ModelClass::ForkJoin, models::ModelClass::Cyclic,
        models::ModelClass::InteriorPinned}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(models::class_name(model_class)) + " seed " +
                   std::to_string(seed));
      models::RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      const models::SyntheticModel model = models::make_random_model(spec);
      ASSERT_EQ(model.constraints.size(), 1u);
      expect_rescale_bit_identical(TopologySnapshot(model.graph),
                                   model.constraints.front());
    }
  }
}

// ------------------------------------------------------ δ override paths

TEST(IncrementalAnalysis, DeltaOverrideContractAndSpaceInertness) {
  models::RandomModelSpec spec;
  spec.model_class = models::ModelClass::Cyclic;
  spec.seed = 3;
  models::SyntheticModel model = models::make_random_model(spec);
  const TopologySnapshot snapshot(model.graph);
  ASSERT_TRUE(snapshot.ok());
  const dataflow::VrdfGraph::BufferView& view = snapshot.view();
  ASSERT_FALSE(view.feedback_buffers.empty());
  const std::size_t fb = view.feedback_buffers.front();

  IncrementalAnalysis engine(snapshot, model.constraints);
  const GraphAnalysis before = engine.analysis();

  // Zeroing a feedback credit would re-classify the cycle: refused, and
  // the contract error names the edge.
  try {
    engine.set_initial_tokens(view.buffers[fb].data, 0);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("feedback classification"), std::string::npos);
    EXPECT_NE(
        what.find(
            model.graph.actor(model.graph.edge(view.buffers[fb].data).source)
                .name),
        std::string::npos);
  }

  // A space-edge override is inert for the sized analysis.
  engine.set_initial_tokens(view.buffers[fb].space, 123456);
  expect_identical(engine.analysis(), before);

  // Raising the feedback credit re-analyses just that pair.
  const std::int64_t credit =
      model.graph.edge(view.buffers[fb].data).initial_tokens + 2;
  engine.set_initial_tokens(view.buffers[fb].data, credit);
  EXPECT_EQ(engine.stats().last_cone_pairs, 1u);
  const GraphAnalysis full =
      compute_buffer_capacities(snapshot, engine.constraints(),
                                engine.options(), engine.overlay());
  expect_identical(engine.analysis(), full);
}

// ------------------------------------------------------- stale contracts

TEST(IncrementalAnalysis, StaleSnapshotThrowsNamingTheMutation) {
  models::RandomModelSpec spec;
  spec.model_class = models::ModelClass::Chain;
  spec.seed = 7;
  models::SyntheticModel model = models::make_random_model(spec);
  const TopologySnapshot snapshot(model.graph);
  IncrementalAnalysis engine(snapshot, model.constraints);
  (void)engine.analysis();

  const ActorId victim = model.constraints.front().actor;
  model.graph.set_response_time(victim, seconds(Rational(1, 1000000)));
  try {
    (void)engine.analysis();
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale"), std::string::npos);
    EXPECT_NE(what.find("set_response_time on actor"), std::string::npos);
    EXPECT_NE(what.find(model.graph.actor(victim).name), std::string::npos);
  }
  EXPECT_THROW(engine.retune(victim, seconds(Rational(1))), ContractError);
  EXPECT_THROW(engine.set_period(victim, seconds(Rational(1))),
               ContractError);

  // Edge mutations are named too, and captured snapshots refuse fresh
  // engines as well.
  const dataflow::EdgeId edge = snapshot.view().buffers.front().data;
  model.graph.set_initial_tokens(edge, 5);
  try {
    IncrementalAnalysis late(snapshot, model.constraints);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("set_initial_tokens on edge"),
              std::string::npos);
  }
}

// The mutation log renders its sentence on demand; the full diagnostic is
// pinned for each mutator kind.
TEST(IncrementalAnalysis, StaleSnapshotTextPinnedForEveryMutatorKind) {
  VrdfGraph graph;
  const ActorId src = graph.add_actor("src", seconds(Rational(1, 1000)));
  const ActorId dst = graph.add_actor("dst", seconds(Rational(1, 1000)));
  const dataflow::BufferEdges buffer = graph.add_buffer(
      src, dst, dataflow::RateSet::singleton(1),
      dataflow::RateSet::singleton(1));
  EXPECT_EQ(VrdfGraph().last_mutation(), "");

  const auto stale_text = [&](const auto& mutate) {
    const TopologySnapshot snapshot(graph);
    mutate();
    try {
      snapshot.require_fresh();
    } catch (const ContractError& e) {
      return std::string(e.what());
    }
    return std::string("(no ContractError)");
  };
  const auto expected = [](const std::string& mutation) {
    return "topology snapshot is stale: the underlying graph was mutated (" +
           mutation +
           ") after capture; re-capture the snapshot instead of querying "
           "memoized structure that no longer matches the graph";
  };

  EXPECT_EQ(stale_text([&] {
              (void)graph.add_actor("late", seconds(Rational(1, 1000)));
            }),
            expected("add_actor 'late'"));
  // add_buffer records its space edge last.
  EXPECT_EQ(stale_text([&] {
              (void)graph.add_buffer(dst, *graph.find_actor("late"),
                                     dataflow::RateSet::singleton(2),
                                     dataflow::RateSet::singleton(3));
            }),
            expected("add_edge late -> dst"));
  EXPECT_EQ(stale_text([&] { graph.set_initial_tokens(buffer.space, 7); }),
            expected("set_initial_tokens on edge dst -> src"));
  EXPECT_EQ(stale_text([&] {
              graph.set_response_time(dst, seconds(Rational(1, 500)));
            }),
            expected("set_response_time on actor 'dst'"));
  EXPECT_EQ(graph.last_mutation(), "set_response_time on actor 'dst'");
}

}  // namespace
}  // namespace vrdf::analysis
