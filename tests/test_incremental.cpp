// Incremental re-analysis engine and admission controller: randomized
// differential sweeps (every ModelClass × 40 seeds × random
// retune/set_period/admit/remove/δ-override and checkpoint-reject-roll-back
// sequences, asserting the incremental GraphAnalysis is field-for-field
// identical to a full recompute after every operation — including
// rejection shapes and diagnostics — and, in a second variant, that a
// rollback after every operation restores the prior state exactly),
// every single pin and unpin from a sized state against a full
// recompute, the partial re-size of a constraint change (a self-loop
// whose side change only the side compare catches included), the MP3 anchor
// {6015, 3263, 882} served through the controller, rollback-on-rejection
// and the stream order it keeps, the single-constraint period rescale
// path, δ-override contracts, the invalidation counters of every engine
// branch, the exact and recompute-free rollback of every rejection kind,
// and stale-snapshot contract errors naming the offending mutation.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
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
    EXPECT_EQ(g.tight_rounding, w.tight_rounding) << "pair " << i;
    EXPECT_EQ(g.is_feedback, w.is_feedback) << "pair " << i;
    EXPECT_EQ(g.initial_tokens, w.initial_tokens) << "pair " << i;
    EXPECT_EQ(g.required_initial_tokens, w.required_initial_tokens)
        << "pair " << i;
  }
}

/// The engine's analysis equals a full recompute over its own constraints
/// and overlay.
void expect_matches_full(const IncrementalAnalysis& engine) {
  expect_identical(engine.analysis(),
                   compute_buffer_capacities(engine.snapshot(),
                                             engine.constraints(),
                                             engine.options(),
                                             engine.overlay()));
}

/// An admissible analysis of the engine is certified: its certificate,
/// with ρ from the engine's overlay, passes the independent checker.  A
/// failure means the incremental patching assembled something the full
/// analysis would not produce.
void expect_certified(const IncrementalAnalysis& engine) {
  const GraphAnalysis& analysis = engine.analysis();
  if (!analysis.admissible) {
    return;
  }
  const dataflow::VrdfGraph& graph = engine.snapshot().graph();
  CheckerOptions options;
  options.bind_parameters_to_graph = false;
  const CertificateCheck check = check_certificate(
      graph, make_certificate(graph, analysis, engine.overlay()), options);
  EXPECT_TRUE(check.ok) << check.first_violation();
}

/// The engine state a rollback must bring back, captured at a checkpoint.
struct Held {
  GraphAnalysis analysis;
  PacingResult pacing;
  ConstraintSet constraints;
  ParameterOverlay overlay;
};

Held hold(const IncrementalAnalysis& engine) {
  return Held{engine.analysis(), engine.pacing(), engine.constraints(),
              engine.overlay()};
}

void expect_same_constraints(const ConstraintSet& got,
                             const ConstraintSet& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].actor, want[i].actor) << "constraint " << i;
    EXPECT_EQ(got[i].period, want[i].period) << "constraint " << i;
  }
}

/// `engine` holds `held` again, and the rollback that brought it back
/// added no propagation, lead pass or pair analysis to `applied`, the
/// counters before it.
void expect_rolled_back(const IncrementalAnalysis& engine, const Held& held,
                        const InvalidationStats& applied) {
  expect_identical(engine.analysis(), held.analysis);
  const PacingResult& pacing = engine.pacing();
  EXPECT_EQ(pacing.ok, held.pacing.ok);
  EXPECT_EQ(pacing.diagnostics, held.pacing.diagnostics);
  expect_same_constraints(pacing.constraints, held.pacing.constraints);
  EXPECT_EQ(pacing.pacing_by_actor, held.pacing.pacing_by_actor);
  EXPECT_EQ(pacing.determined_by, held.pacing.determined_by);
  EXPECT_EQ(pacing.sink_anchored, held.pacing.sink_anchored);
  EXPECT_EQ(pacing.bound_rate, held.pacing.bound_rate);
  EXPECT_EQ(pacing.producer_slack, held.pacing.producer_slack);
  EXPECT_EQ(pacing.consumer_slack, held.pacing.consumer_slack);
  expect_same_constraints(engine.constraints(), held.constraints);
  EXPECT_EQ(engine.overlay().response_time, held.overlay.response_time);
  const InvalidationStats& s = engine.stats();
  EXPECT_EQ(s.pacing_recomputes, applied.pacing_recomputes);
  EXPECT_EQ(s.leads_recomputed, applied.leads_recomputed);
  EXPECT_EQ(s.pairs_recomputed, applied.pairs_recomputed);
}

// ----------------------------------------------- randomized differential

/// What a differential sequence saw its engine do besides matching the
/// full recompute.
struct Served {
  /// Rejections rolled back from a sized state.
  std::size_t rollbacks = 0;
  /// Re-propagated constraint changes from a sized result to a sized
  /// result that re-analysed fewer pairs than a full re-size.
  std::size_t patched = 0;
};

/// With `rollback_every_op`, every operation first runs under a
/// checkpoint and is rolled back (the state must come back exactly), then
/// runs again for real.
Served run_differential_sequence(models::ModelClass model_class,
                                 std::uint64_t seed, bool rollback_every_op) {
  models::RandomModelSpec spec;
  spec.model_class = model_class;
  spec.seed = seed;
  models::SyntheticModel model = models::make_random_model(spec);
  const TopologySnapshot snapshot(model.graph);
  EXPECT_TRUE(snapshot.ok());
  if (!snapshot.ok()) {
    return {};
  }
  const AnalysisOptions options;
  IncrementalAnalysis engine(snapshot, model.constraints, options);
  std::mt19937_64 rng(seed * 977 + static_cast<std::uint64_t>(model_class));

  // The oracle: a full recompute over the same snapshot, constraint set
  // and overlay.  Mirroring through the engine's own constraint/overlay
  // accessors keeps the two paths in lockstep by construction.  Every
  // admissible post-op state is also certified.
  const auto check = [&](const char* op) {
    const GraphAnalysis full = compute_buffer_capacities(
        snapshot, engine.constraints(), options, engine.overlay());
    SCOPED_TRACE(std::string("after ") + op + ", class " +
                 std::to_string(static_cast<int>(model_class)) + ", seed " +
                 std::to_string(seed));
    expect_identical(engine.analysis(), full);
    expect_certified(engine);
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
  const auto unconstrained_actor = [&]() -> std::optional<ActorId> {
    for (std::size_t tries = 0; tries < n; ++tries) {
      const ActorId actor = random_actor();
      if (!constrained(actor)) {
        return actor;
      }
    }
    return std::nullopt;
  };
  Served served;
  // Runs one operation (a rolled-back trial run first in the rollback
  // variant) and counts a constraint change when it was patched.
  const auto op = [&](const char* name, const auto& apply) {
    if (rollback_every_op) {
      const Held held = hold(engine);
      engine.checkpoint();
      apply();
      check(name);
      const InvalidationStats applied = engine.stats();
      engine.rollback();
      SCOPED_TRACE(std::string("rolled back ") + name);
      expect_rolled_back(engine, held, applied);
    }
    const bool was_sized = !engine.analysis().leads.empty();
    const std::uint64_t recomputes = engine.stats().pacing_recomputes;
    apply();
    if (was_sized && !engine.analysis().leads.empty() &&
        engine.stats().pacing_recomputes == recomputes + 1 &&
        engine.stats().last_cone_pairs < view.buffers.size()) {
      ++served.patched;
    }
    check(name);
  };

  for (int step = 0; step < 12; ++step) {
    switch (rng() % 6) {
      case 0: {
        // Retune: mostly small ρ, occasionally huge to drive the
        // ρ-blocked shape (and its recovery on a later step).
        const bool blocking = rng() % 10 == 0;
        const std::int64_t num =
            1 + static_cast<std::int64_t>(rng() % (blocking ? 100000000 : 50));
        const ActorId actor = random_actor();
        op("retune",
           [&] { engine.retune(actor, Duration(Rational(num, 100000))); });
        break;
      }
      case 1: {
        const ActorId actor = random_actor();
        op("retune to the graph's rho", [&] {
          engine.retune(actor, model.graph.actor(actor).response_time);
        });
        break;
      }
      case 2: {
        // Period move on a random serviced constraint: scale by a random
        // rational factor (shrinking periods drive ρ rejections).
        const std::size_t i = rng() % engine.constraints().size();
        const ThroughputConstraint c = engine.constraints()[i];
        const Rational factor(static_cast<std::int64_t>(1 + rng() % 5),
                              static_cast<std::int64_t>(1 + rng() % 5));
        op("set_period", [&] {
          engine.set_period(c.actor, Duration(c.period.seconds() * factor));
        });
        break;
      }
      case 3: {
        // Admit: half the time at the actor's current φ (flow-consistent
        // — should be accepted), half at a random period (usually a
        // flow-consistency rejection shape).
        const std::optional<ActorId> free = unconstrained_actor();
        if (!free.has_value()) {
          break;
        }
        const ActorId actor = *free;
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
        op("admit", [&] { engine.admit(ThroughputConstraint{actor, period}); });
        break;
      }
      case 4: {
        // Reject and roll back, as an admission controller does: under one
        // checkpoint, retune past φ or admit at a conflicting period, and
        // half the time undo that by hand under a nested checkpoint that
        // commits or rolls back on its own.  The outer rollback must bring
        // the state back exactly, with nothing re-derived.
        const ActorId actor = random_actor();
        const bool retune_kind = rng() % 2 == 0;
        const bool second = rng() % 2 == 0;
        const bool second_commits = rng() % 2 == 0;
        const std::optional<ActorId> free = unconstrained_actor();
        if (!retune_kind && !free.has_value()) {
          break;
        }
        Duration period = Duration(Rational(1, 1000));
        if (!retune_kind) {
          const GraphAnalysis& current = engine.analysis();
          for (std::size_t i = 0; i < current.actors_in_order.size(); ++i) {
            if (current.actors_in_order[i] == *free) {
              period = current.pacing[i] * Rational(3, 2);
              break;
            }
          }
        }
        const bool was_sized = !engine.analysis().leads.empty();
        const Held held = hold(engine);
        engine.checkpoint();
        if (retune_kind) {
          engine.retune(actor, seconds(Rational(1000)));
          check("retune past phi");
        } else {
          engine.admit(ThroughputConstraint{*free, period});
          check("admit at a conflicting period");
        }
        if (second) {
          engine.checkpoint();
          if (retune_kind) {
            engine.retune(actor, model.graph.actor(actor).response_time);
          } else {
            engine.remove(*free);
          }
          check("undo by hand");
          if (second_commits) {
            engine.commit();
          } else {
            engine.rollback();
            check("inner rollback");
          }
        }
        const InvalidationStats applied = engine.stats();
        engine.rollback();
        SCOPED_TRACE("roll back the rejection");
        expect_rolled_back(engine, held, applied);
        check("roll back the rejection");
        if (was_sized) {
          ++served.rollbacks;
        }
        break;
      }
      default: {
        // Remove a random stream, keeping at least one (removal may
        // orphan a region — a coverage-rejection shape).
        if (engine.constraints().size() <= 1) {
          break;
        }
        const ActorId actor =
            engine.constraints()[rng() % engine.constraints().size()].actor;
        op("remove", [&] { engine.remove(actor); });
        break;
      }
    }
  }
  return served;
}

void run_differential_sweep(models::ModelClass model_class,
                            bool rollback_every_op = false) {
  Served total;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Served served =
        run_differential_sequence(model_class, seed, rollback_every_op);
    total.rollbacks += served.rollbacks;
    total.patched += served.patched;
  }
  EXPECT_GT(total.rollbacks, 0u)
      << "no rejection was rolled back from a sized state";
  EXPECT_GT(total.patched, 0u)
      << "no constraint change was served without a full re-size";
}

TEST(IncrementalDifferential, ChainSweepMatchesFullRecompute) {
  run_differential_sweep(models::ModelClass::Chain);
}

TEST(IncrementalDifferential, ForkJoinSweepMatchesFullRecompute) {
  run_differential_sweep(models::ModelClass::ForkJoin);
}

TEST(IncrementalDifferential, CyclicSweepMatchesFullRecompute) {
  run_differential_sweep(models::ModelClass::Cyclic);
}

TEST(IncrementalDifferential, MultiConstraintSweepMatchesFullRecompute) {
  run_differential_sweep(models::ModelClass::MultiConstraint);
}

TEST(IncrementalDifferential, InteriorPinnedSweepMatchesFullRecompute) {
  run_differential_sweep(models::ModelClass::InteriorPinned);
}

// The same sequences, each operation first tried under a checkpoint and
// rolled back: every query kind, from every result shape, must come back
// bit for bit without re-deriving anything.
TEST(IncrementalDifferential, RollbackAfterEveryOpRestoresTheState) {
  for (const models::ModelClass model_class :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
        models::ModelClass::InteriorPinned}) {
    SCOPED_TRACE(models::class_name(model_class));
    run_differential_sweep(model_class, /*rollback_every_op=*/true);
  }
}

// Constraint changes from sized states, exhaustively per model: every
// unconstrained actor is pinned at its own pacing and unpinned again,
// and every pin of the initial set is removed and admitted again (at the
// end of the set).  Each result must equal a full recompute; most of these
// changes keep the result sized, so they run the pacing diff.
TEST(IncrementalDifferential, EveryPinAndUnpinMatchesFullRecompute) {
  std::size_t patched = 0;
  for (const models::ModelClass model_class :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
        models::ModelClass::InteriorPinned}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      models::RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      const models::SyntheticModel model = models::make_random_model(spec);
      const TopologySnapshot snapshot(model.graph);
      ASSERT_TRUE(snapshot.ok());
      IncrementalAnalysis engine(snapshot, model.constraints);
      if (engine.analysis().leads.empty()) {
        continue;
      }
      const auto step = [&](const std::string& what, const auto& apply) {
        SCOPED_TRACE(std::string(models::class_name(model_class)) +
                     " seed " + std::to_string(seed) + ": " + what);
        const bool was_sized = !engine.analysis().leads.empty();
        const std::uint64_t pairs = engine.stats().pairs_recomputed;
        apply();
        expect_matches_full(engine);
        expect_certified(engine);
        if (was_sized && !engine.analysis().leads.empty() &&
            engine.stats().pairs_recomputed - pairs <
                engine.analysis().pairs.size()) {
          ++patched;
        }
      };
      for (const ActorId v : model.graph.actors()) {
        bool pinned = false;
        for (const ThroughputConstraint& c : engine.constraints()) {
          pinned = pinned || c.actor == v;
        }
        if (pinned || engine.analysis().leads.empty()) {
          continue;
        }
        const std::string name = model.graph.actor(v).name;
        const Duration phi = engine.pacing().pacing_of(v);
        step("pin " + name, [&] { engine.admit(ThroughputConstraint{v, phi}); });
        step("unpin " + name, [&] { engine.remove(v); });
      }
      for (const ThroughputConstraint& c : model.constraints) {
        if (engine.constraints().size() < 2) {
          break;
        }
        const std::string name = model.graph.actor(c.actor).name;
        step("remove " + name, [&] { engine.remove(c.actor); });
        step("re-admit " + name, [&] { engine.admit(c); });
        EXPECT_EQ(engine.constraints().back().actor, c.actor);
      }
    }
  }
  EXPECT_GT(patched, 0u);
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
  EXPECT_EQ(controller.streams().size(), 1u);

  // A query that throws after it began recording is rolled back: the
  // state is as it was, and no checkpoint stays open.
  const GraphAnalysis before = controller.analysis();
  EXPECT_THROW(controller.retune(app.mp3, Duration()), ContractError);
  EXPECT_THROW(controller.rollback(), ContractError);
  expect_identical(controller.analysis(), before);
  EXPECT_EQ(controller.engine().overlay().response_time_of(app.graph, app.mp3),
            app.graph.actor(app.mp3).response_time);
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

// ------------------------------------------------- invalidation counters

/// One model driven through every branch of the engine, with the
/// invalidation counters each branch must add.  `cone_actor` retuned to
/// `cone_rho` re-derives `cone_actors` leads and `cone_pairs` pairs;
/// `block_actor` is retuned past its pacing; `stream` is admitted at its
/// own pacing as a second constraint, and the pinned period is then
/// moved until the pacing fails and back.
/// Where both sides of a re-propagated constraint change are sized, the
/// engine patches instead of re-sizing: admitting `stream` re-derives
/// `admit_cone_actors` leads and `admit_cone_pairs` pairs, removing it
/// again `remove_cone_actors` and `remove_cone_pairs`, and re-stating the
/// pinned period moves nothing.
struct CounterScenario {
  const VrdfGraph* graph = nullptr;
  ThroughputConstraint constraint;
  ActorId cone_actor;
  Duration cone_rho;
  std::uint64_t cone_actors = 0;
  std::uint64_t cone_pairs = 0;
  ActorId block_actor;
  ActorId stream;
  /// Whether the model with `stream` pinned as well still paces; when
  /// not, admit fails the pacing and only remove recovers it.
  bool two_pins_pace = true;
  std::uint64_t admit_cone_actors = 0;
  std::uint64_t admit_cone_pairs = 0;
  std::uint64_t remove_cone_actors = 0;
  std::uint64_t remove_cone_pairs = 0;
};

/// Runs `scenario` on one engine.  After each step every
/// InvalidationStats field must equal a running expectation, except
/// that the last_cone_* pair is left out (`cone` false) where the result
/// is ρ-blocked or pacing-failed.  Every step's analysis must also equal
/// a full recompute and, when admissible, be certified.
void pin_counters(const CounterScenario& scenario) {
  const VrdfGraph& graph = *scenario.graph;
  const TopologySnapshot snapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  IncrementalAnalysis engine(snapshot, ConstraintSet{scenario.constraint});
  const std::uint64_t n = graph.actor_count();
  const std::uint64_t pairs = snapshot.view().buffers.size();

  InvalidationStats want;
  const auto expect = [&](const std::string& step, bool cone) {
    SCOPED_TRACE(step);
    const GraphAnalysis& got = engine.analysis();
    expect_identical(got, compute_buffer_capacities(
                              snapshot, engine.constraints(),
                              engine.options(), engine.overlay()));
    expect_certified(engine);
    const InvalidationStats& s = engine.stats();
    EXPECT_EQ(s.queries, want.queries);
    EXPECT_EQ(s.pacing_recomputes, want.pacing_recomputes);
    EXPECT_EQ(s.pacing_cache_hits, want.pacing_cache_hits);
    EXPECT_EQ(s.leads_recomputed, want.leads_recomputed);
    EXPECT_EQ(s.leads_reused, want.leads_reused);
    EXPECT_EQ(s.pairs_recomputed, want.pairs_recomputed);
    EXPECT_EQ(s.pairs_reused, want.pairs_reused);
    if (cone) {
      EXPECT_EQ(s.last_cone_actors, want.last_cone_actors);
      EXPECT_EQ(s.last_cone_pairs, want.last_cone_pairs);
    }
  };
  // The query tails every operation shares.
  const auto cache_hit = [&] {
    ++want.queries;
    ++want.pacing_cache_hits;
  };
  const auto full_size = [&] {
    want.leads_recomputed += n;
    want.pairs_recomputed += pairs;
    want.last_cone_actors = n;
    want.last_cone_pairs = pairs;
  };
  const auto repropagate = [&] {
    ++want.queries;
    ++want.pacing_recomputes;
  };
  // A sized-to-sized constraint change: the cone and the pairs it moved.
  const auto patch = [&](std::uint64_t actors, std::uint64_t moved) {
    want.leads_recomputed += actors;
    want.leads_reused += n - actors;
    want.pairs_recomputed += moved;
    want.pairs_reused += pairs - moved;
    want.last_cone_actors = actors;
    want.last_cone_pairs = moved;
  };

  ++want.pacing_recomputes;
  full_size();
  expect("construction", true);

  engine.retune(scenario.cone_actor, scenario.cone_rho);
  cache_hit();
  want.leads_recomputed += scenario.cone_actors;
  want.leads_reused += n - scenario.cone_actors;
  want.pairs_recomputed += scenario.cone_pairs;
  want.pairs_reused += pairs - scenario.cone_pairs;
  want.last_cone_actors = scenario.cone_actors;
  want.last_cone_pairs = scenario.cone_pairs;
  expect("cone retune", true);

  // Leaving a ρ-blocked result re-sizes in full.
  engine.retune(scenario.block_actor, seconds(Rational(1000)));
  cache_hit();
  ASSERT_FALSE(engine.analysis().admissible);
  ASSERT_TRUE(engine.analysis().leads.empty());
  expect("retune past phi", false);

  engine.retune(scenario.block_actor,
                graph.actor(scenario.block_actor).response_time);
  cache_hit();
  full_size();
  ASSERT_TRUE(engine.analysis().admissible);
  expect("retune recovers", true);

  const ActorId pinned = scenario.constraint.actor;
  const Duration relaxed(scenario.constraint.period.seconds() * Rational(2));
  engine.set_period(pinned, relaxed);
  cache_hit();
  full_size();
  expect("single-constraint set_period", true);

  Duration phi;
  const GraphAnalysis& current = engine.analysis();
  for (std::size_t i = 0; i < current.actors_in_order.size(); ++i) {
    if (current.actors_in_order[i] == scenario.stream) {
      phi = current.pacing[i];
    }
  }
  engine.admit(ThroughputConstraint{scenario.stream, phi});
  repropagate();
  if (scenario.two_pins_pace) {
    patch(scenario.admit_cone_actors, scenario.admit_cone_pairs);
    ASSERT_TRUE(engine.analysis().admissible);
    expect("admit", true);

    engine.set_period(pinned, relaxed);
    repropagate();
    patch(0, 0);
    expect("multi-constraint set_period, same period", true);
  } else {
    ASSERT_TRUE(engine.analysis().actors_in_order.empty());
    expect("admit fails pacing", false);
  }

  engine.set_period(pinned, Duration(relaxed.seconds() * Rational(3)));
  repropagate();
  ASSERT_TRUE(engine.analysis().actors_in_order.empty());
  expect("set_period fails pacing", false);

  engine.retune(scenario.cone_actor, scenario.cone_rho);
  cache_hit();
  expect("retune, pacing failed", false);

  engine.set_period(pinned, relaxed);
  repropagate();
  if (scenario.two_pins_pace) {
    full_size();
    expect("set_period recovers pacing", true);
  } else {
    expect("set_period, pacing still failed", false);
  }

  engine.remove(scenario.stream);
  repropagate();
  if (scenario.two_pins_pace) {
    patch(scenario.remove_cone_actors, scenario.remove_cone_pairs);
  } else {
    full_size();
  }
  ASSERT_TRUE(engine.analysis().admissible);
  expect("remove", true);
}

TEST(IncrementalAnalysis, CountersPinnedThroughEveryBranchOnMp3) {
  const models::Mp3Playback app = models::make_mp3_playback();
  CounterScenario scenario;
  scenario.graph = &app.graph;
  scenario.constraint = app.constraint;
  // On the chain the block reader's ω is a pass-A leaf: one lead, and
  // its one pair.
  scenario.cone_actor = app.br;
  scenario.cone_rho =
      Duration(app.graph.actor(app.br).response_time.seconds() *
               Rational(1, 2));
  scenario.cone_actors = 1;
  scenario.cone_pairs = 1;
  scenario.block_actor = app.mp3;
  // Pinning the sample-rate converter at its own pacing moves no φ: it
  // becomes an anchor (ω = 0), so its two producers' ω shift by a constant
  // and are re-derived, and only its two pairs re-analyse — the input one
  // now rounds tightly, the output one sees a new alignment gap.
  // Unpinning it re-derives its own ω as well.
  scenario.stream = app.src;
  scenario.admit_cone_actors = 2;
  scenario.admit_cone_pairs = 2;
  scenario.remove_cone_actors = 3;
  scenario.remove_cone_pairs = 2;
  pin_counters(scenario);
}

TEST(IncrementalAnalysis, CountersPinnedThroughEveryBranchOnFeedbackLoop) {
  const models::FeedbackPipeline app = models::make_feedback_pipeline();
  CounterScenario scenario;
  scenario.graph = &app.graph;
  scenario.constraint = app.constraint;
  scenario.cone_actor = app.rctl;
  scenario.cone_rho =
      Duration(app.graph.actor(app.rctl).response_time.seconds() *
               Rational(1, 2));
  // rctl's ω is recomputed alone; both pairs it touches re-size.
  scenario.cone_actors = 1;
  scenario.cone_pairs = 2;
  scenario.block_actor = app.dec;
  // The variable dec -> present rates make any second pin fail the
  // multi-constraint pacing.
  scenario.stream = app.src;
  scenario.two_pins_pace = false;
  pin_counters(scenario);
}

// The last_cone_* pair describes the most recent query even when it
// leaves, enters or stays in a state without leads.
TEST(IncrementalAnalysis, LastConeDescribesTheMostRecentQuery) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const TopologySnapshot snapshot(app.graph);
  IncrementalAnalysis engine(snapshot, ConstraintSet{app.constraint});
  const InvalidationStats& stats = engine.stats();
  const auto expect_cone = [&](std::uint64_t actors, std::uint64_t pairs) {
    EXPECT_EQ(stats.last_cone_actors, actors);
    EXPECT_EQ(stats.last_cone_pairs, pairs);
  };

  engine.retune(app.br, Duration(app.graph.actor(app.br).response_time
                                     .seconds() *
                                 Rational(1, 2)));
  expect_cone(1, 1);

  engine.retune(app.mp3, seconds(Rational(1000)));
  ASSERT_FALSE(engine.analysis().admissible);
  expect_cone(0, 0);

  const std::uint64_t leads_before = stats.leads_recomputed;
  engine.retune(app.mp3, app.graph.actor(app.mp3).response_time);
  ASSERT_TRUE(engine.analysis().admissible);
  expect_cone(4, 3);
  EXPECT_EQ(stats.leads_recomputed - leads_before, 4u);

  // A flow-inconsistent second stream fails the pacing.
  engine.admit(ThroughputConstraint{app.src, seconds(Rational(1, 7))});
  ASSERT_TRUE(engine.analysis().actors_in_order.empty());
  expect_cone(0, 0);

  engine.retune(app.br, app.graph.actor(app.br).response_time);
  expect_cone(0, 0);

  engine.remove(app.src);
  ASSERT_TRUE(engine.analysis().admissible);
  expect_cone(4, 3);
}

// -------------------------------------------------- starving back-edges

/// The pair of `analysis` on `buffer`.
const PairAnalysis& pair_on(const GraphAnalysis& analysis,
                            const dataflow::BufferEdges& buffer) {
  for (const PairAnalysis& pair : analysis.pairs) {
    if (pair.buffer.data == buffer.data) {
      return pair;
    }
  }
  throw ContractError("no pair on the buffer");
}

// A cone retune raises a back-edge's requirement past its δ and a
// retune to the graph's ρ lowers it again: the diagnostic appears and vanishes on
// the patch path, never through a full re-size.
TEST(IncrementalAnalysis, RetuneStarvesAndReleasesABackEdge) {
  models::FeedbackPipeline app = models::make_feedback_pipeline();
  // A relaxed period leaves dec room below its pacing; a δ at exactly
  // the relaxed requirement leaves the loop no slack.
  const ThroughputConstraint relaxed{
      app.present,
      Duration(app.constraint.period.seconds() * Rational(2))};
  const std::int64_t required =
      pair_on(compute_buffer_capacities(app.graph, {relaxed}), app.dec_rctl)
          .required_initial_tokens;
  app.graph.set_initial_tokens(app.dec_rctl.data, required);
  const TopologySnapshot snapshot(app.graph);
  IncrementalAnalysis engine(snapshot, ConstraintSet{relaxed});
  ASSERT_TRUE(engine.analysis().admissible);
  expect_matches_full(engine);
  expect_certified(engine);

  const std::size_t actors = app.graph.actor_count();
  engine.retune(app.dec, Duration(app.graph.actor(app.dec).response_time
                                      .seconds() *
                                  Rational(2)));
  EXPECT_LT(engine.stats().last_cone_actors, actors);
  EXPECT_FALSE(engine.analysis().admissible);
  EXPECT_GT(pair_on(engine.analysis(), app.dec_rctl).required_initial_tokens,
            required);
  ASSERT_EQ(engine.analysis().diagnostics.size(), 1u);
  EXPECT_NE(engine.analysis().diagnostics.front().find(
                "cycle through back-edge dec -> rctl"),
            std::string::npos);
  expect_matches_full(engine);

  engine.retune(app.dec, app.graph.actor(app.dec).response_time);
  EXPECT_LT(engine.stats().last_cone_actors, actors);
  EXPECT_TRUE(engine.analysis().admissible);
  EXPECT_TRUE(engine.analysis().diagnostics.empty());
  expect_matches_full(engine);
  expect_certified(engine);
}

// Two credit loops share src -> dec: dec -> rctl -> src and
// dec -> mon -> src, each closed by a back-edge with one token.  With
// both back-edges starving, a retune of rctl moves only the first one's
// requirement: its diagnostic changes in place, ahead of the second
// one's, which stays as it was.
TEST(IncrementalAnalysis, OneOfTwoStarvingBackEdgesMoves) {
  using dataflow::RateSet;
  VrdfGraph graph;
  // Gears src 4 / dec 2 / rctl 2 / mon 1 / present 1 at a 40 ms period
  // pace each actor at g·40 ms; every actor runs well inside its pacing.
  const auto ms = [](std::int64_t v) { return milliseconds(Rational(v)); };
  const ActorId src = graph.add_actor("src", ms(80));
  const ActorId dec = graph.add_actor("dec", ms(40));
  const ActorId present = graph.add_actor("present", ms(20));
  const ActorId rctl = graph.add_actor("rctl", ms(20));
  const ActorId mon = graph.add_actor("mon", ms(20));
  (void)graph.add_buffer(src, dec, RateSet::singleton(4),
                         RateSet::singleton(2));
  (void)graph.add_buffer(dec, present, RateSet::singleton(2),
                         RateSet::of({0, 1}));
  const dataflow::BufferEdges dec_rctl =
      graph.add_buffer(dec, rctl, RateSet::singleton(2),
                       RateSet::singleton(2), /*capacity=*/0,
                       /*initial_tokens=*/1);
  (void)graph.add_buffer(rctl, src, RateSet::singleton(2),
                         RateSet::singleton(4));
  const dataflow::BufferEdges dec_mon =
      graph.add_buffer(dec, mon, RateSet::singleton(2), RateSet::singleton(1),
                       /*capacity=*/0, /*initial_tokens=*/1);
  (void)graph.add_buffer(mon, src, RateSet::singleton(1),
                         RateSet::singleton(4));
  const TopologySnapshot snapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot.view().feedback_buffers.size(), 2u);

  IncrementalAnalysis engine(
      snapshot, ConstraintSet{ThroughputConstraint{present, ms(40)}});
  ASSERT_EQ(engine.analysis().diagnostics.size(), 2u);
  expect_matches_full(engine);
  const std::string mon_diagnostic = engine.analysis().diagnostics[1];
  EXPECT_NE(mon_diagnostic.find("back-edge dec -> mon"), std::string::npos);
  const std::int64_t rctl_required =
      pair_on(engine.analysis(), dec_rctl).required_initial_tokens;
  const std::int64_t mon_required =
      pair_on(engine.analysis(), dec_mon).required_initial_tokens;

  engine.retune(rctl, ms(80));
  EXPECT_EQ(engine.stats().last_cone_actors, 1u);
  EXPECT_NE(pair_on(engine.analysis(), dec_rctl).required_initial_tokens,
            rctl_required);
  EXPECT_EQ(pair_on(engine.analysis(), dec_mon).required_initial_tokens,
            mon_required);
  ASSERT_EQ(engine.analysis().diagnostics.size(), 2u);
  EXPECT_NE(engine.analysis().diagnostics[0].find("back-edge dec -> rctl"),
            std::string::npos);
  EXPECT_EQ(engine.analysis().diagnostics[1], mon_diagnostic);
  expect_matches_full(engine);
}

// ------------------------------------------------------ constraint diff

// A gear chain: a data-dependent first buffer, then alternating 1:2 and
// 2:1 gears (every buffer after the first is static), the admission
// workload's shape in small.
VrdfGraph make_gear_chain(std::size_t actor_count) {
  using dataflow::RateSet;
  VrdfGraph graph;
  std::vector<ActorId> actors;
  for (std::size_t i = 0; i < actor_count; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    actors.push_back(graph.add_actor(name, milliseconds(Rational(1))));
  }
  (void)graph.add_buffer(actors[0], actors[1], RateSet::singleton(2),
                         RateSet::interval(1, 2));
  for (std::size_t i = 1; i + 1 < actor_count; ++i) {
    const std::int64_t gear = 1 + static_cast<std::int64_t>(i % 2);
    (void)graph.add_buffer(actors[i], actors[i + 1], RateSet::singleton(gear),
                           RateSet::singleton(3 - gear));
  }
  return graph;
}

// The gear chain pinned at its sink.  Pinning an interior actor at its
// own pacing moves no φ: the pin becomes an anchor and its upstream ω
// all shift by one constant, which no pair reads.  Admitting it and
// removing it again each propagate once and re-analyse at most the pin's
// two pairs, and each result equals a full recompute.
TEST(IncrementalAnalysis, InteriorStreamAtItsOwnPacingPatchesItsTwoPairs) {
  constexpr std::size_t kActors = 12;
  const VrdfGraph graph = make_gear_chain(kActors);
  const std::vector<ActorId> actors(graph.actors().begin(),
                                    graph.actors().end());
  const TopologySnapshot snapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  IncrementalAnalysis engine(
      snapshot, ConstraintSet{ThroughputConstraint{
                    actors.back(), milliseconds(Rational(40))}});
  ASSERT_TRUE(engine.analysis().admissible);

  const ActorId pin = actors[kActors / 2];
  const Duration phi = engine.pacing().pacing_of(pin);
  const auto expect_patched = [&](const char* step, const auto& apply) {
    SCOPED_TRACE(step);
    const InvalidationStats before = engine.stats();
    apply();
    const InvalidationStats& after = engine.stats();
    ASSERT_TRUE(engine.analysis().admissible);
    EXPECT_EQ(after.pacing_recomputes, before.pacing_recomputes + 1);
    EXPECT_LE(after.pairs_recomputed - before.pairs_recomputed, 2u);
    EXPECT_EQ(after.last_cone_pairs,
              after.pairs_recomputed - before.pairs_recomputed);
    EXPECT_LT(after.last_cone_actors, kActors);
    EXPECT_EQ(engine.pacing().pacing_of(pin), phi);
    expect_matches_full(engine);
    expect_certified(engine);
  };
  expect_patched("admit", [&] {
    engine.admit(ThroughputConstraint{pin, phi});
  });
  EXPECT_EQ(engine.analysis().leads[kActors / 2], Duration());
  expect_patched("remove", [&] { engine.remove(pin); });
  expect_certified(engine);
}

// The gear chain pinned at its sink and at an interior actor at its own
// pacing.  Removing the sink pin turns the static suffix behind the
// interior pin from a sink-anchored region into a source-kind one: sides
// and regions move, but no φ does, since every suffix buffer is static
// and fixes the same φ ratio under either side.  The change is patched
// on the held result, not re-sized, and equals a full recompute.
TEST(IncrementalAnalysis, RemovingTheSinkPinBehindAnInteriorPinIsPatched) {
  constexpr std::size_t kActors = 12;
  const VrdfGraph graph = make_gear_chain(kActors);
  const std::vector<ActorId> actors(graph.actors().begin(),
                                    graph.actors().end());
  const TopologySnapshot snapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  IncrementalAnalysis engine(
      snapshot, ConstraintSet{ThroughputConstraint{
                    actors.back(), milliseconds(Rational(40))}});
  const ActorId pin = actors[kActors * 2 / 3];
  engine.admit(ThroughputConstraint{pin, engine.pacing().pacing_of(pin)});
  ASSERT_TRUE(engine.analysis().admissible);
  const std::vector<Duration> phi = engine.pacing().pacing_by_actor;
  const std::vector<bool> sink_anchored = engine.pacing().sink_anchored;
  const std::vector<ConstraintSide> sides = engine.pacing().determined_by;

  const InvalidationStats before = engine.stats();
  engine.remove(actors.back());
  const InvalidationStats& after = engine.stats();
  ASSERT_TRUE(engine.analysis().admissible);
  EXPECT_EQ(engine.pacing().pacing_by_actor, phi);
  EXPECT_NE(engine.pacing().sink_anchored, sink_anchored);
  EXPECT_NE(engine.pacing().determined_by, sides);
  EXPECT_EQ(after.pacing_recomputes, before.pacing_recomputes + 1);
  EXPECT_LT(after.leads_recomputed - before.leads_recomputed, kActors);
  EXPECT_LT(after.pairs_recomputed - before.pairs_recomputed, kActors - 1);
  expect_matches_full(engine);
  expect_certified(engine);
}

// The same change with a tokened self-loop on an actor behind the
// interior pin.  The self-loop is a back-edge whose side is its actor's
// region, so it changes side with the suffix, yet its two endpoints are
// one actor: their ω shifts are equal by construction, it touches no
// anchor, and only the side compare in the patch re-analyses it.  On a
// skeleton pair a side change always shifts its endpoints apart: the
// pair turns its pass-A lead ω(p) − ω(c) ≥ ρ(p) into a pass-B lag
// ω(c) − ω(p) ≥ ρ(p), or moves an anchor's ω off 0, and every ρ is
// positive.
TEST(IncrementalAnalysis, SelfLoopChangingSideWithItsRegionIsPatched) {
  constexpr std::size_t kActors = 12;
  VrdfGraph graph = make_gear_chain(kActors);
  const std::vector<ActorId> actors(graph.actors().begin(),
                                    graph.actors().end());
  const ActorId looped = actors[kActors - 2];
  (void)graph.add_buffer(looped, looped, dataflow::RateSet::singleton(1),
                         dataflow::RateSet::singleton(1), 0, 1);
  const TopologySnapshot snapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  IncrementalAnalysis engine(
      snapshot, ConstraintSet{ThroughputConstraint{
                    actors.back(), milliseconds(Rational(40))}});
  const ActorId pin = actors[kActors * 2 / 3];
  engine.admit(ThroughputConstraint{pin, engine.pacing().pacing_of(pin)});
  ASSERT_TRUE(engine.analysis().admissible);
  const auto self_loop = [&]() -> const PairAnalysis& {
    for (const PairAnalysis& pair : engine.analysis().pairs) {
      if (pair.producer == looped && pair.consumer == looped) {
        return pair;
      }
    }
    throw ContractError("no self-loop pair");
  };
  ASSERT_TRUE(self_loop().is_feedback);
  EXPECT_EQ(self_loop().determined_by, ConstraintSide::Sink);
  const std::vector<Duration> phi = engine.pacing().pacing_by_actor;
  const std::vector<Duration> leads = engine.analysis().leads;

  const InvalidationStats before = engine.stats();
  engine.remove(actors.back());
  ASSERT_TRUE(engine.analysis().admissible);
  EXPECT_EQ(engine.pacing().pacing_by_actor, phi);
  EXPECT_EQ(engine.stats().pacing_recomputes, before.pacing_recomputes + 1);
  EXPECT_LT(engine.stats().pairs_recomputed - before.pairs_recomputed,
            engine.analysis().pairs.size());
  EXPECT_EQ(self_loop().determined_by, ConstraintSide::Source);
  EXPECT_NE(engine.analysis().leads[looped.index()], leads[looped.index()]);
  expect_matches_full(engine);
}

// Two sinks fed from one root (root -> a1 -> a2, root -> b1 -> b2), each
// pinned.  Removing the a2 stream leaves a1 and a2 unpaced, so the
// controller rejects it and rolls it back: the order stays "a2 b2", and
// the rollback adds no propagation to the candidate's one.
TEST(AdmissionControl, RejectedRemovalKeepsTheStreamOrder) {
  using dataflow::RateSet;
  const auto ms = [](std::int64_t v) { return milliseconds(Rational(v)); };
  VrdfGraph graph;
  const ActorId root = graph.add_actor("root", ms(1));
  const ActorId a1 = graph.add_actor("a1", ms(1));
  const ActorId a2 = graph.add_actor("a2", ms(1));
  const ActorId b1 = graph.add_actor("b1", ms(1));
  const ActorId b2 = graph.add_actor("b2", ms(1));
  for (const auto& [from, to] : {std::pair(root, a1), std::pair(a1, a2),
                                 std::pair(root, b1), std::pair(b1, b2)}) {
    (void)graph.add_buffer(from, to, RateSet::singleton(1),
                           RateSet::singleton(1));
  }
  const TopologySnapshot snapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  AdmissionController controller(
      snapshot, ConstraintSet{ThroughputConstraint{a2, ms(10)},
                              ThroughputConstraint{b2, ms(10)}});
  const GraphAnalysis before = controller.analysis();
  const std::uint64_t recomputes =
      controller.engine().stats().pacing_recomputes;

  const AdmissionDecision stop = controller.remove(a2);
  EXPECT_FALSE(stop.accepted);
  ASSERT_EQ(controller.streams().size(), 2u);
  EXPECT_EQ(controller.streams()[0].actor, a2);
  EXPECT_EQ(controller.streams()[1].actor, b2);
  expect_identical(controller.analysis(), before);
  expect_matches_full(controller.engine());
  EXPECT_EQ(controller.engine().stats().pacing_recomputes, recomputes + 1);
}

// ---------------------------------------------- checkpoint and rollback

/// Runs `query` on `engine` under a checkpoint and rolls it back: the
/// state held before `query` comes back exactly and equals a full
/// recompute, and the rollback re-derives nothing.
template <typename Query>
void expect_rollback_exact(IncrementalAnalysis& engine, Query query) {
  const Held held = hold(engine);
  engine.checkpoint();
  query();
  expect_certified(engine);
  const InvalidationStats applied = engine.stats();
  engine.rollback();
  expect_rolled_back(engine, held, applied);
  expect_matches_full(engine);
  expect_certified(engine);
}

TEST(IncrementalAnalysis, RollbackIsExactForEveryRejectionKind) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const TopologySnapshot snapshot(app.graph);
  IncrementalAnalysis engine(snapshot, ConstraintSet{app.constraint});
  EXPECT_THROW(engine.rollback(), ContractError);
  EXPECT_THROW(engine.commit(), ContractError);
  const ActorId pinned = app.constraint.actor;
  const Duration tau = app.constraint.period;
  const Duration original = app.graph.actor(app.mp3).response_time;
  const Duration faster(original.seconds() * Rational(1, 2));
  const auto blocked = [&] {
    ASSERT_TRUE(engine.analysis().leads.empty());
  };

  {
    SCOPED_TRACE("retune past phi");
    expect_rollback_exact(engine, [&] {
      engine.retune(app.mp3, seconds(Rational(1000)));
      blocked();
    });
  }
  {
    SCOPED_TRACE("retune past phi from a retuned rho");
    engine.retune(app.mp3, faster);
    expect_rollback_exact(engine, [&] {
      engine.retune(app.mp3, seconds(Rational(1000)));
      blocked();
    });
    EXPECT_EQ(engine.overlay().response_time_of(app.graph, app.mp3), faster);
  }
  {
    SCOPED_TRACE("single-constraint set_period below the rho floor");
    expect_rollback_exact(engine, [&] {
      engine.set_period(pinned, Duration(tau.seconds() * Rational(1, 1000)));
      blocked();
    });
  }
  {
    SCOPED_TRACE("admit that fails the pacing");
    expect_rollback_exact(engine, [&] {
      engine.admit(ThroughputConstraint{app.src, seconds(Rational(1, 7))});
      ASSERT_TRUE(engine.analysis().actors_in_order.empty());
    });
  }
  const Duration phi_src = engine.pacing().pacing_of(app.src);
  {
    SCOPED_TRACE("patched sized-to-sized admit");
    expect_rollback_exact(engine, [&] {
      engine.admit(ThroughputConstraint{app.src, phi_src});
      ASSERT_TRUE(engine.analysis().admissible);
      EXPECT_LT(engine.stats().last_cone_pairs, engine.analysis().pairs.size());
    });
    EXPECT_EQ(engine.constraints().size(), 1u);
  }
  {
    SCOPED_TRACE("multi-constraint set_period that is not flow-consistent");
    engine.admit(ThroughputConstraint{app.src, phi_src});
    ASSERT_TRUE(engine.analysis().admissible);
    ASSERT_EQ(engine.constraints().size(), 2u);
    expect_rollback_exact(engine, [&] {
      engine.set_period(pinned, Duration(tau.seconds() * Rational(3)));
      ASSERT_TRUE(engine.analysis().actors_in_order.empty());
    });
  }
  {
    // A sized but inadmissible candidate: with the loop's δ at exactly
    // its requirement, a slower dec starves the back-edge.  The decision
    // costs the candidate's cone retune and nothing more.
    SCOPED_TRACE("retune that starves a back-edge, through the controller");
    const models::FeedbackPipeline loop = models::make_feedback_pipeline();
    const ThroughputConstraint relaxed{
        loop.present, Duration(loop.constraint.period.seconds() * Rational(2))};
    VrdfGraph graph = loop.graph;
    graph.set_initial_tokens(
        loop.dec_rctl.data,
        pair_on(compute_buffer_capacities(graph, ConstraintSet{relaxed}),
                loop.dec_rctl)
            .required_initial_tokens);
    const TopologySnapshot loop_snapshot(graph);
    AdmissionController controller(loop_snapshot, ConstraintSet{relaxed});
    const GraphAnalysis before = controller.analysis();
    const InvalidationStats counted = controller.engine().stats();
    const AdmissionDecision slower = controller.retune(
        loop.dec, Duration(graph.actor(loop.dec).response_time.seconds() *
                           Rational(2)));
    EXPECT_FALSE(slower.accepted);
    EXPECT_NE(slower.binding_constraint.find(
                  "cycle through back-edge dec -> rctl"),
              std::string::npos);
    const InvalidationStats& s = controller.engine().stats();
    EXPECT_EQ(s.pacing_recomputes, counted.pacing_recomputes);
    EXPECT_GT(s.last_cone_pairs, 0u);
    EXPECT_EQ(s.leads_recomputed - counted.leads_recomputed,
              s.last_cone_actors);
    EXPECT_EQ(s.pairs_recomputed - counted.pairs_recomputed,
              s.last_cone_pairs);
    expect_identical(controller.analysis(), before);
    expect_matches_full(controller.engine());
    expect_certified(controller.engine());
  }
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
  (void)model.graph.add_actor("late", seconds(Rational(1, 1000000)));
  try {
    (void)engine.analysis();
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale"), std::string::npos);
    EXPECT_NE(what.find("add_actor 'late'"), std::string::npos);
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
  EXPECT_EQ(graph.last_mutation(), "set_initial_tokens on edge dst -> src");
}

}  // namespace
}  // namespace vrdf::analysis
