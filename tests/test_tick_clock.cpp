// Tick-clock tests: TimeScale arithmetic, clock selection, the Rational
// fallback, the configure-then-run contract, and the bit-for-bit equivalence of the tick and exact-Rational
// simulation paths on random chains and the MP3 model.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/buffer_sizing.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/time_scale.hpp"

namespace vrdf::sim {
namespace {

using dataflow::ActorId;
using dataflow::BufferEdges;
using dataflow::EdgeId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

const Duration kMs = milliseconds(Rational(1));

// ---------------------------------------------------------------- TimeScale

TEST(TimeScale, BuilderTakesDenominatorLcm) {
  TimeScale::Builder builder;
  builder.fold(Rational(1, 6));
  builder.fold(Rational(3, 4));
  builder.fold(Rational(5));
  const auto scale = builder.build();
  ASSERT_TRUE(scale.has_value());
  EXPECT_EQ(scale->ticks_per_second(), 12);
}

TEST(TimeScale, ConversionsAreExact) {
  TimeScale::Builder builder;
  builder.fold(Rational(1, 44100));
  builder.fold(Rational(3, 125));
  const auto scale = builder.build();
  ASSERT_TRUE(scale.has_value());
  const Rational r(7, 125);
  ASSERT_TRUE(scale->representable(r));
  EXPECT_EQ(scale->to_rational(scale->to_ticks(r)), r);
  EXPECT_FALSE(scale->representable(Rational(1, 7919)));
}

TEST(TimeScale, BuilderOverflowsToNullopt) {
  TimeScale::Builder builder;
  builder.fold(Rational(1, TimeScale::kMaxTicksPerSecond));
  EXPECT_TRUE(builder.build().has_value());
  builder.fold(Rational(1, TimeScale::kMaxTicksPerSecond - 1));  // coprime
  EXPECT_FALSE(builder.valid());
  EXPECT_FALSE(builder.build().has_value());
}

// --------------------------------------------------------- clock selection

TEST(TickClock, SimpleModelRunsOnTicks) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs * Rational(2));
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  Simulator sim(g);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{b, 10};
  const RunResult result = sim.run(stop);
  EXPECT_EQ(result.reason, StopReason::ReachedFiringTarget);
  EXPECT_TRUE(sim.using_tick_clock());
  // Denominators: 1000 (1 ms) and 500 (2 ms) -> 1000 ticks/s.
  EXPECT_EQ(sim.tick_resolution(), std::optional<std::int64_t>(1000));
}

TEST(TickClock, LcmOverflowFallsBackToRational) {
  // Coprime denominators whose LCM (= 2^42 - 2^21) exceeds the 2^40 scale
  // cap while staying comfortably inside int64 for the Rational path.
  VrdfGraph g;
  const ActorId a = g.add_actor("a", seconds(Rational(1, std::int64_t{1} << 21)));
  const ActorId b =
      g.add_actor("b", seconds(Rational(1, (std::int64_t{1} << 21) - 1)));
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{b, 3};

  Simulator sim(g);
  sim.set_default_sources(1);
  const RunResult result = sim.run(stop);
  EXPECT_EQ(result.reason, StopReason::ReachedFiringTarget);
  EXPECT_FALSE(sim.using_tick_clock());
}

TEST(TickClock, UnrepresentableLaterHorizonIsAContractError) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  StopCondition first;
  first.firing_target = StopCondition::FiringTarget{b, 5};
  // 1/7919 s is not a whole number of ticks at 1000 ticks/s.
  StopCondition second;
  second.until_time = TimePoint(Rational(100, 7919));

  Simulator sim(g);
  sim.set_default_sources(1);
  (void)sim.run(first);
  ASSERT_TRUE(sim.using_tick_clock());
  try {
    (void)sim.run(second);
    ADD_FAILURE() << "expected ContractError";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("100/7919"), std::string::npos) << what;
    EXPECT_NE(what.find("1000 ticks per second"), std::string::npos) << what;
    EXPECT_NE(what.find("first run"), std::string::npos) << what;
    EXPECT_NE(what.find("ForceExactRational"), std::string::npos) << what;
  }
  EXPECT_TRUE(sim.using_tick_clock());

  // Both remedies reach the horizon exactly.
  Simulator exact(g);
  exact.set_clock_mode(ClockMode::ForceExactRational);
  exact.set_default_sources(1);
  (void)exact.run(first);
  EXPECT_EQ(exact.run(second).reason, StopReason::ReachedTimeLimit);
  EXPECT_EQ(exact.now().seconds(), Rational(100, 7919));

  Simulator folded(g);
  folded.set_default_sources(1);
  EXPECT_EQ(folded.run(second).reason, StopReason::ReachedTimeLimit);
  EXPECT_TRUE(folded.using_tick_clock());
  EXPECT_EQ(folded.now().seconds(), Rational(100, 7919));
}

TEST(TickClock, OversizedConstantAtFineScaleFallsBackToRational) {
  // The denominator LCM (2^40) is in range, but the disconnected slow
  // actor's 2^25 s response time converts to 2^65 ticks: Auto must pick
  // the Rational path (whose times here keep small numerators), not throw
  // OverflowError at engine construction.
  VrdfGraph g;
  const ActorId a =
      g.add_actor("a", seconds(Rational(1, TimeScale::kMaxTicksPerSecond)));
  const ActorId b =
      g.add_actor("b", seconds(Rational(1, TimeScale::kMaxTicksPerSecond)));
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  (void)g.add_actor("slow", seconds(Rational(std::int64_t{1} << 25)));
  Simulator sim(g);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{a, 3};
  const RunResult result = sim.run(stop);
  EXPECT_EQ(result.reason, StopReason::ReachedFiringTarget);
  EXPECT_FALSE(sim.using_tick_clock());
}

TEST(TickClock, ConfigurationAfterTheFirstRunIsAContractError) {
  // The first run freezes the configuration; every setter says so instead
  // of reconfiguring a live engine.
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  const BufferEdges buf =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  Simulator sim(g);
  sim.set_default_sources(1);
  StopCondition first;
  first.firing_target = StopCondition::FiringTarget{b, 5};
  (void)sim.run(first);
  ASSERT_TRUE(sim.using_tick_clock());

  ResponseTimeFault fault;
  fault.base = kMs;
  const std::vector<std::function<void()>> setters = {
      [&] { sim.set_clock_mode(ClockMode::ForceExactRational); },
      [&] { sim.set_actor_mode(b, ActorMode::rate_limited(kMs * Rational(2))); },
      [&] { sim.set_quantum_source(b, buf.data, constant_source(1)); },
      [&] { sim.set_default_sources(2); },
      [&] { sim.inject_release_delay(b, 7, kMs * Rational(2)); },
      [&] { sim.set_response_time_jitter(b, 3, Rational(1, 2)); },
      [&] { sim.add_response_time_fault(b, fault); },
      [&] { sim.record_firings(b); },
      [&] { sim.record_transfers(buf.data); },
  };
  for (std::size_t i = 0; i < setters.size(); ++i) {
    try {
      setters[i]();
      ADD_FAILURE() << "setter " << i << " accepted a late call";
    } catch (const ContractError& error) {
      EXPECT_NE(std::string(error.what())
                    .find("configure the simulator before its first run"),
                std::string::npos)
          << "setter " << i << ": " << error.what();
    }
  }

  // The frozen configuration keeps running as configured.
  StopCondition second;
  second.firing_target = StopCondition::FiringTarget{b, 10};
  EXPECT_EQ(sim.run(second).reason, StopReason::ReachedFiringTarget);
  EXPECT_TRUE(sim.firings(b).empty());
}

TEST(TickClock, InvalidEdgeIdInSetQuantumSourceThrows) {
  // Regression: an invalid id must not silently match the unused
  // EdgeId::invalid() half of a bare-edge port.
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  Simulator sim(g);
  EXPECT_THROW(
      sim.set_quantum_source(a, EdgeId::invalid(), constant_source(1)),
      ContractError);
}

TEST(TickClock, OversizedLaterHorizonIsAContractError) {
  // An until_time whose denominator divides the scale but whose tick count
  // does not fit int64 is rejected, not overflowed.
  VrdfGraph g;
  const ActorId a =
      g.add_actor("a", seconds(Rational(1, TimeScale::kMaxTicksPerSecond)));
  const ActorId b =
      g.add_actor("b", seconds(Rational(1, TimeScale::kMaxTicksPerSecond)));
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  Simulator sim(g);
  sim.set_default_sources(1);
  StopCondition first;
  first.firing_target = StopCondition::FiringTarget{b, 2};
  (void)sim.run(first);
  ASSERT_TRUE(sim.using_tick_clock());
  StopCondition stop;
  stop.until_time = TimePoint(Rational(std::int64_t{1} << 33));  // ~2^73 ticks
  stop.max_firings = 100;
  EXPECT_THROW((void)sim.run(stop), ContractError);
  EXPECT_TRUE(sim.using_tick_clock());

  // Passed to the first run, the same horizon keeps the model on Rational.
  Simulator fresh(g);
  fresh.set_default_sources(1);
  EXPECT_EQ(fresh.run(stop).reason, StopReason::EventBudgetExhausted);
  EXPECT_FALSE(fresh.using_tick_clock());
}

// ------------------------------------------------------------- equivalence

struct RunCapture {
  std::vector<FiringRecord> firings;        // all actors, concatenated
  std::vector<EdgeMetrics> edges;
  std::vector<EdgeTransfer> productions;    // recorded edges only
  std::vector<EdgeTransfer> consumptions;
  std::vector<Starvation> starvations;
  Rational end_seconds;
  std::int64_t total_firings = 0;
  Simulator::StateSnapshot snapshot;
};

void expect_equal(const RunCapture& tick, const RunCapture& rat) {
  ASSERT_EQ(tick.firings.size(), rat.firings.size());
  for (std::size_t i = 0; i < tick.firings.size(); ++i) {
    EXPECT_EQ(tick.firings[i].actor, rat.firings[i].actor) << "firing " << i;
    EXPECT_EQ(tick.firings[i].index, rat.firings[i].index) << "firing " << i;
    EXPECT_EQ(tick.firings[i].start, rat.firings[i].start) << "firing " << i;
    EXPECT_EQ(tick.firings[i].finish, rat.firings[i].finish) << "firing " << i;
  }
  ASSERT_EQ(tick.edges.size(), rat.edges.size());
  for (std::size_t e = 0; e < tick.edges.size(); ++e) {
    EXPECT_EQ(tick.edges[e].tokens, rat.edges[e].tokens) << "edge " << e;
    EXPECT_EQ(tick.edges[e].max_tokens, rat.edges[e].max_tokens) << "edge " << e;
    EXPECT_EQ(tick.edges[e].min_tokens, rat.edges[e].min_tokens) << "edge " << e;
    EXPECT_EQ(tick.edges[e].produced_total, rat.edges[e].produced_total);
    EXPECT_EQ(tick.edges[e].consumed_total, rat.edges[e].consumed_total);
  }
  ASSERT_EQ(tick.productions.size(), rat.productions.size());
  for (std::size_t i = 0; i < tick.productions.size(); ++i) {
    EXPECT_EQ(tick.productions[i].cumulative, rat.productions[i].cumulative);
    EXPECT_EQ(tick.productions[i].count, rat.productions[i].count);
    EXPECT_EQ(tick.productions[i].time, rat.productions[i].time);
  }
  ASSERT_EQ(tick.consumptions.size(), rat.consumptions.size());
  for (std::size_t i = 0; i < tick.consumptions.size(); ++i) {
    EXPECT_EQ(tick.consumptions[i].cumulative, rat.consumptions[i].cumulative);
    EXPECT_EQ(tick.consumptions[i].count, rat.consumptions[i].count);
    EXPECT_EQ(tick.consumptions[i].time, rat.consumptions[i].time);
  }
  ASSERT_EQ(tick.starvations.size(), rat.starvations.size());
  for (std::size_t i = 0; i < tick.starvations.size(); ++i) {
    EXPECT_EQ(tick.starvations[i].actor, rat.starvations[i].actor);
    EXPECT_EQ(tick.starvations[i].firing, rat.starvations[i].firing);
    EXPECT_EQ(tick.starvations[i].scheduled, rat.starvations[i].scheduled);
    EXPECT_EQ(tick.starvations[i].actual_start, rat.starvations[i].actual_start);
  }
  EXPECT_EQ(tick.end_seconds, rat.end_seconds);
  EXPECT_EQ(tick.total_firings, rat.total_firings);
  EXPECT_EQ(tick.snapshot, rat.snapshot);
}

using Configure = std::function<void(Simulator&)>;

RunCapture run_once(const VrdfGraph& graph, ClockMode mode,
                    const Configure& configure, const StopCondition& stop,
                    const std::vector<EdgeId>& recorded_edges,
                    bool expect_ticks) {
  Simulator sim(graph);
  sim.set_clock_mode(mode);
  if (configure) {
    configure(sim);
  }
  sim.set_default_sources(7);
  for (const ActorId a : graph.actors()) {
    sim.record_firings(a);
  }
  for (const EdgeId e : recorded_edges) {
    sim.record_transfers(e);
  }
  const RunResult result = sim.run(stop);
  if (mode == ClockMode::Auto) {
    EXPECT_EQ(sim.using_tick_clock(), expect_ticks);
  }
  RunCapture cap;
  for (const ActorId a : graph.actors()) {
    const auto& f = sim.firings(a);
    cap.firings.insert(cap.firings.end(), f.begin(), f.end());
  }
  for (const EdgeId e : graph.edges()) {
    cap.edges.push_back(sim.edge_metrics(e));
  }
  for (const EdgeId e : recorded_edges) {
    const auto& p = sim.production_events(e);
    const auto& c = sim.consumption_events(e);
    cap.productions.insert(cap.productions.end(), p.begin(), p.end());
    cap.consumptions.insert(cap.consumptions.end(), c.begin(), c.end());
  }
  cap.starvations = result.starvations;
  cap.end_seconds = result.end_time.seconds();
  cap.total_firings = result.total_firings;
  cap.snapshot = sim.snapshot();
  return cap;
}

void expect_paths_equivalent(const VrdfGraph& graph, const Configure& configure,
                             const StopCondition& stop,
                             const std::vector<EdgeId>& recorded_edges = {},
                             bool expect_ticks = true) {
  const RunCapture tick = run_once(graph, ClockMode::Auto, configure, stop,
                                   recorded_edges, expect_ticks);
  const RunCapture rat = run_once(graph, ClockMode::ForceExactRational,
                                  configure, stop, recorded_edges, expect_ticks);
  expect_equal(tick, rat);
}

TEST(TickRationalEquivalence, RandomChains) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    models::RandomChainSpec spec;
    spec.seed = seed;
    spec.length = 6;
    spec.variable_percent = 60;
    spec.zero_percent = 20;
    const models::SyntheticChain chain = models::make_random_chain(spec);
    const analysis::GraphAnalysis sized =
        analysis::compute_buffer_capacities(chain.graph, chain.constraint);
    ASSERT_TRUE(sized.admissible) << "seed " << seed;
    dataflow::VrdfGraph graph = chain.graph;
    analysis::apply_capacities(graph, sized);
    StopCondition stop;
    stop.firing_target =
        StopCondition::FiringTarget{chain.constraint.actor, 300};
    expect_paths_equivalent(graph, {}, stop);
  }
}

TEST(TickRationalEquivalence, RandomChainWithJitterAndDelays) {
  models::RandomChainSpec spec;
  spec.seed = 11;
  spec.length = 5;
  spec.variable_percent = 50;
  const models::SyntheticChain chain = models::make_random_chain(spec);
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(chain.graph, chain.constraint);
  ASSERT_TRUE(sized.admissible);
  dataflow::VrdfGraph graph = chain.graph;
  analysis::apply_capacities(graph, sized);
  const auto actors = graph.actors();
  const Configure configure = [&](Simulator& sim) {
    sim.set_response_time_jitter(actors[1], 99, Rational(1, 3));
    sim.set_response_time_jitter(actors[3], 17, Rational(7, 10));
    sim.inject_release_delay(actors[2], 4, seconds(Rational(13, 3000000)));
  };
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{chain.constraint.actor, 250};
  expect_paths_equivalent(graph, configure, stop);
}

TEST(TickRationalEquivalence, Mp3ModelWithJitterReleaseDelayAndRecords) {
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  analysis::apply_capacities(app.graph, sized);
  const Configure configure = [&](Simulator& sim) {
    sim.set_response_time_jitter(app.mp3, 5, Rational(1, 2));
    sim.inject_release_delay(app.src, 3, milliseconds(Rational(1, 7)));
  };
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{app.dac, 5000};
  expect_paths_equivalent(app.graph, configure, stop,
                          {app.b2.data, app.b3.data});
}

TEST(TickRationalEquivalence, RandomForkJoinGraphs) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    models::RandomForkJoinSpec spec;
    spec.seed = seed;
    spec.stages = 1 + seed % 2;
    spec.max_branches = 3;
    spec.max_segment_length = seed % 3;
    spec.variable_percent = 60;
    spec.zero_percent = 20;
    const models::SyntheticChain model = models::make_random_fork_join(spec);
    const analysis::GraphAnalysis sized =
        analysis::compute_buffer_capacities(model.graph, model.constraint);
    ASSERT_TRUE(sized.admissible) << "seed " << seed;
    ASSERT_FALSE(sized.is_chain) << "seed " << seed;
    dataflow::VrdfGraph graph = model.graph;
    analysis::apply_capacities(graph, sized);
    StopCondition stop;
    stop.firing_target =
        StopCondition::FiringTarget{model.constraint.actor, 300};
    expect_paths_equivalent(graph, {}, stop);
  }
}

TEST(TickRationalEquivalence, AvPipelineWithJitterAndDelays) {
  models::AvSyncPipeline app = models::make_av_sync_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  analysis::apply_capacities(app.graph, sized);
  const Configure configure = [&](Simulator& sim) {
    sim.set_response_time_jitter(app.vdec, 23, Rational(2, 5));
    sim.set_response_time_jitter(app.adec, 5, Rational(1, 2));
    sim.inject_release_delay(app.demux, 9, milliseconds(Rational(3, 7)));
  };
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{app.present, 1000};
  expect_paths_equivalent(app.graph, configure, stop,
                          {app.demux_adec.data, app.vdec_sync.data});
}

TEST(TickRationalEquivalence, PeriodicAndRateLimitedModes) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  const ActorId c = g.add_actor("c", kMs * Rational(1, 2));
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1), 4);
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1), 4);
  const Configure configure = [&](Simulator& sim) {
    // Offset 0 starves firing 0 of b; the rate limit gates c.
    sim.set_actor_mode(b, ActorMode::strictly_periodic(TimePoint(),
                                                       kMs * Rational(2)));
    sim.set_actor_mode(c, ActorMode::rate_limited(kMs * Rational(3)));
  };
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{c, 20};
  expect_paths_equivalent(g, configure, stop);
}

TEST(TickRationalEquivalence, TimeLimitedRun) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs * Rational(3, 7));
  (void)g.add_buffer(a, b, RateSet::singleton(2), RateSet::of({1, 2}), 8);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1, 10));
  expect_paths_equivalent(g, {}, stop);
}

// ------------------------------------------------------ perturbation goldens

/// FNV-1a digest of every firing record's exact start and finish times (all
/// actors, in actor order) plus the run's end time.
std::uint64_t firing_digest(const VrdfGraph& graph, ClockMode mode,
                            const Configure& configure,
                            const StopCondition& stop) {
  Simulator sim(graph);
  sim.set_clock_mode(mode);
  configure(sim);
  sim.set_default_sources(7);
  for (const ActorId a : graph.actors()) {
    sim.record_firings(a);
  }
  const RunResult result = sim.run(stop);
  if (mode == ClockMode::Auto) {
    EXPECT_TRUE(sim.using_tick_clock());
  }
  std::string text;
  for (const ActorId a : graph.actors()) {
    for (const FiringRecord& r : sim.firings(a)) {
      text += std::to_string(a.value()) + ' ' + std::to_string(r.index) + ' ' +
              r.start.seconds().to_string() + ' ' +
              r.finish.seconds().to_string() + '\n';
    }
  }
  text += result.end_time.seconds().to_string();
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(TickClock, PerturbationGoldens) {
  // Pins the exact firing times of jittered runs, alone and combined with a
  // fault plan, so any change to how response-time perturbations are
  // lowered onto the engine must reproduce them bit for bit on both clocks.
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  analysis::apply_capacities(app.graph, sized);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{app.dac, 2000};

  struct Case {
    const char* name;
    Configure configure;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"jitter on src, br and mp3",
       [&](Simulator& sim) {
         sim.set_response_time_jitter(app.src, 3, Rational(1, 4));
         sim.set_response_time_jitter(app.br, 4, Rational(1, 2));
         sim.set_response_time_jitter(app.mp3, 5, Rational(3, 5));
       },
       1330819637408280508ULL},
      {"jitter plus rho_overrun on mp3",
       [&](Simulator& sim) {
         sim.set_response_time_jitter(app.mp3, 9, Rational(1, 3));
         FaultPlan()
             .rho_overrun(app.mp3, milliseconds(Rational(1, 50)),
                          Rational(11, 10))
             .apply(sim);
       },
       3523305502828244942ULL},
      {"jitter set twice on br",
       [&](Simulator& sim) {
         sim.set_response_time_jitter(app.br, 1, Rational(1, 5));
         sim.set_response_time_jitter(app.br, 2, Rational(3, 4));
       },
       8030731389251055219ULL},
      {"jitter with fraction 1 on mp3",
       [&](Simulator& sim) {
         sim.set_response_time_jitter(app.mp3, 6, Rational(1));
       },
       17068049015315190120ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(firing_digest(app.graph, ClockMode::Auto, c.configure, stop),
              c.digest)
        << c.name << " (Auto)";
    EXPECT_EQ(firing_digest(app.graph, ClockMode::ForceExactRational,
                            c.configure, stop),
              c.digest)
        << c.name << " (ForceExactRational)";
  }
}

}  // namespace
}  // namespace vrdf::sim
