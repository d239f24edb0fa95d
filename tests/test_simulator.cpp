// Unit tests for the discrete-event simulator: firing semantics, blocking,
// back-pressure, deadlock, periodic activation, metrics and determinism.
#include <gtest/gtest.h>

#include "dataflow/vrdf_graph.hpp"
#include "sim/simulator.hpp"
#include "sim/steady_state.hpp"
#include "util/error.hpp"

namespace vrdf::sim {
namespace {

using dataflow::ActorId;
using dataflow::BufferEdges;
using dataflow::RateSet;
using dataflow::VrdfGraph;

const Duration kMs = milliseconds(Rational(1));

struct TwoActorFixture {
  VrdfGraph graph;
  ActorId producer;
  ActorId consumer;
  BufferEdges buffer;
};

TwoActorFixture make_pair(std::int64_t production, std::int64_t consumption,
                          std::int64_t capacity, Duration rho_p, Duration rho_c) {
  TwoActorFixture f;
  f.producer = f.graph.add_actor("p", rho_p);
  f.consumer = f.graph.add_actor("c", rho_c);
  f.buffer = f.graph.add_buffer(f.producer, f.consumer,
                                RateSet::singleton(production),
                                RateSet::singleton(consumption), capacity);
  return f;
}

TEST(Simulator, TokensConsumedAtStartProducedAtFinish) {
  // Producer: 2 tokens per firing, ρ = 1 ms, capacity 2.
  TwoActorFixture f = make_pair(2, 2, 2, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  sim.record_firings(f.producer);
  sim.record_firings(f.consumer);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1, 100));  // 10 ms
  (void)sim.run(stop);

  const auto& p = sim.firings(f.producer);
  const auto& c = sim.firings(f.consumer);
  ASSERT_GE(p.size(), 2u);
  ASSERT_GE(c.size(), 2u);
  // First producer firing: starts at 0 (space available), finishes at 1 ms.
  EXPECT_EQ(p[0].start, TimePoint());
  EXPECT_EQ(p[0].finish, TimePoint() + kMs);
  // Consumer can only start once data exists: at 1 ms.
  EXPECT_EQ(c[0].start, TimePoint() + kMs);
  // Producer's second firing needs space back: consumer finishes at 2 ms.
  EXPECT_EQ(p[1].start, TimePoint() + kMs * Rational(2));
}

TEST(Simulator, NoSelfOverlapEvenWhenTokensAbound) {
  // Huge capacity: the producer is only limited by its response time.
  TwoActorFixture f = make_pair(1, 1, 1000, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  sim.record_firings(f.producer, 64);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1, 100));
  (void)sim.run(stop);
  const auto& p = sim.firings(f.producer);
  ASSERT_GE(p.size(), 3u);
  for (std::size_t k = 1; k < p.size(); ++k) {
    EXPECT_GE((p[k].start - p[k - 1].start), kMs);
  }
}

TEST(Simulator, DeadlockDetectedWhenCapacityTooSmall) {
  // Producer needs 3 space but capacity is 2: nothing can ever fire.
  TwoActorFixture f = make_pair(3, 3, 2, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1));
  const RunResult result = sim.run(stop);
  EXPECT_EQ(result.reason, StopReason::Deadlock);
  EXPECT_EQ(result.total_firings, 0);
}

TEST(Simulator, DeadlockReportsBlockedWaits) {
  // Same deadlock as above: the producer waits for 3 free containers on a
  // capacity-2 buffer, the consumer waits for 3 tokens that never come.
  TwoActorFixture f = make_pair(3, 3, 2, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1));
  const RunResult result = sim.run(stop);
  ASSERT_TRUE(result.deadlocked());
  ASSERT_EQ(result.blocked.size(), 2u);

  const BlockedWait* producer_wait = nullptr;
  const BlockedWait* consumer_wait = nullptr;
  for (const BlockedWait& wait : result.blocked) {
    (wait.actor == f.producer ? producer_wait : consumer_wait) = &wait;
  }
  ASSERT_NE(producer_wait, nullptr);
  ASSERT_NE(consumer_wait, nullptr);

  EXPECT_EQ(producer_wait->edge, f.buffer.space);
  EXPECT_TRUE(producer_wait->waiting_for_space);
  EXPECT_EQ(producer_wait->needed, 3);
  EXPECT_EQ(producer_wait->available, 2);

  EXPECT_EQ(consumer_wait->edge, f.buffer.data);
  EXPECT_FALSE(consumer_wait->waiting_for_space);
  EXPECT_EQ(consumer_wait->needed, 3);
  EXPECT_EQ(consumer_wait->available, 0);
}

TEST(Simulator, BlockedWaitsEmptyWithoutDeadlock) {
  TwoActorFixture f = make_pair(2, 2, 2, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1, 100));
  const RunResult result = sim.run(stop);
  EXPECT_NE(result.reason, StopReason::Deadlock);
  EXPECT_TRUE(result.blocked.empty());
}

TEST(Simulator, Fig1MinimalCapacities) {
  // The introduction's observation, replayed in simulation: with n ≡ 3 a
  // capacity of 3 suffices, with n ≡ 2 it deadlocks and 4 is needed.
  const auto runs = [](std::int64_t consumption, std::int64_t capacity) {
    VrdfGraph g;
    const ActorId a = g.add_actor("wa", kMs);
    const ActorId b = g.add_actor("wb", kMs);
    const BufferEdges buf = g.add_buffer(a, b, RateSet::singleton(3),
                                         RateSet::of({2, 3}), capacity);
    Simulator sim(g);
    sim.set_quantum_source(b, buf.data, constant_source(consumption));
    sim.set_default_sources(1);
    StopCondition stop;
    stop.firing_target = StopCondition::FiringTarget{b, 50};
    return sim.run(stop).reason == StopReason::ReachedFiringTarget;
  };
  EXPECT_TRUE(runs(3, 3));
  EXPECT_FALSE(runs(2, 3));  // sized for the max quantum, starves on 2
  EXPECT_TRUE(runs(2, 4));
}

TEST(Simulator, ZeroQuantumFiringsTransferNothingButTakeTime) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  const BufferEdges buf =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::of({0, 1}), 4);
  Simulator sim(g);
  // Consumer alternates 0,1,0,1,...
  sim.set_quantum_source(b, buf.data,
                         min_max_alternating_source(RateSet::of({0, 1})));
  sim.set_default_sources(1);
  sim.record_firings(b, 16);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{b, 4};
  const RunResult result = sim.run(stop);
  EXPECT_EQ(result.reason, StopReason::ReachedFiringTarget);
  const auto& c = sim.firings(b);
  // Firing 0 consumes nothing: starts immediately at t = 0.
  EXPECT_EQ(c[0].start, TimePoint());
  // Consumptions only happen on odd firings.
  EXPECT_EQ(sim.edge_metrics(buf.data).consumed_total, 2);
}

TEST(Simulator, QuantumOutsideRateSetIsAModelError) {
  TwoActorFixture f = make_pair(2, 2, 8, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_quantum_source(f.producer, f.buffer.data, constant_source(3));
  sim.set_default_sources(1);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1));
  EXPECT_THROW((void)sim.run(stop), ModelError);
}

TEST(Simulator, MissingSourceIsAContractError) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  (void)g.add_buffer(a, b, RateSet::of({1, 2}), RateSet::singleton(1), 4);
  Simulator sim(g);  // no sources installed at all
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1));
  EXPECT_THROW((void)sim.run(stop), ContractError);
}

TEST(Simulator, PairedPortsShareOneQuantumStream) {
  // The consumer returns exactly as much space as it consumed data: with a
  // random consumption stream, produced(space) must track consumed(data).
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kMs);
  const ActorId b = g.add_actor("b", kMs);
  const BufferEdges buf =
      g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({1, 2, 3}), 12);
  Simulator sim(g);
  sim.set_quantum_source(b, buf.data, uniform_random_source(RateSet::of({1, 2, 3}), 7));
  sim.set_default_sources(1);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{b, 100};
  const RunResult result = sim.run(stop);
  ASSERT_EQ(result.reason, StopReason::ReachedFiringTarget);
  // Consumer side: idle at the stop (it just finished firing 100), so the
  // space it produced must equal the data it consumed, exactly.
  EXPECT_EQ(sim.edge_metrics(buf.data).consumed_total,
            sim.edge_metrics(buf.space).produced_total);
  // Producer side: it may be mid-firing (space claimed, data not yet
  // produced), so the difference is at most one production quantum.
  const std::int64_t claimed = sim.edge_metrics(buf.space).consumed_total -
                               sim.edge_metrics(buf.data).produced_total;
  EXPECT_GE(claimed, 0);
  EXPECT_LE(claimed, 3);
}

TEST(Simulator, TokenConservationPerBuffer) {
  // data + space + in-flight == capacity at every quiescent point; at run
  // end (no actor mid-firing after a finish-aligned stop) the in-flight
  // part is zero for actors that are idle.
  TwoActorFixture f = make_pair(2, 1, 7, kMs, kMs * Rational(3));
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{f.consumer, 50};
  (void)sim.run(stop);
  const auto& data = sim.edge_metrics(f.buffer.data);
  const auto& space = sim.edge_metrics(f.buffer.space);
  // Tokens never created or destroyed: produced-consumed == current-initial.
  EXPECT_EQ(data.produced_total - data.consumed_total, data.tokens);
  EXPECT_EQ(space.produced_total - space.consumed_total, space.tokens - 7);
  // Data high-water never exceeds the capacity.
  EXPECT_LE(data.max_tokens, 7);
  EXPECT_GE(space.min_tokens, 0);
}

TEST(Simulator, StrictlyPeriodicActorFiresOnSchedule) {
  TwoActorFixture f = make_pair(1, 1, 4, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  const Duration period = kMs * Rational(2);
  const TimePoint offset = TimePoint() + kMs * Rational(5);
  sim.set_actor_mode(f.consumer, ActorMode::strictly_periodic(offset, period));
  sim.record_firings(f.consumer, 16);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{f.consumer, 5};
  const RunResult result = sim.run(stop);
  ASSERT_EQ(result.reason, StopReason::ReachedFiringTarget);
  EXPECT_TRUE(result.starvations.empty());
  const auto& c = sim.firings(f.consumer);
  for (std::size_t k = 0; k < c.size(); ++k) {
    EXPECT_EQ(c[k].start,
              offset + period * Rational(static_cast<std::int64_t>(k)));
  }
}

TEST(Simulator, StarvationRecordedWhenPeriodicActorMissesActivation) {
  // Offset 0: no data yet (producer needs 1 ms), so firing 0 is late.
  TwoActorFixture f = make_pair(1, 1, 4, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  sim.set_actor_mode(f.consumer,
                     ActorMode::strictly_periodic(TimePoint(), kMs * Rational(2)));
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{f.consumer, 3};
  const RunResult result = sim.run(stop);
  ASSERT_EQ(result.reason, StopReason::ReachedFiringTarget);
  ASSERT_FALSE(result.starvations.empty());
  EXPECT_EQ(result.starvations[0].firing, 0);
  EXPECT_EQ(result.starvations[0].scheduled, TimePoint());
  ASSERT_TRUE(result.starvations[0].actual_start.has_value());
  EXPECT_EQ(*result.starvations[0].actual_start, TimePoint() + kMs);
}

TEST(Simulator, RateLimitedActorKeepsMinimumGap) {
  TwoActorFixture f = make_pair(1, 1, 10, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  const Duration gap = kMs * Rational(3);
  sim.set_actor_mode(f.consumer, ActorMode::rate_limited(gap));
  sim.record_firings(f.consumer, 16);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{f.consumer, 5};
  (void)sim.run(stop);
  const auto& c = sim.firings(f.consumer);
  ASSERT_GE(c.size(), 2u);
  for (std::size_t k = 1; k < c.size(); ++k) {
    EXPECT_GE(c[k].start - c[k - 1].start, gap);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto run_once = [] {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kMs);
    const ActorId b = g.add_actor("b", kMs * Rational(2));
    const BufferEdges buf =
        g.add_buffer(a, b, RateSet::of({1, 3}), RateSet::of({2, 4}), 16);
    Simulator sim(g);
    sim.set_default_sources(42);
    sim.record_firings(b, 256);
    StopCondition stop;
    stop.firing_target = StopCondition::FiringTarget{b, 100};
    (void)sim.run(stop);
    std::vector<Rational> starts;
    for (const FiringRecord& r : sim.firings(b)) {
      starts.push_back(r.start.seconds());
    }
    (void)buf;
    return starts;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, TransferRecordsMatchMetrics) {
  TwoActorFixture f = make_pair(2, 3, 9, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  sim.record_transfers(f.buffer.data);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{f.consumer, 10};
  (void)sim.run(stop);
  const auto& productions = sim.production_events(f.buffer.data);
  const auto& consumptions = sim.consumption_events(f.buffer.data);
  ASSERT_FALSE(productions.empty());
  ASSERT_FALSE(consumptions.empty());
  EXPECT_EQ(productions.back().cumulative,
            sim.edge_metrics(f.buffer.data).produced_total);
  EXPECT_EQ(consumptions.back().cumulative,
            sim.edge_metrics(f.buffer.data).consumed_total);
  // Cumulative counts are strictly increasing by the event count.
  for (std::size_t i = 1; i < productions.size(); ++i) {
    EXPECT_EQ(productions[i].cumulative,
              productions[i - 1].cumulative + productions[i].count);
    EXPECT_GE(productions[i].time, productions[i - 1].time);
  }
}

TEST(Simulator, RunCanBeContinued) {
  TwoActorFixture f = make_pair(1, 1, 4, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  sim.record_firings(f.consumer);
  StopCondition first;
  first.firing_target = StopCondition::FiringTarget{f.consumer, 5};
  EXPECT_EQ(sim.run(first).reason, StopReason::ReachedFiringTarget);
  const std::size_t after_first = sim.firings(f.consumer).size();
  StopCondition second;
  second.firing_target = StopCondition::FiringTarget{f.consumer, 10};
  EXPECT_EQ(sim.run(second).reason, StopReason::ReachedFiringTarget);
  EXPECT_EQ(after_first, 5u);
  EXPECT_EQ(sim.firings(f.consumer).size(), 10u);
}

TEST(Simulator, EventBudgetStopsRunawayRuns) {
  TwoActorFixture f = make_pair(1, 1, 4, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.max_firings = 10;
  const RunResult result = sim.run(stop);
  EXPECT_EQ(result.reason, StopReason::EventBudgetExhausted);
  EXPECT_GE(result.total_firings, 10);
}

TEST(Simulator, FiringTargetOutsideTheGraphIsAContractError) {
  TwoActorFixture f = make_pair(1, 1, 2, kMs, kMs);
  for (const ActorId bad : {ActorId(57), ActorId::invalid()}) {
    Simulator sim(f.graph);
    sim.set_default_sources(1);
    StopCondition stop;
    stop.firing_target = StopCondition::FiringTarget{bad, 3};
    EXPECT_THROW((void)sim.run(stop), ContractError);
    EXPECT_THROW((void)detect_steady_state(f.graph, bad, 10), ContractError);
  }
}

TEST(Simulator, HorizonBeforeTheClockIsAContractError) {
  TwoActorFixture f = make_pair(1, 1, 2, kMs, kMs);
  Simulator sim(f.graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.until_time = TimePoint(Rational(1, 100));
  (void)sim.run(stop);
  ASSERT_EQ(sim.now().seconds(), Rational(1, 100));
  stop.until_time = TimePoint(Rational(1, 200));
  EXPECT_THROW((void)sim.run(stop), ContractError);
  EXPECT_EQ(sim.now().seconds(), Rational(1, 100));
  // Re-running to the current instant is a no-op, not a step back.
  stop.until_time = TimePoint(Rational(1, 100));
  EXPECT_EQ(sim.run(stop).end_time.seconds(), Rational(1, 100));

  Simulator fresh(f.graph);
  fresh.set_default_sources(1);
  stop.until_time = TimePoint(Rational(-1));
  EXPECT_THROW((void)fresh.run(stop), ContractError);
  EXPECT_EQ(fresh.now().seconds(), Rational(0));
}

}  // namespace
}  // namespace vrdf::sim
