// Tests for the quantum-source library and the response-time jitter
// failure injection (end-to-end monotonicity: worst-case-sized capacities
// must tolerate every early-finishing run).
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "models/mp3.hpp"
#include "sim/quantum_source.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf::sim {
namespace {

using dataflow::RateSet;

std::vector<std::int64_t> draw(QuantumSource& source, std::int64_t count) {
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < count; ++i) {
    out.push_back(source.next(i));
  }
  return out;
}

TEST(QuantumSource, ConstantAndExtremes) {
  EXPECT_EQ(draw(*constant_source(5), 3), (std::vector<std::int64_t>{5, 5, 5}));
  const RateSet set = RateSet::of({2, 7, 9});
  EXPECT_EQ(draw(*always_min_source(set), 2), (std::vector<std::int64_t>{2, 2}));
  EXPECT_EQ(draw(*always_max_source(set), 2), (std::vector<std::int64_t>{9, 9}));
  EXPECT_THROW((void)constant_source(-1), ContractError);
}

TEST(QuantumSource, CyclicWrapsAround) {
  EXPECT_EQ(draw(*cyclic_source({1, 2, 3}), 7),
            (std::vector<std::int64_t>{1, 2, 3, 1, 2, 3, 1}));
  EXPECT_THROW((void)cyclic_source({}), ContractError);
}

TEST(QuantumSource, ScriptedPrefixThenTail) {
  EXPECT_EQ(draw(*scripted_source({9, 8}, 1), 5),
            (std::vector<std::int64_t>{9, 8, 1, 1, 1}));
}

TEST(QuantumSource, MinMaxAlternation) {
  const RateSet set = RateSet::interval(0, 4);
  EXPECT_EQ(draw(*min_max_alternating_source(set), 4),
            (std::vector<std::int64_t>{0, 4, 0, 4}));
}

TEST(QuantumSource, UniformStaysInSetAndCoversIt) {
  const RateSet set = RateSet::of({2, 3, 5});
  auto source = uniform_random_source(set, 11);
  std::set<std::int64_t> seen;
  for (const std::int64_t v : draw(*source, 200)) {
    EXPECT_TRUE(set.contains(v));
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all members show up over 200 draws
}

TEST(QuantumSource, RandomWalkMovesByBoundedSteps) {
  const RateSet set = RateSet::interval(0, 100);
  auto source = random_walk_source(set, 3, 2);
  std::int64_t previous = source->next(0);
  for (std::int64_t i = 1; i < 300; ++i) {
    const std::int64_t v = source->next(i);
    EXPECT_TRUE(set.contains(v));
    EXPECT_LE(std::abs(v - previous), 2);
    previous = v;
  }
}

TEST(QuantumSource, ClonesReproduceTheStream) {
  const RateSet set = RateSet::interval(0, 960);
  for (const auto& make :
       {uniform_random_source(set, 77), random_walk_source(set, 78, 5),
        cyclic_source({1, 4, 2}), scripted_source({5, 5}, 2)}) {
    auto clone = make->clone();
    auto original_again = make->clone();
    EXPECT_EQ(draw(*clone, 100), draw(*original_again, 100))
        << make->describe();
  }
}

TEST(QuantumSource, DescribeIsInformative) {
  EXPECT_NE(constant_source(3)->describe().find("constant(3)"),
            std::string::npos);
  EXPECT_NE(uniform_random_source(RateSet::of({1, 2}), 5)->describe().find(
                "seed 5"),
            std::string::npos);
}

TEST(ResponseJitter, RejectsBadFractions) {
  const models::Mp3Playback app = models::make_mp3_playback();
  Simulator sim(app.graph);
  EXPECT_THROW(sim.set_response_time_jitter(app.br, 1, Rational(0)),
               ContractError);
  EXPECT_THROW(sim.set_response_time_jitter(app.br, 1, Rational(3, 2)),
               ContractError);
}

TEST(ResponseJitter, FiringsFinishWithinTheJitterWindow) {
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  Simulator sim(app.graph);
  sim.set_default_sources(1);
  sim.set_response_time_jitter(app.src, 5, Rational(1, 2));
  sim.record_firings(app.src, 512);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{app.src, 200};
  (void)sim.run(stop);
  const Duration rho = app.graph.actor(app.src).response_time;
  bool saw_early = false;
  for (const FiringRecord& r : sim.firings(app.src)) {
    const Duration took = r.finish - r.start;
    EXPECT_LE(took, rho);
    EXPECT_GE(took, rho * Rational(1, 2));
    saw_early = saw_early || took < rho;
  }
  EXPECT_TRUE(saw_early);
}

class JitteredMp3 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitteredMp3, WorstCaseCapacitiesToleratEarlyFinishes) {
  // ρ(v) are worst-case response times; real runs finish earlier.  By
  // monotonicity the computed capacities must still sustain the periodic
  // DAC.  Jitter everything except the DAC itself (the constrained actor's
  // period is enforced, not its response time).
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);

  VerifyOptions options;
  options.observe_firings = 50000;
  const VerifyResult verdict = verify_throughput(
      app.graph, {app.constraint},
      [&](Simulator& s) {
        s.set_response_time_jitter(app.br, GetParam(), Rational(1, 4));
        s.set_response_time_jitter(app.mp3, GetParam() + 1, Rational(1, 4));
        s.set_response_time_jitter(app.src, GetParam() + 2, Rational(1, 4));
      },
      options);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitteredMp3, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace vrdf::sim
