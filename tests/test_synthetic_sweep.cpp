// Property sweep over randomly generated chains: for every admissible
// random instance, the computed capacities must pass the two-phase
// simulation check under several quantum streams, and the structural
// invariants of the generators must hold.  This is the library's broad
// "theorem holds in practice" test.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "dataflow/validation.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"

namespace vrdf {
namespace {

using analysis::GraphAnalysis;
using models::RandomChainSpec;
using models::SyntheticChain;

class RandomChainSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RandomChainSweep, GeneratedChainsAreValidAndAdmissible) {
  RandomChainSpec spec;
  spec.seed = std::get<0>(GetParam());
  spec.source_constrained = std::get<1>(GetParam());
  spec.length = 3 + spec.seed % 4;
  SyntheticChain chain = models::make_random_chain(spec);
  EXPECT_TRUE(dataflow::validate_chain_model(chain.graph).ok());
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(chain.graph, chain.constraint);
  ASSERT_TRUE(analysis.admissible);
  EXPECT_EQ(analysis.pairs.size(), spec.length - 1);
  for (const auto& pair : analysis.pairs) {
    EXPECT_GT(pair.capacity, 0);
    EXPECT_GE(Rational(pair.capacity) + Rational(1), pair.raw_tokens);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SinkAndSource, RandomChainSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                       ::testing::Bool()));

TEST(RandomChainSweep, FleetVerifiesComputedCapacitiesAtScale) {
  // The simulation half of the sweep, through the sharded fleet harness
  // (PR 8): 64 chains per constraint placement — an 8x raise over the
  // 8-seed parameterized loop this replaces — each running the full
  // generate -> analyze -> two-phase-verify pipeline on pool workers.
  sim::SweepSpec spec;
  spec.classes = {models::ModelClass::Chain};
  spec.seeds_per_class = 64;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  // Leave some slack so simulations converge quickly, like real systems do.
  spec.response_fraction = Rational(3, 4);
  spec.observe_firings = 800;
  const sim::FleetReport report = sim::FleetSweep(spec).run(4);
  EXPECT_EQ(report.total_items, 128);
  EXPECT_EQ(report.passed, report.total_items)
      << sim::canonical_text(report);
  EXPECT_EQ(report.failed + report.rejected, 0);
  EXPECT_EQ(report.starvations, 0);
}

TEST(VideoPipeline, AdmissibleAndVerified) {
  SyntheticChain chain = models::make_video_pipeline();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(chain.graph, chain.constraint);
  ASSERT_TRUE(analysis.admissible);
  EXPECT_EQ(analysis.side, analysis::ConstraintSide::Sink);
  ASSERT_EQ(analysis.pairs.size(), 4u);
  analysis::apply_capacities(chain.graph, analysis);
  sim::VerifyOptions options;
  options.observe_firings = 500;
  const sim::VerifyResult result =
      sim::verify_throughput(chain.graph, {chain.constraint}, {}, options);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(SensorAcquisition, SourceConstrainedAdmissibleAndVerified) {
  SyntheticChain chain = models::make_sensor_acquisition();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(chain.graph, chain.constraint);
  ASSERT_TRUE(analysis.admissible);
  EXPECT_EQ(analysis.side, analysis::ConstraintSide::Source);
  // Sec 4.4 on adc -> filter -> compressor -> writer: φ of each consumer
  // and the capacities of the three buffers.
  ASSERT_EQ(analysis.pairs.size(), 3u);
  EXPECT_EQ(analysis.pacing[1], milliseconds(Rational(4, 3)));
  EXPECT_EQ(analysis.pacing[2], milliseconds(Rational(4, 3)));
  EXPECT_EQ(analysis.pacing[3], milliseconds(Rational(32, 3)));
  EXPECT_EQ(analysis.pairs[0].capacity, 128);
  EXPECT_EQ(analysis.pairs[1].capacity, 255);
  EXPECT_EQ(analysis.pairs[2].capacity, 1151);
  analysis::apply_capacities(chain.graph, analysis);
  sim::VerifyOptions options;
  options.observe_firings = 20000;  // source fires per sample, needs depth
  const sim::VerifyResult result =
      sim::verify_throughput(chain.graph, {chain.constraint}, {}, options);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(ScaledResponseTimes, FractionOneIsTight) {
  SyntheticChain chain = models::make_video_pipeline();
  const auto budget = analysis::max_admissible_response_times(
      chain.graph, {chain.constraint});
  ASSERT_TRUE(budget.ok);
  for (std::size_t i = 0; i < budget.actors_in_order.size(); ++i) {
    EXPECT_EQ(chain.graph.actor(budget.actors_in_order[i]).response_time,
              budget.max_response_times[i]);
  }
}

TEST(ScaledResponseTimes, RejectsNonChain) {
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(1)));
  (void)g.add_edge(a, b, dataflow::RateSet::singleton(1),
                   dataflow::RateSet::singleton(1));
  EXPECT_FALSE(models::with_scaled_response_times(
                   g,
                   {analysis::ThroughputConstraint{b,
                                                   milliseconds(Rational(1))}},
                   Rational(1))
                   .has_value());
}

}  // namespace
}  // namespace vrdf
