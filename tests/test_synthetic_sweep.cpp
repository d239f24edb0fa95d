// Property sweep over randomly generated chains: for every admissible
// random instance, the computed capacities must pass the two-phase
// simulation check under several quantum streams, and the structural
// invariants of the generators must hold.  This is the library's broad
// "theorem holds in practice" test.
#include <gtest/gtest.h>

#include <string>

#include "analysis/buffer_sizing.hpp"
#include "dataflow/validation.hpp"
#include "io/text_format.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

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
  const dataflow::ValidationReport report =
      dataflow::validate_cyclic_model(chain.graph);
  EXPECT_TRUE(report.ok() && report.view->is_chain) << report.summary();
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

/// 64-bit FNV-1a of a golden text.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char byte : text) {
    fnv = (fnv ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  return fnv;
}

TEST(RandomChainSweep, OverlongChainsAreRejectedByName) {
  // 255 random rate ratios: for every seed the pacing leaves int64, and
  // the error names the seed, the length and the actor whose φ demand
  // (walking up from the constrained sink t255) overflows first.
  const int first_overflow[] = {178, 190, 161, 83,  142, 70,  28,
                                114, 167, 92,  178, 169, 190, 131,
                                92,  154, 186, 194, 53,  172};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomChainSpec spec;
    spec.seed = seed;
    spec.length = 256;
    try {
      (void)models::make_random_chain(spec);
      ADD_FAILURE() << "seed " << seed << " generated a chain";
    } catch (const OverflowError& e) {
      EXPECT_EQ(std::string(e.what()),
                "random chain (seed " + std::to_string(seed) +
                    ", length 256): the rate product leaves int64 at actor "
                    "'t" +
                    std::to_string(first_overflow[seed - 1]) +
                    "' (rational overflow in multiplication)");
    }
  }
}

TEST(RandomChainSweep, ShortChainsKeepTheirBytes) {
  // Length 8 never overflows; the generated models are pinned by digest.
  std::string text;
  for (const bool source_constrained : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      RandomChainSpec spec;
      spec.seed = seed;
      spec.length = 8;
      spec.source_constrained = source_constrained;
      const SyntheticChain chain = models::make_random_chain(spec);
      text += io::write_chain(chain.graph, {chain.constraint});
    }
  }
  EXPECT_EQ(fnv1a(text), 0xf7b31dd376ab104dULL) << text;
}

TEST(RandomChainSweep, FleetVerifiesComputedCapacitiesAtScale) {
  // The simulation half of the sweep, through the sharded fleet harness
  // (PR 8): 64 chains per constraint placement — an 8x raise over the
  // 8-seed parameterized loop this replaces — each running the full
  // generate -> analyze -> two-phase-verify pipeline on sweep workers.
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
