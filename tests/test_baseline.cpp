// Tests for the baselines: the traditional [10] closed-form bound and the
// exact minimal capacity search, including the Fig 1 per-sequence
// throughput minima against the analysis bound and the tight SRC→DAC
// value 882.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "baseline/exact_minimal.hpp"
#include "baseline/traditional.hpp"
#include "models/fig1.hpp"
#include "models/mp3.hpp"
#include "util/error.hpp"

namespace vrdf::baseline {
namespace {

using dataflow::RateSet;

const Duration kTau = milliseconds(Rational(3));

TEST(Traditional, SriramFormula) {
  EXPECT_EQ(sriram_pair_capacity(2048, 960), 5888);
  EXPECT_EQ(sriram_pair_capacity(1152, 480), 3072);
  EXPECT_EQ(sriram_pair_capacity(441, 1), 882);
  EXPECT_EQ(sriram_pair_capacity(1, 1), 2);
  EXPECT_EQ(sriram_pair_capacity(3, 3), 6);
  EXPECT_THROW((void)sriram_pair_capacity(0, 1), ContractError);
}

TEST(Traditional, ChainCapacitiesUseMaxQuanta) {
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const TraditionalResult result = traditional_chain_capacities(model.graph);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].production, 3);
  EXPECT_EQ(result.pairs[0].consumption, 3);  // max of {2,3}
  EXPECT_EQ(result.pairs[0].capacity, 6);     // 2·(3+3−3)
}

TEST(Traditional, RejectsNonChain) {
  dataflow::VrdfGraph g;
  (void)g.add_actor("only", kTau);
  const TraditionalResult result = traditional_chain_capacities(g);
  // Single actor *is* a chain with no buffers.
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.pairs.empty());

  dataflow::VrdfGraph bad;
  const auto a = bad.add_actor("a", kTau);
  const auto b = bad.add_actor("b", kTau);
  (void)bad.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(traditional_chain_capacities(bad).ok);
}

TEST(ExactMinimal, Fig1ThroughputMinimumIsDoubleBufferForMaxQuantum) {
  // NOTE: this is the *throughput* minimum (strictly periodic consumer at
  // period τ with ρ(va) = ρ(vb) = τ), not the deadlock-freedom minimum the
  // introduction quotes (3).  With tight response times the producer must
  // fill batch k+1 while the consumer drains batch k, so the minimum is a
  // double buffer: 2·3 = 6.  (The deadlock-freedom claims 3-vs-4 are
  // covered by Simulator.Fig1MinimalCapacities.)
  PairSearchSpec spec;
  spec.production = RateSet::singleton(3);
  spec.consumption = RateSet::of({2, 3});
  spec.producer_response = kTau;
  spec.consumer_response = kTau;
  spec.consumer_period = kTau;
  spec.consumer_sequence = [] { return sim::constant_source(3); };
  const auto minimum = exact_minimal_pair_capacity(spec, 16);
  ASSERT_TRUE(minimum.has_value());
  EXPECT_EQ(*minimum, 6);
}

TEST(ExactMinimal, Fig1PerSequenceMinimaNeverExceedTheAnalysisBound) {
  // The analysis capacity (11 for this pair) covers *every* sequence; the
  // per-sequence minima are cheaper, and the mixed sequences need more
  // than the constant ones (min-quantum consumption throttles the
  // producer via back-pressure).  The gap between the bound and the
  // hungriest sequence is the price of one static capacity for all
  // sequences (how tight Eq (4) is).
  const std::int64_t analysis_capacity = 11;
  using Factory = std::function<std::unique_ptr<sim::QuantumSource>()>;
  const struct {
    Factory make;
    std::int64_t minimum;
  } sequences[] = {
      {[] { return sim::constant_source(3); }, 6},
      {[] { return sim::constant_source(2); }, 6},
      {[] { return sim::cyclic_source({2, 3}); }, 7},
      {[] { return sim::cyclic_source({3, 2}); }, 7},
      {[] { return sim::cyclic_source({2, 2, 2, 3, 3, 3}); }, 6},
      {[] { return sim::uniform_random_source(RateSet::of({2, 3}), 5); }, 8},
  };
  std::int64_t largest = 0;
  for (const auto& sequence : sequences) {
    PairSearchSpec spec;
    spec.production = RateSet::singleton(3);
    spec.consumption = RateSet::of({2, 3});
    spec.producer_response = kTau;
    spec.consumer_response = kTau;
    spec.consumer_period = kTau;
    spec.consumer_sequence = sequence.make;
    spec.observe_firings = 2048;
    const auto minimum = exact_minimal_pair_capacity(spec, analysis_capacity);
    ASSERT_TRUE(minimum.has_value());
    EXPECT_EQ(*minimum, sequence.minimum);
    largest = std::max(largest, *minimum);
  }
  EXPECT_EQ(analysis_capacity - largest, 3);
}

TEST(ExactMinimal, SrcDacPairMinimumMatchesPaperValue) {
  // The SRC→DAC pair of the MP3 app: fully static, consumer strictly
  // periodic at 1/44100 s.  The true minimum is the paper's 882.
  PairSearchSpec spec;
  spec.production = RateSet::singleton(441);
  spec.consumption = RateSet::singleton(1);
  spec.producer_response = milliseconds(Rational(10));
  spec.consumer_response = period_of_hz(Rational(44100));
  spec.consumer_period = period_of_hz(Rational(44100));
  spec.observe_firings = 4096;
  const auto minimum = exact_minimal_pair_capacity(spec, 1024);
  ASSERT_TRUE(minimum.has_value());
  EXPECT_EQ(*minimum, 882);
}

TEST(ExactMinimal, NulloptWhenUpperBoundInfeasible) {
  PairSearchSpec spec;
  spec.production = RateSet::singleton(3);
  spec.consumption = RateSet::singleton(3);
  spec.producer_response = kTau * Rational(10);  // far too slow
  spec.consumer_response = kTau;
  spec.consumer_period = kTau;
  EXPECT_FALSE(exact_minimal_pair_capacity(spec, 8).has_value());
}

TEST(ExactMinimal, NeverExceedsAnalysisCapacity) {
  // The analysis capacity is sufficient, so the search (with the analysis
  // value as upper bound) must succeed at or below it — per sequence.
  const models::Fig1Vrdf model = models::make_fig1_vrdf(kTau, kTau, kTau);
  const analysis::GraphAnalysis chain_analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  ASSERT_TRUE(chain_analysis.admissible);
  const std::int64_t analysis_capacity = chain_analysis.pairs[0].capacity;

  for (const std::int64_t n : {2LL, 3LL}) {
    PairSearchSpec spec;
    spec.production = RateSet::singleton(3);
    spec.consumption = RateSet::of({2, 3});
    spec.producer_response = kTau;
    spec.consumer_response = kTau;
    spec.consumer_period = kTau;
    spec.consumer_sequence = [n] { return sim::constant_source(n); };
    const auto minimum = exact_minimal_pair_capacity(spec, analysis_capacity);
    ASSERT_TRUE(minimum.has_value()) << "n=" << n;
    EXPECT_LE(*minimum, analysis_capacity);
  }
}

}  // namespace
}  // namespace vrdf::baseline
