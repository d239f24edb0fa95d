// Integration test: full reproduction of the paper's Sec 5 case study.
//
// The MP3 playback chain must yield
//  * maximal admissible response times 51.2 ms / 24 ms / 10 ms / (1/44100) s,
//  * VRDF capacities d1 = 6015, d2 = 3263, d3 = 882,
//  * traditional [10] capacities 5888 / 3072 / 882 (n fixed to 960),
// and the computed capacities must sustain strictly periodic 44.1 kHz DAC
// execution in simulation for representative and adversarial bit-rate
// sequences.  Around that point: the cost of the decoder's rate interval,
// the other rounding modes, and how full the sized buffers really get.
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "baseline/traditional.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/verify.hpp"

namespace vrdf {
namespace {

using analysis::AnalysisOptions;
using analysis::GraphAnalysis;
using analysis::RoundingMode;
using models::make_mp3_playback;
using models::Mp3PaperNumbers;
using models::Mp3Playback;

TEST(Mp3Reproduction, MaxAdmissibleResponseTimesMatchPaper) {
  const Mp3Playback app = make_mp3_playback();
  const auto budget =
      analysis::max_admissible_response_times(app.graph, {app.constraint});
  ASSERT_TRUE(budget.ok);
  ASSERT_EQ(budget.actors_in_order.size(), 4u);
  // Chain order is vBR, vMP3, vSRC, vDAC.
  EXPECT_EQ(budget.actors_in_order[0], app.br);
  EXPECT_EQ(budget.actors_in_order[3], app.dac);
  EXPECT_EQ(budget.max_response_times[0], milliseconds(Rational(512, 10)));
  EXPECT_EQ(budget.max_response_times[1], milliseconds(Rational(24)));
  EXPECT_EQ(budget.max_response_times[2], milliseconds(Rational(10)));
  EXPECT_EQ(budget.max_response_times[3], period_of_hz(Rational(44100)));
}

TEST(Mp3Reproduction, VrdfCapacitiesMatchPaper) {
  const Mp3Playback app = make_mp3_playback();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible) << analysis.diagnostics.size();
  ASSERT_EQ(analysis.pairs.size(), 3u);
  EXPECT_EQ(analysis.pairs[0].capacity, Mp3PaperNumbers::kVrdfCapacities[0]);
  EXPECT_EQ(analysis.pairs[1].capacity, Mp3PaperNumbers::kVrdfCapacities[1]);
  EXPECT_EQ(analysis.pairs[2].capacity, Mp3PaperNumbers::kVrdfCapacities[2]);

  // The Sec 3.1 task graph, through the Sec 3.3 construction, sizes the
  // same.
  const models::Mp3TaskGraph tasks = models::make_mp3_task_graph();
  const taskgraph::VrdfConstruction built = tasks.graph.to_vrdf();
  const GraphAnalysis via_tasks = analysis::compute_buffer_capacities(
      built.graph,
      analysis::ConstraintSet{analysis::ThroughputConstraint{
          built.actor_of_task[tasks.dac.index()], app.constraint.period}});
  ASSERT_TRUE(via_tasks.admissible);
  ASSERT_EQ(via_tasks.pairs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(via_tasks.pairs[i].capacity,
              Mp3PaperNumbers::kVrdfCapacities[i]);
  }
}

TEST(Mp3Reproduction, RawTokenCountsAreIntegral) {
  // The paper's arithmetic works out to exactly integral raw counts
  // x = {6014, 3262, 882}; any floating-point drift would break this.
  const Mp3Playback app = make_mp3_playback();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible);
  EXPECT_EQ(analysis.pairs[0].raw_tokens, Rational(6014));
  EXPECT_EQ(analysis.pairs[1].raw_tokens, Rational(3262));
  EXPECT_EQ(analysis.pairs[2].raw_tokens, Rational(882));
}

TEST(Mp3Reproduction, PaperLiteralRoundingOverprovisionsStaticPairByOne) {
  // ⌊x⌋+1 everywhere adds one container on the static pair over the
  // published table; plain ⌈x⌉ drops the +1 on the variable pairs too.
  const Mp3Playback app = make_mp3_playback();
  const struct {
    RoundingMode mode;
    std::int64_t d1, d2, d3, total;
  } rows[] = {
      {RoundingMode::PaperPublished, 6015, 3263, 882, 10160},
      {RoundingMode::PaperLiteral, 6015, 3263, 883, 10161},
      {RoundingMode::Ceil, 6014, 3262, 882, 10158},
  };
  for (const auto& row : rows) {
    AnalysisOptions options;
    options.rounding = row.mode;
    const GraphAnalysis analysis =
        analysis::compute_buffer_capacities(app.graph, app.constraint, options);
    ASSERT_TRUE(analysis.admissible);
    EXPECT_EQ(analysis.pairs[0].capacity, row.d1);
    EXPECT_EQ(analysis.pairs[1].capacity, row.d2);
    EXPECT_EQ(analysis.pairs[2].capacity, row.d3);
    EXPECT_EQ(analysis.total_capacity, row.total);
  }
}

/// The MP3 chain with the decoder consuming [n_min, n_max] bytes per
/// frame, response times re-derived as the maximal admissible values.
GraphAnalysis analyse_decoder_interval(std::int64_t n_min,
                                       std::int64_t n_max) {
  dataflow::VrdfGraph bare;
  const auto br = bare.add_actor("vBR", seconds(Rational(1)));
  const auto mp3 = bare.add_actor("vMP3", seconds(Rational(1)));
  const auto src = bare.add_actor("vSRC", seconds(Rational(1)));
  const auto dac = bare.add_actor("vDAC", seconds(Rational(1)));
  (void)bare.add_buffer(br, mp3, dataflow::RateSet::singleton(2048),
                        dataflow::RateSet::interval(n_min, n_max));
  (void)bare.add_buffer(mp3, src, dataflow::RateSet::singleton(1152),
                        dataflow::RateSet::singleton(480));
  (void)bare.add_buffer(src, dac, dataflow::RateSet::singleton(441),
                        dataflow::RateSet::singleton(1));
  const analysis::ThroughputConstraint constraint{
      dac, period_of_hz(Rational(44100))};
  const auto graph =
      models::with_scaled_response_times(bare, {constraint}, Rational(1));
  return analysis::compute_buffer_capacities(graph.value(), constraint);
}

TEST(Mp3Reproduction, CapacityVersusDecoderInterval) {
  // The sink-constrained analysis reads only the consumption maximum, so
  // d1/d2 are flat in n_min; the minimum only throttles vBR at run time.
  for (const std::int64_t n_min : {960, 720, 480, 240, 96, 0}) {
    const GraphAnalysis a = analyse_decoder_interval(n_min, 960);
    ASSERT_TRUE(a.admissible) << "n_min=" << n_min;
    EXPECT_EQ(a.pairs[0].capacity, 6015) << "n_min=" << n_min;
    EXPECT_EQ(a.pairs[1].capacity, 3263) << "n_min=" << n_min;
  }
  // A faster decoder maximum shrinks φ(vBR) and grows d1 linearly, 31 to
  // 127 containers above the constant-rate bound 2(p + c − gcd).
  const struct {
    std::int64_t n_max, d1, traditional_d1;
    Rational phi_br_ms;
  } rows[] = {
      {240, 4575, 4544, Rational(1024, 5)},
      {480, 5055, 4992, Rational(512, 5)},
      {720, 5535, 5504, Rational(1024, 15)},
      {960, 6015, 5888, Rational(256, 5)},
      {1440, 6975, 6912, Rational(512, 15)},
  };
  for (const auto& row : rows) {
    const GraphAnalysis a = analyse_decoder_interval(0, row.n_max);
    ASSERT_TRUE(a.admissible) << "n_max=" << row.n_max;
    EXPECT_EQ(a.pairs[0].capacity, row.d1) << "n_max=" << row.n_max;
    EXPECT_EQ(baseline::sriram_pair_capacity(2048, row.n_max),
              row.traditional_d1);
    EXPECT_EQ(a.pacing[0], milliseconds(row.phi_br_ms))
        << "n_max=" << row.n_max;
  }
}

TEST(Mp3Reproduction, TraditionalBaselineMatchesPaper) {
  const Mp3Playback app = make_mp3_playback();
  const auto traditional = baseline::traditional_capacities(app.graph);
  ASSERT_TRUE(traditional.ok);
  ASSERT_EQ(traditional.pairs.size(), 3u);
  EXPECT_EQ(traditional.pairs[0].capacity,
            Mp3PaperNumbers::kTraditionalCapacities[0]);
  EXPECT_EQ(traditional.pairs[1].capacity,
            Mp3PaperNumbers::kTraditionalCapacities[1]);
  EXPECT_EQ(traditional.pairs[2].capacity,
            Mp3PaperNumbers::kTraditionalCapacities[2]);
}

TEST(Mp3Reproduction, PacingIsTightOnEveryActor) {
  // The paper's response times are exactly the pacing; the admissibility
  // check must accept equality.
  const Mp3Playback app = make_mp3_playback();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible);
  for (std::size_t i = 0; i < analysis.actors_in_order.size(); ++i) {
    EXPECT_EQ(analysis.pacing[i],
              app.graph.actor(analysis.actors_in_order[i]).response_time);
  }
}

class Mp3Verification : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Mp3Verification, ComputedCapacitiesSustainPeriodicDac) {
  Mp3Playback app = make_mp3_playback();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(app.graph, analysis);

  sim::VerifyOptions options;
  options.observe_firings = 200000;  // ~4.5 s of audio
  options.default_seed = GetParam();
  const sim::VerifyResult result =
      sim::verify_throughput(app.graph, {app.constraint}, {}, options);
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_EQ(result.starvation_count, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomBitrates, Mp3Verification,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

TEST(Mp3Reproduction, AdversarialConstantLowBitrateSustainsPeriodicDac) {
  // n ≡ small constant forces the decoder to fire often and throttles vBR
  // via back-pressure — the situation Sec 2 describes.  Capacities must
  // still hold.
  Mp3Playback app = make_mp3_playback();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(app.graph, analysis);

  sim::VerifyOptions options;
  options.observe_firings = 100000;
  for (const std::int64_t n : {96LL, 250LL, 960LL}) {
    const sim::VerifyResult result = sim::verify_throughput(
        app.graph, {app.constraint},
        [&](sim::Simulator& s) {
          s.set_quantum_source(app.mp3, app.b1.data, sim::constant_source(n));
        },
        options);
    EXPECT_TRUE(result.ok) << "n=" << n << ": " << result.detail;
  }
}

TEST(Mp3Reproduction, PeakOccupancyStaysWithinCapacity) {
  // With the DAC strictly periodic on the verified offset, no buffer ever
  // holds more than its capacity; at the maximum bit-rate the static
  // SRC→DAC buffer is used to the last container.
  Mp3Playback app = make_mp3_playback();
  const GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(sized.admissible);
  analysis::apply_capacities(app.graph, sized);
  const dataflow::BufferEdges buffers[] = {app.b1, app.b2, app.b3};

  const auto peaks = [&](const auto& make_source) {
    const sim::VerifyResult verdict = sim::verify_throughput(
        app.graph, {app.constraint},
        [&](sim::Simulator& s) {
          s.set_quantum_source(app.mp3, app.b1.data, make_source());
        },
        {.observe_firings = 50000, .default_seed = 1});
    EXPECT_TRUE(verdict.ok) << verdict.detail;
    sim::Simulator periodic(app.graph);
    periodic.set_quantum_source(app.mp3, app.b1.data, make_source());
    periodic.set_default_sources(1);
    periodic.set_actor_mode(app.dac,
                            sim::ActorMode::strictly_periodic(
                                verdict.offset_used, app.constraint.period));
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{app.dac, 50000};
    (void)periodic.run(stop);
    std::vector<std::int64_t> out;
    for (std::size_t i = 0; i < 3; ++i) {
      out.push_back(periodic.edge_metrics(buffers[i].data).max_tokens);
      EXPECT_LE(out.back(), sized.pairs[i].capacity) << "d" << i + 1;
    }
    return out;
  };
  EXPECT_EQ(peaks([] { return sim::constant_source(960); })[2], 882);
  (void)peaks([] { return sim::constant_source(96); });
  (void)peaks([&] {
    return sim::uniform_random_source(app.graph.edge(app.b1.data).consumption,
                                      7);
  });
}

TEST(Mp3Reproduction, MinMaxAlternationSustainsPeriodicDac) {
  Mp3Playback app = make_mp3_playback();
  const GraphAnalysis analysis =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  ASSERT_TRUE(analysis.admissible);
  analysis::apply_capacities(app.graph, analysis);

  sim::VerifyOptions options;
  options.observe_firings = 100000;
  const sim::VerifyResult result = sim::verify_throughput(
      app.graph, {app.constraint},
      [&](sim::Simulator& s) {
        const auto& set = app.graph.edge(app.b1.data).consumption;
        s.set_quantum_source(app.mp3, app.b1.data,
                             sim::min_max_alternating_source(set));
      },
      options);
  EXPECT_TRUE(result.ok) << result.detail;
}

}  // namespace
}  // namespace vrdf
