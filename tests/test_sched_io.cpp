// Tests for the arbiter response-time calculators and the io module
// (DOT export, text round-trip, table writer).
#include <gtest/gtest.h>

#include <random>

#include "analysis/buffer_sizing.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "io/table.hpp"
#include "io/text_format.hpp"
#include "models/fig1.hpp"
#include "models/mp3.hpp"
#include "sched/arbiter.hpp"
#include "util/error.hpp"

namespace vrdf {
namespace {

using dataflow::RateSet;

TEST(Arbiter, TdmSlotGranularBound) {
  // C = 2 ms, slot 1 ms out of every 4 ms: ceil(2/1)·(4−1)+2 = 8 ms.
  const sched::TdmAllocation tdm{milliseconds(Rational(1)),
                                 milliseconds(Rational(4))};
  EXPECT_EQ(tdm.response_time(milliseconds(Rational(2))),
            milliseconds(Rational(8)));
  // C smaller than one slot: one gap + C.
  EXPECT_EQ(tdm.response_time(milliseconds(Rational(1, 2))),
            milliseconds(Rational(7, 2)));
}

TEST(Arbiter, TdmLatencyRateNeverTighter) {
  const sched::TdmAllocation tdm{milliseconds(Rational(1)),
                                 milliseconds(Rational(4))};
  const sched::LatencyRateServer lr = tdm.as_latency_rate();
  EXPECT_EQ(lr.latency, milliseconds(Rational(3)));
  EXPECT_EQ(lr.rate, Rational(1, 4));
  for (const auto& wcet :
       {milliseconds(Rational(1, 2)), milliseconds(Rational(2)),
        milliseconds(Rational(5))}) {
    EXPECT_GE(lr.response_time(wcet), tdm.response_time(wcet));
  }
}

TEST(Arbiter, LatencyRateFormula) {
  const sched::LatencyRateServer lr{milliseconds(Rational(2)), Rational(1, 3)};
  // κ = 2 ms + 3·C.
  EXPECT_EQ(lr.response_time(milliseconds(Rational(4))),
            milliseconds(Rational(14)));
}

TEST(Arbiter, RoundRobinSumsAllWcets) {
  const std::vector<Duration> wcets{milliseconds(Rational(1)),
                                    milliseconds(Rational(2)),
                                    milliseconds(Rational(3))};
  EXPECT_EQ(sched::round_robin_response_time(wcets, 0),
            milliseconds(Rational(6)));
  EXPECT_EQ(sched::round_robin_response_time(wcets, 2),
            milliseconds(Rational(6)));
  EXPECT_THROW((void)sched::round_robin_response_time(wcets, 3), ContractError);
}

TEST(Arbiter, InputValidation) {
  const sched::TdmAllocation bad{milliseconds(Rational(4)),
                                 milliseconds(Rational(1))};
  EXPECT_THROW((void)bad.response_time(milliseconds(Rational(1))),
               ContractError);
  const sched::LatencyRateServer lr{milliseconds(Rational(1)), Rational(2)};
  EXPECT_THROW((void)lr.response_time(milliseconds(Rational(1))),
               ContractError);
}

TEST(Arbiter, ResponseTimesFeedTheAnalysis) {
  // End-to-end: two tasks share a processor under TDM; their κ values make
  // an admissible chain iff the pacing allows them.
  const sched::TdmAllocation slot_a{milliseconds(Rational(1)),
                                    milliseconds(Rational(2))};
  const Duration kappa = slot_a.response_time(milliseconds(Rational(1)));
  // κ = 1·(2−1)+1 = 2 ms.
  models::Fig1Vrdf model =
      models::make_fig1_vrdf(milliseconds(Rational(2)), kappa, kappa);
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraint);
  EXPECT_TRUE(analysis.admissible);
}

TEST(Dot, VrdfGraphExportContainsActorsAndEdges) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const std::string dot = io::to_dot(app.graph);
  EXPECT_NE(dot.find("digraph vrdf"), std::string::npos);
  EXPECT_NE(dot.find("vMP3"), std::string::npos);
  EXPECT_NE(dot.find("{2048} / [0,960]"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Dot, TaskGraphExportContainsCapacities) {
  models::Mp3TaskGraph app = models::make_mp3_task_graph();
  app.graph.set_capacity(app.b3, 882);
  const std::string dot = io::to_dot(app.graph);
  EXPECT_NE(dot.find("digraph taskgraph"), std::string::npos);
  EXPECT_NE(dot.find("zeta=882"), std::string::npos);
}

TEST(TextFormat, RoundTripPreservesModel) {
  const models::Mp3Playback app = models::make_mp3_playback();
  const std::string text = io::write_chain(app.graph, app.constraint);
  const io::ChainDocument parsed = io::read_chain(text);
  ASSERT_EQ(parsed.graph.actor_count(), 4u);
  ASSERT_EQ(parsed.graph.edge_count(), 6u);
  ASSERT_TRUE(parsed.constraint.has_value());
  EXPECT_EQ(parsed.constraint->period, period_of_hz(Rational(44100)));
  // The parsed model must produce the same capacities.
  const analysis::GraphAnalysis analysis = analysis::compute_buffer_capacities(
      parsed.graph, *parsed.constraint);
  ASSERT_TRUE(analysis.admissible);
  EXPECT_EQ(analysis.pairs[0].capacity, 6015);
  EXPECT_EQ(analysis.pairs[1].capacity, 3263);
  EXPECT_EQ(analysis.pairs[2].capacity, 882);
}

TEST(TextFormat, RoundTripPreservesCapacities) {
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(512, 10)));
  (void)g.add_buffer(a, b, RateSet::of({2, 5}), RateSet::interval(0, 7), 13);
  const std::string text = io::write_chain(g, std::nullopt);
  const io::ChainDocument parsed = io::read_chain(text);
  const auto view = parsed.graph.chain_view();
  ASSERT_TRUE(view.has_value());
  const dataflow::Edge& data = parsed.graph.edge(view->buffers[0].data);
  const dataflow::Edge& space = parsed.graph.edge(view->buffers[0].space);
  EXPECT_EQ(data.production, RateSet::of({2, 5}));
  EXPECT_EQ(data.consumption, RateSet::interval(0, 7));
  EXPECT_EQ(space.initial_tokens, 13);
  EXPECT_EQ(parsed.graph.actor(view->actors[1]).response_time,
            milliseconds(Rational(512, 10)));
}

TEST(TextFormat, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "vrdf-chain v1\n"
      "\n"
      "actor a rho=0.001   # trailing comment\n"
      "actor b rho=1/1000\n"
      "buffer a -> b pi={3} gamma={2,3}\n";
  const io::ChainDocument parsed = io::read_chain(text);
  EXPECT_EQ(parsed.graph.actor_count(), 2u);
  EXPECT_FALSE(parsed.constraint.has_value());
}

TEST(TextFormat, MalformedInputsRejectedWithLineNumbers) {
  EXPECT_THROW((void)io::read_chain(""), ModelError);
  EXPECT_THROW((void)io::read_chain("bogus v1\n"), ModelError);
  try {
    (void)io::read_chain("vrdf-chain v1\nactor a rho=0.001\nbuffer a -> zz pi={1} gamma={1}\n");
    FAIL();
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown actor"), std::string::npos);
  }
  EXPECT_THROW(
      (void)io::read_chain("vrdf-chain v1\nactor a rho=0.001\nactor b rho=1\n"
                           "buffer a -> b pi={1}\n"),
      ModelError);
  EXPECT_THROW(
      (void)io::read_chain("vrdf-chain v1\nwhatisthis\n"), ModelError);
}

TEST(Report, ContainsAllSections) {
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  const std::string report =
      io::analysis_report(app.graph, {app.constraint}, sized);
  EXPECT_NE(report.find("# Buffer-capacity analysis report"),
            std::string::npos);
  EXPECT_NE(report.find("## Pacing budget"), std::string::npos);
  EXPECT_NE(report.find("## Buffer capacities"), std::string::npos);
  EXPECT_NE(report.find("## Rate headroom"), std::string::npos);
  EXPECT_NE(report.find("6015"), std::string::npos);
  EXPECT_NE(report.find("tight"), std::string::npos);
  EXPECT_EQ(report.find("(!)"), std::string::npos);  // no mismatch
}

TEST(Report, FlagsInstalledCapacityMismatch) {
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  app.graph.set_initial_tokens(app.b2.space, 9999);
  const std::string report =
      io::analysis_report(app.graph, {app.constraint}, sized);
  EXPECT_NE(report.find("9999 (!)"), std::string::npos);
  EXPECT_NE(report.find("WARNING"), std::string::npos);
}

TEST(Report, RejectsInadmissibleAnalysis) {
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis bad = analysis::compute_buffer_capacities(
      app.graph,
      analysis::ThroughputConstraint{app.dac, period_of_hz(Rational(96000))});
  ASSERT_FALSE(bad.admissible);
  EXPECT_THROW(
      (void)io::analysis_report(
          app.graph,
          {analysis::ThroughputConstraint{app.dac,
                                          period_of_hz(Rational(96000))}},
          bad),
      ContractError);
}

TEST(Table, RendersAlignedColumns) {
  io::Table table({"buffer", "paper", "ours"});
  table.add_row({"d1", "6015", "6015"});
  table.add_row({"d2", "3263", "3263"});
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("| buffer | paper | ours |"), std::string::npos);
  EXPECT_NE(rendered.find("| d1     | 6015  | 6015 |"), std::string::npos);
  EXPECT_THROW(table.add_row({"too", "few"}), ContractError);
}

// ---- PR 10 satellites: latency-rate dominance property, error paths

TEST(ArbiterProperty, LatencyRateDominatesSlotGranularTdm) {
  // Randomized (slot, period, C): the latency-rate abstraction of a TDM
  // allocation is never tighter than the slot-granular bound.
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<std::int64_t> sixteenths(1, 16);
  std::uniform_int_distribution<std::int64_t> wcet_64ths(1, 128);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t s = sixteenths(rng);
    const Duration period = milliseconds(Rational(1 + trial % 7));
    const Duration slot(period.seconds() * Rational(s, 16));
    const Duration wcet(period.seconds() * Rational(wcet_64ths(rng), 64));
    const sched::TdmAllocation tdm{slot, period};
    const Duration exact = tdm.response_time(wcet);
    const Duration abstracted = tdm.as_latency_rate().response_time(wcet);
    EXPECT_FALSE((abstracted - exact).is_negative())
        << "slot " << s << "/16, wcet " << wcet.seconds().to_string()
        << " s: latency-rate " << abstracted.seconds().to_string()
        << " < slot-granular " << exact.seconds().to_string();
  }
}

TEST(ArbiterProperty, LatencyRateDominatesRoundRobinServiceModel) {
  // Same property through the uniform ServiceModel, round-robin side:
  // 2Σ − C ≥ Σ for any C ≤ Σ.
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<std::int64_t> wcet_64ths(1, 64);
  for (int trial = 0; trial < 200; ++trial) {
    sched::ServiceModel model;
    model.policy = sched::ArbiterPolicy::RoundRobin;
    const std::int64_t own = wcet_64ths(rng);
    model.wcet = milliseconds(Rational(own, 64));
    model.total_wcet = milliseconds(Rational(own + wcet_64ths(rng), 64));
    const Duration exact = model.response_time();
    const Duration abstracted =
        model.as_latency_rate().response_time(model.wcet);
    EXPECT_FALSE((abstracted - exact).is_negative());
  }
}

TEST(Platform, UnknownTaskAndProcessorErrorsAreLineAttributable) {
  sched::Platform platform;
  const auto cpu =
      platform.add_processor("cpu0", milliseconds(Rational(1)));
  platform.bind_task("known", cpu, milliseconds(Rational(1, 4)),
                     milliseconds(Rational(1, 8)));

  // Unknown task: the error names the task and carries the PR 4
  // file:line attribution suffix.
  try {
    (void)platform.response_time("ghost");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task 'ghost' is not bound"), std::string::npos)
        << what;
    EXPECT_NE(what.find("sched/platform.cpp:"), std::string::npos) << what;
  }

  // Out-of-range processor: the error names the index and the count.
  try {
    platform.bind_task("late", 7, milliseconds(Rational(1, 4)),
                       milliseconds(Rational(1, 8)));
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(
        what.find("processor index 7 out of range (platform has 1 processor"),
        std::string::npos)
        << what;
    EXPECT_NE(what.find("sched/platform.cpp:"), std::string::npos) << what;
  }

  EXPECT_THROW((void)platform.service_model("ghost"), ContractError);
  EXPECT_THROW(platform.set_slot("ghost", milliseconds(Rational(1, 4))),
               ContractError);
  EXPECT_THROW((void)platform.wheel_period(3), ContractError);
  EXPECT_THROW((void)platform.slack(3), ContractError);

  // Policy-mismatched bind overloads are rejected naming both sides.
  try {
    platform.bind_task("rr-style", cpu, milliseconds(Rational(1, 8)));
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("runs a tdm arbiter"), std::string::npos) << what;
    EXPECT_NE(what.find("rr-style"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vrdf
