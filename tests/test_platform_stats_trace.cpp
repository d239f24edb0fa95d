// Tests for the TDM platform layer and trace export (CSV + VCD).
#include <gtest/gtest.h>

#include "analysis/buffer_sizing.hpp"
#include "io/trace.hpp"
#include "models/fig1.hpp"
#include "sched/platform.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf {
namespace {

using dataflow::RateSet;

TEST(Platform, BindingAndResponseTimes) {
  sched::Platform platform;
  const std::size_t p0 =
      platform.add_processor("dsp0", milliseconds(Rational(4)));
  platform.bind_task("decode", p0, milliseconds(Rational(1)),
                     milliseconds(Rational(2)));
  // κ = ceil(2/1)·(4−1) + 2 = 8 ms.
  EXPECT_EQ(platform.service_model("decode").response_time(),
            milliseconds(Rational(8)));
  EXPECT_EQ(platform.utilization(p0), Rational(1, 4));
  EXPECT_EQ(platform.slack(p0), milliseconds(Rational(3)));
}

TEST(Platform, RejectsOversubscription) {
  sched::Platform platform;
  const std::size_t p0 =
      platform.add_processor("dsp0", milliseconds(Rational(4)));
  platform.bind_task("t1", p0, milliseconds(Rational(3)),
                     milliseconds(Rational(1)));
  EXPECT_THROW(platform.bind_task("t2", p0, milliseconds(Rational(2)),
                                  milliseconds(Rational(1))),
               ContractError);
  // Exactly filling the wheel is fine.
  platform.bind_task("t3", p0, milliseconds(Rational(1)),
                     milliseconds(Rational(1)));
  EXPECT_EQ(platform.utilization(p0), Rational(1));
}

TEST(Platform, RejectsDuplicateBindingsAndUnknownLookups) {
  sched::Platform platform;
  const std::size_t p0 =
      platform.add_processor("dsp0", milliseconds(Rational(4)));
  platform.bind_task("t", p0, milliseconds(Rational(1)),
                     milliseconds(Rational(1)));
  EXPECT_THROW(platform.bind_task("t", p0, milliseconds(Rational(1)),
                                  milliseconds(Rational(1))),
               ContractError);
  EXPECT_THROW((void)platform.service_model("nope").response_time(),
               ContractError);
  EXPECT_THROW((void)platform.add_processor("dsp0", milliseconds(Rational(1))),
               ContractError);
}

TEST(Platform, DrivesChainAdmissibility) {
  // Two tasks on one processor: generous slots keep the chain admissible,
  // starving a task's slot breaks it.
  const auto build_and_check = [](Duration slot_a, Duration slot_b) {
    sched::Platform platform;
    const std::size_t dsp =
        platform.add_processor("dsp", milliseconds(Rational(2)));
    platform.bind_task("wa", dsp, slot_a, milliseconds(Rational(1)));
    platform.bind_task("wb", dsp, slot_b, milliseconds(Rational(1)));
    const models::Fig1Vrdf model =
        models::make_fig1_vrdf(milliseconds(Rational(8)),
                               platform.service_model("wa").response_time(),
                               platform.service_model("wb").response_time());
    return analysis::compute_buffer_capacities(model.graph, model.constraint)
        .admissible;
  };
  EXPECT_TRUE(build_and_check(milliseconds(Rational(1)),
                              milliseconds(Rational(1))));
  // A tiny slot blows up κ(wa) beyond φ(wa) = 8 ms:
  // ceil(1/(1/5))·(2−1/5)+1 = 10 ms.
  EXPECT_FALSE(build_and_check(milliseconds(Rational(1, 5)),
                               milliseconds(Rational(1))));
}

TEST(Platform, FullDesignFlowOnMp3) {
  // The complete deployment story: WCETs and TDM slots produce the kappa
  // values; the analysis then accepts the mapping iff every kappa fits its
  // pacing budget (51.2 / 24 / 10 ms, 1/44100 s).
  sched::Platform platform;
  const std::size_t io_proc =
      platform.add_processor("io", milliseconds(Rational(10)));
  const std::size_t dsp =
      platform.add_processor("dsp", milliseconds(Rational(2)));
  // vBR: C = 10 ms, 2 ms slot of a 10 ms wheel:
  //   kappa = ceil(5)*8 + 10 = 50 ms <= 51.2 ms.
  platform.bind_task("vBR", io_proc, milliseconds(Rational(2)),
                     milliseconds(Rational(10)));
  // vMP3: C = 6 ms, 1 ms slot of a 2 ms wheel: kappa = 6*1 + 6 = 12 <= 24.
  platform.bind_task("vMP3", dsp, milliseconds(Rational(1)),
                     milliseconds(Rational(6)));
  // vSRC: C = 2 ms, 1/2 ms slot: kappa = 4*(3/2) + 2 = 8 ms <= 10 ms.
  platform.bind_task("vSRC", dsp, milliseconds(Rational(1, 2)),
                     milliseconds(Rational(2)));
  // vDAC is dedicated hardware: kappa = 1/44100 s (no arbitration).

  dataflow::VrdfGraph graph;
  const auto kappa = [&](const char* task) {
    return platform.service_model(task).response_time();
  };
  const auto br = graph.add_actor("vBR", kappa("vBR"));
  const auto mp3 = graph.add_actor("vMP3", kappa("vMP3"));
  const auto src = graph.add_actor("vSRC", kappa("vSRC"));
  const auto dac = graph.add_actor("vDAC", period_of_hz(Rational(44100)));
  (void)graph.add_buffer(br, mp3, RateSet::singleton(2048),
                         RateSet::interval(0, 960));
  (void)graph.add_buffer(mp3, src, RateSet::singleton(1152),
                         RateSet::singleton(480));
  (void)graph.add_buffer(src, dac, RateSet::singleton(441),
                         RateSet::singleton(1));
  const analysis::ThroughputConstraint constraint{
      dac, period_of_hz(Rational(44100))};
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(graph, constraint);
  ASSERT_TRUE(sized.admissible);
  // Smaller kappas than the paper's maxima shrink the capacities.
  EXPECT_LT(sized.pairs[0].capacity, 6015);
  EXPECT_LT(sized.pairs[1].capacity, 3263);
  EXPECT_LE(sized.pairs[2].capacity, 882);

  // Oversubscribing vSRC's slot breaks admissibility through kappa alone:
  // 1/8 ms slot -> kappa = 16*(15/8) + 2 = 32 ms > 10 ms.
  sched::Platform bad;
  const std::size_t dsp2 = bad.add_processor("dsp", milliseconds(Rational(2)));
  bad.bind_task("vSRC", dsp2, milliseconds(Rational(1, 8)),
                milliseconds(Rational(2)));
  dataflow::VrdfGraph slow;
  const auto br2 = slow.add_actor("vBR", milliseconds(Rational(512, 10)));
  const auto mp32 = slow.add_actor("vMP3", milliseconds(Rational(24)));
  const auto src2 =
      slow.add_actor("vSRC", bad.service_model("vSRC").response_time());
  const auto dac2 = slow.add_actor("vDAC", period_of_hz(Rational(44100)));
  (void)slow.add_buffer(br2, mp32, RateSet::singleton(2048),
                        RateSet::interval(0, 960));
  (void)slow.add_buffer(mp32, src2, RateSet::singleton(1152),
                        RateSet::singleton(480));
  (void)slow.add_buffer(src2, dac2, RateSet::singleton(441),
                        RateSet::singleton(1));
  EXPECT_FALSE(analysis::compute_buffer_capacities(
                   slow, analysis::ThroughputConstraint{
                             dac2, period_of_hz(Rational(44100))})
                   .admissible);
}

struct TracedRun {
  dataflow::VrdfGraph graph;
  dataflow::ActorId a;
  dataflow::ActorId b;
  dataflow::BufferEdges buffer;
  std::unique_ptr<sim::Simulator> sim;
};

TracedRun traced_run() {
  TracedRun run;
  run.a = run.graph.add_actor("a", milliseconds(Rational(1)));
  run.b = run.graph.add_actor("b", milliseconds(Rational(2)));
  run.buffer = run.graph.add_buffer(run.a, run.b, RateSet::singleton(2),
                                    RateSet::singleton(2), 6);
  run.sim = std::make_unique<sim::Simulator>(run.graph);
  run.sim->set_default_sources(1);
  run.sim->record_firings(run.a);
  run.sim->record_firings(run.b);
  run.sim->record_transfers(run.buffer.data);
  run.sim->record_transfers(run.buffer.space);
  sim::StopCondition stop;
  stop.firing_target = sim::StopCondition::FiringTarget{run.b, 20};
  (void)run.sim->run(stop);
  return run;
}

TEST(Trace, OccupancyCsvTracksTokens) {
  const TracedRun run = traced_run();
  const std::string csv =
      io::occupancy_to_csv(*run.sim, run.graph, {run.buffer.data});
  EXPECT_EQ(csv.rfind("time_s,edge,tokens\n", 0), 0u);
  EXPECT_NE(csv.find("0,a->b,0\n"), std::string::npos);  // starts empty
  EXPECT_NE(csv.find(",a->b,2"), std::string::npos);     // fills to 2
}

}  // namespace
}  // namespace vrdf
