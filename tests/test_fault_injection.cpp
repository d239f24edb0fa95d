// Fault injection, conformance monitoring and robustness margins:
//  * FaultPlan semantics (overruns, stalls, bursts, drop-outs) and
//    seeded replayability;
//  * ConformanceMonitor ρ-contract events, lateness grading and the
//    stall watchdog's blocked-cycle diagnosis;
//  * analysis::robustness_margins against installed capacities, and the
//    grid search behind every margin;
//  * the randomized validation harness: within-margin faults never
//    starve phase 2, beyond-margin faults are always detected and named,
//    lateness is monotone and linear in a single-firing stall delta —
//    across all five random model classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "analysis/buffer_sizing.hpp"
#include "analysis/grid_search.hpp"
#include "analysis/robustness.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "io/report.hpp"
#include "io/trace.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fleet.hpp"
#include "sim/monitor.hpp"
#include "sim/property_checks.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"

namespace vrdf {
namespace {

using analysis::RobustnessReport;
using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;
using models::make_random_model;
using models::ModelClass;
using models::RandomModelSpec;
using models::SyntheticModel;
using sim::ConformanceMonitor;
using sim::FaultPlan;
using sim::RunResult;
using sim::Simulator;
using sim::StopCondition;

/// Every actor's response time, by ActorId::index().
std::vector<Duration> response_times(const VrdfGraph& graph) {
  std::vector<Duration> rho;
  for (const ActorId v : graph.actors()) {
    rho.push_back(graph.actor(v).response_time);
  }
  return rho;
}

const Duration kMs = milliseconds(Rational(1));

struct Pipeline {
  VrdfGraph graph;
  ActorId producer;
  ActorId consumer;
  dataflow::BufferEdges buffer;
};

/// 1-in-1-out pipeline with enough capacity that the producer free-runs.
Pipeline make_pipeline(std::int64_t capacity = 64) {
  Pipeline p;
  p.producer = p.graph.add_actor("p", kMs);
  p.consumer = p.graph.add_actor("c", kMs);
  p.buffer = p.graph.add_buffer(p.producer, p.consumer, RateSet::singleton(1),
                                RateSet::singleton(1), capacity);
  return p;
}

std::vector<TimePoint> starts_under(const Pipeline& p, const FaultPlan& plan,
                                    ActorId actor, Duration horizon) {
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  sim.record_firings(p.consumer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + horizon;
  (void)sim.run(stop);
  std::vector<TimePoint> starts;
  for (const auto& record : sim.firings(actor)) {
    starts.push_back(record.start);
  }
  return starts;
}

const ModelClass kAllClasses[] = {
    ModelClass::Chain, ModelClass::ForkJoin, ModelClass::Cyclic,
    ModelClass::MultiConstraint, ModelClass::InteriorPinned};

using models::class_name;

/// The first actor not bound by any throughput constraint (every random
/// model has one: the classes pin only sources/sinks/one interior actor).
const analysis::ActorMargin& first_unconstrained_actor(
    const RobustnessReport& report) {
  for (const analysis::ActorMargin& m : report.actors) {
    bool constrained = false;
    for (const analysis::ThroughputConstraint& c : report.constraints) {
      constrained = constrained || c.actor == m.actor;
    }
    if (!constrained) {
      return m;
    }
  }
  return report.actors.front();
}

bool names_actor(const std::vector<sim::RhoViolation>& violations,
                 ActorId actor) {
  for (const sim::RhoViolation& v : violations) {
    if (v.actor == actor) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultInjection, RhoOverrunStretchesEveryAffectedFiring) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs / Rational(2));
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 4u);
  for (const auto& record : records) {
    EXPECT_EQ(record.finish - record.start, kMs * Rational(3, 2));
  }
}

TEST(FaultInjection, FactorScalesTheResponseTime) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, Duration(), Rational(3));
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].finish - records[0].start, kMs * Rational(3));
}

TEST(FaultInjection, TransientStallDelaysExactlyOneFiring) {
  Pipeline p = make_pipeline();
  FaultPlan faulted;
  faulted.transient_stall(p.producer, 3, kMs * Rational(4));
  const auto baseline =
      starts_under(p, FaultPlan{}, p.producer, kMs * Rational(30));
  const auto stalled =
      starts_under(p, faulted, p.producer, kMs * Rational(30));
  ASSERT_GE(baseline.size(), 6u);
  ASSERT_GE(stalled.size(), 6u);
  // Firings 0..3 start on time (the stall lengthens firing 3 itself);
  // every later firing is pushed back by exactly the outage.
  for (std::size_t k = 0; k <= 3; ++k) {
    EXPECT_EQ(stalled[k], baseline[k]) << "firing " << k;
  }
  for (std::size_t k = 4; k < std::min(baseline.size(), stalled.size()); ++k) {
    EXPECT_EQ(stalled[k] - baseline[k], kMs * Rational(4)) << "firing " << k;
  }
}

TEST(FaultInjection, ComposedFaultsAddUpPerFiring) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs).rho_overrun(p.producer, kMs * Rational(2));
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].finish - records[0].start, kMs * Rational(4));
}

TEST(FaultInjection, DescribeNamesActorsAndKinds) {
  Pipeline p = make_pipeline();
  FaultPlan plan(3);
  plan.rho_overrun(p.producer, kMs).transient_stall(p.consumer, 2, kMs);
  const std::string text = plan.describe(p.graph);
  EXPECT_NE(text.find("seed 3"), std::string::npos);
  EXPECT_NE(text.find("rho_overrun on 'p'"), std::string::npos);
  EXPECT_NE(text.find("transient_stall on 'c'"), std::string::npos);
}

// ------------------------------------------------------------------ Monitor

TEST(Monitor, CleanRunIsConformant) {
  Pipeline p = make_pipeline();
  analysis::ConstraintSet constraints;  // none: pure ρ/watchdog monitoring
  ConformanceMonitor monitor(p.graph, constraints);
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(50);
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);
  EXPECT_TRUE(monitor.report().rho_conformant);
  EXPECT_EQ(monitor.report().rho_violation_total, 0);
  EXPECT_FALSE(monitor.report().blockage.blocked);
}

TEST(Monitor, RhoViolationsNameTheOffendingActor) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs / Rational(2), Rational(1), 2, 3);
  ConformanceMonitor monitor(p.graph, {});
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(50);
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);

  const sim::MonitorReport& report = monitor.report();
  EXPECT_FALSE(report.rho_conformant);
  EXPECT_EQ(report.rho_violation_total, 3);  // firings 2, 3, 4
  ASSERT_EQ(report.rho_violations.size(), 3u);
  for (const sim::RhoViolation& v : report.rho_violations) {
    EXPECT_EQ(v.actor, p.producer);
    EXPECT_GE(v.firing, 2);
    EXPECT_LE(v.firing, 4);
    EXPECT_EQ(v.declared, kMs);
    EXPECT_EQ(v.observed, kMs * Rational(3, 2));
  }
  EXPECT_NE(report.summary.find("'p'"), std::string::npos);
}

TEST(Monitor, WatchdogNamesTheBlockedCycle) {
  // Capacity 2 < quantum 3: producer waits for space held by the
  // consumer, consumer waits for data held by the producer — a 2-cycle.
  VrdfGraph graph;
  const ActorId p = graph.add_actor("p", kMs);
  const ActorId c = graph.add_actor("c", kMs);
  (void)graph.add_buffer(p, c, RateSet::singleton(3), RateSet::singleton(3), 2);
  ConformanceMonitor monitor(graph, {});
  Simulator sim(graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs;
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);

  const sim::BlockageReport& blockage = monitor.report().blockage;
  ASSERT_TRUE(blockage.blocked);
  EXPECT_EQ(blockage.waits.size(), 2u);
  EXPECT_EQ(blockage.cycle.size(), 2u);
  EXPECT_NE(blockage.message.find("blocked cycle"), std::string::npos);
  EXPECT_NE(blockage.message.find("'p' waits for 3 free containers"),
            std::string::npos);
  EXPECT_NE(blockage.message.find("'c' waits for 3 tokens"),
            std::string::npos);
  EXPECT_EQ(monitor.report().summary, blockage.message);
}

TEST(Monitor, VerifyEmbedsTheWatchdogDiagnosisOnDeadlock) {
  VrdfGraph graph;
  const ActorId p = graph.add_actor("p", kMs);
  const ActorId c = graph.add_actor("c", kMs);
  (void)graph.add_buffer(p, c, RateSet::singleton(3), RateSet::singleton(3), 2);
  const analysis::ThroughputConstraint constraint{c, kMs};
  const sim::VerifyResult result = sim::verify_throughput(graph, {constraint});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("deadlock"), std::string::npos);
  EXPECT_NE(result.detail.find("'p' waits for 3 free containers"),
            std::string::npos);
}

TEST(Monitor, CsvEmittersAreStructured) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs, Rational(1), 0, 1);
  ConformanceMonitor monitor(
      p.graph, {analysis::ThroughputConstraint{p.consumer, kMs}});
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);

  ASSERT_FALSE(monitor.report().rho_violations.empty());
  EXPECT_EQ(monitor.report().rho_violations.front().actor, p.producer);
  EXPECT_EQ(monitor.report().rho_violations.front().firing, 0);
  const std::string conformance =
      io::conformance_to_csv(monitor.report(), p.graph);
  EXPECT_NE(conformance.find("actor,period_s,firings,late_firings"),
            std::string::npos);
  EXPECT_NE(conformance.find("\nc,"), std::string::npos);
}

// --------------------------------------------------------------- Robustness

TEST(Robustness, HeadroomAndMarginsOnASlackedModel) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 5;
  spec.capacity_headroom = 2;
  const SyntheticModel model = make_random_model(spec);
  const RobustnessReport report =
      analysis::robustness_margins(model.graph, model.constraints);
  ASSERT_TRUE(report.ok);
  ASSERT_FALSE(report.actors.empty());
  ASSERT_FALSE(report.buffers.empty());
  for (const analysis::BufferHeadroom& b : report.buffers) {
    EXPECT_EQ(b.headroom, 2);
    EXPECT_EQ(b.installed, b.required + 2);
  }
  bool any_positive = false;
  for (const analysis::ActorMargin& m : report.actors) {
    EXPECT_FALSE(m.margin.is_negative());
    EXPECT_LE(m.response_time + m.margin, m.max_response_time);
    any_positive = any_positive || m.margin.is_positive();
  }
  EXPECT_TRUE(any_positive);
  EXPECT_FALSE(report.joint_safe_fraction.is_negative());
  EXPECT_LE(report.joint_safe_fraction, Rational(1));
}

TEST(Robustness, TightModelHasZeroMargins) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 3;
  spec.response_fraction = Rational(1);  // ρ = φ: no slack anywhere
  const SyntheticModel model = make_random_model(spec);
  const RobustnessReport report =
      analysis::robustness_margins(model.graph, model.constraints);
  ASSERT_TRUE(report.ok);
  for (const analysis::ActorMargin& m : report.actors) {
    EXPECT_TRUE(m.margin.is_zero());
    EXPECT_EQ(m.response_time, m.max_response_time);
  }
}

TEST(Robustness, UndersizedCapacitiesAreRejected) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 9;
  SyntheticModel model = make_random_model(spec);
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraints);
  ASSERT_TRUE(analysis.admissible);
  // Steal one container from the first buffer's space edge.
  const dataflow::EdgeId space = analysis.pairs.front().buffer.space;
  const std::int64_t installed = model.graph.edge(space).initial_tokens;
  ASSERT_GT(installed, 0);
  model.graph.set_initial_tokens(space, installed - 1);
  const RobustnessReport report =
      analysis::robustness_margins(model.graph, model.constraints);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics.front().find("below the analysed requirement"),
            std::string::npos);
}

TEST(Robustness, ReportContainsTheMarginsSection) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::InteriorPinned;
  spec.seed = 2;
  spec.capacity_headroom = 1;
  const SyntheticModel model = make_random_model(spec);
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraints);
  ASSERT_TRUE(analysis.admissible);
  const std::string report =
      io::analysis_report(model.graph, model.constraints, analysis);
  EXPECT_NE(report.find("## Robustness margins"), std::string::npos);
  EXPECT_NE(report.find("tolerable overrun"), std::string::npos);
  EXPECT_NE(report.find("headroom"), std::string::npos);

  const RobustnessReport margins =
      analysis::robustness_margins(model.graph, model.constraints);
  ASSERT_TRUE(margins.ok);
  const std::string csv = io::margins_to_csv(margins, model.graph);
  EXPECT_NE(csv.find("actor,rho_s,phi_s,margin_s"), std::string::npos);
  EXPECT_NE(csv.find("buffer,required,installed,headroom"), std::string::npos);
}

// ---------------------------------------------- Robustness: the grid search

TEST(Robustness, GridSearchFindsEveryThresholdFromAnyHint) {
  // The search behind every margin, on the margins' 64-step grid: for
  // every threshold and every hint, clamped ones included, and refine
  // predictions inside and outside the bracket, it returns the threshold
  // without probing grid point 0 (known to hold) or any point twice.  An
  // exact hint costs at most two probes.
  constexpr std::int64_t kGrid = 64;
  int most_probes = 0;
  for (std::int64_t threshold = 0; threshold <= kGrid; ++threshold) {
    const std::vector<std::function<std::int64_t(std::int64_t)>> refines = {
        [&](std::int64_t) { return threshold; },
        [&](std::int64_t) { return threshold - 3; },
        [&](std::int64_t) { return threshold + 3; },
        [](std::int64_t failed) { return failed; },
        [](std::int64_t failed) { return failed / 2; },
        [](std::int64_t) { return std::int64_t{-100}; },
        [](std::int64_t) { return std::int64_t{1000}; },
    };
    for (std::int64_t hint = -2; hint <= kGrid + 2; ++hint) {
      for (std::size_t r = 0; r < refines.size(); ++r) {
        SCOPED_TRACE("threshold " + std::to_string(threshold) + " hint " +
                     std::to_string(hint) + " refine " + std::to_string(r));
        std::vector<bool> probed(kGrid + 1, false);
        int probes = 0;
        const std::int64_t got = analysis::detail::largest_holding_point(
            kGrid, hint,
            [&](std::int64_t k) {
              ++probes;
              const bool on_grid = k >= 1 && k <= kGrid;
              EXPECT_TRUE(on_grid) << "probed " << k;
              EXPECT_FALSE(on_grid && probed[k]) << "probed " << k << " twice";
              if (on_grid) {
                probed[k] = true;
              }
              return k <= threshold;
            },
            refines[r]);
        ASSERT_EQ(got, threshold);
        most_probes = std::max(most_probes, probes);
        if (std::clamp<std::int64_t>(hint, 0, kGrid) == threshold) {
          EXPECT_LE(probes, 2);
        }
        if ((threshold == kGrid && hint == kGrid) ||
            (threshold == 0 && hint == 1)) {
          EXPECT_EQ(probes, 1);
        }
      }
    }
  }
  // Hint and its successor, the top, refine and its successor, then
  // bisection of at most 62 points.
  EXPECT_LE(most_probes, 11);
}

// ------------------------------------- Robustness: per-probe reference check

constexpr std::int64_t kReferenceGrid = 64;

/// The margin search as one full re-analysis per probe: a graph copy
/// carrying the probed ρ, a one-shot compute_buffer_capacities, and φ from
/// max_admissible_response_times.  robustness_margins answers the same
/// probes from one snapshot and the incremental engine, so the two must
/// agree field for field.  Counts its probes in report.probes, and the
/// probes whose re-analysis came out inadmissible (not merely over the
/// installed capacities).
struct ReferenceMargins {
  RobustnessReport report;
  int inadmissible_probes = 0;
};

/// One full re-analysis of `probe` against the capacities installed in
/// it: true when the analysis is admissible and every pair fits.  Counts
/// inadmissible re-analyses in `inadmissible`.
bool fits_installed(const VrdfGraph& probe,
                    const analysis::ConstraintSet& constraints,
                    int& inadmissible) {
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(probe, constraints);
  if (!analysis.admissible) {
    ++inadmissible;
    return false;
  }
  for (const analysis::PairAnalysis& pair : analysis.pairs) {
    if (pair.capacity > probe.buffer_capacity(pair.buffer)) {
      return false;
    }
  }
  return true;
}

ReferenceMargins reference_margins(const VrdfGraph& graph,
                                   const analysis::ConstraintSet& constraints) {
  ReferenceMargins ref;
  RobustnessReport& report = ref.report;
  report.constraints = constraints;
  const auto fits = [&](const VrdfGraph& probe) {
    ++report.probes;
    return fits_installed(probe, constraints, ref.inadmissible_probes);
  };
  const auto max_true = [](const auto& holds) {
    if (holds(kReferenceGrid)) {
      return kReferenceGrid;
    }
    std::int64_t lo = 0;
    std::int64_t hi = kReferenceGrid;
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      (holds(mid) ? lo : hi) = mid;
    }
    return lo;
  };

  const analysis::GraphAnalysis baseline =
      analysis::compute_buffer_capacities(graph, constraints);
  if (!baseline.admissible) {
    report.diagnostics = baseline.diagnostics;
    report.diagnostics.push_back(
        "robustness margins undefined: baseline analysis inadmissible");
    return ref;
  }
  bool installed_ok = true;
  for (const analysis::PairAnalysis& pair : baseline.pairs) {
    analysis::BufferHeadroom headroom;
    headroom.buffer = pair.buffer;
    headroom.producer = pair.producer;
    headroom.consumer = pair.consumer;
    headroom.required = pair.capacity;
    headroom.installed = graph.buffer_capacity(pair.buffer);
    headroom.headroom = headroom.installed - headroom.required;
    if (headroom.headroom < 0) {
      installed_ok = false;
      report.diagnostics.push_back(
          "installed capacity of buffer " + graph.actor(pair.producer).name +
          "->" + graph.actor(pair.consumer).name + " (" +
          std::to_string(headroom.installed) +
          ") is below the analysed requirement (" +
          std::to_string(headroom.required) + ")");
    }
    report.buffers.push_back(headroom);
  }
  const analysis::ResponseTimeBudget budget =
      analysis::max_admissible_response_times(graph, constraints);
  if (!budget.ok) {
    report.diagnostics.insert(report.diagnostics.end(),
                              budget.diagnostics.begin(),
                              budget.diagnostics.end());
    return ref;
  }
  for (std::size_t i = 0; i < budget.actors_in_order.size(); ++i) {
    const ActorId v = budget.actors_in_order[i];
    report.actors.push_back(analysis::ActorMargin{
        v, graph.actor(v).response_time, budget.max_response_times[i],
        Duration()});
  }
  if (!installed_ok) {
    return ref;
  }
  for (analysis::ActorMargin& margin : report.actors) {
    const Duration slack = margin.max_response_time - margin.response_time;
    if (slack.is_positive()) {
      std::vector<Duration> rho = response_times(graph);
      const std::int64_t best = max_true([&](std::int64_t k) {
        rho[margin.actor.index()] =
            margin.response_time + slack * Rational(k, kReferenceGrid);
        return fits(models::with_response_times(graph, rho));
      });
      margin.margin = slack * Rational(best, kReferenceGrid);
    }
  }
  const std::int64_t joint = max_true([&](std::int64_t k) {
    std::vector<Duration> rho = response_times(graph);
    for (const analysis::ActorMargin& m : report.actors) {
      const Duration slack = m.max_response_time - m.response_time;
      if (slack.is_positive()) {
        rho[m.actor.index()] =
            m.response_time + slack * Rational(k, kReferenceGrid);
      }
    }
    return fits(models::with_response_times(graph, rho));
  });
  report.joint_safe_fraction = Rational(joint, kReferenceGrid);
  report.ok = true;
  return ref;
}

void expect_same_report(const RobustnessReport& got,
                        const RobustnessReport& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.diagnostics, want.diagnostics);
  ASSERT_EQ(got.constraints.size(), want.constraints.size());
  for (std::size_t i = 0; i < got.constraints.size(); ++i) {
    EXPECT_EQ(got.constraints[i].actor, want.constraints[i].actor);
    EXPECT_EQ(got.constraints[i].period, want.constraints[i].period);
  }
  ASSERT_EQ(got.actors.size(), want.actors.size());
  for (std::size_t i = 0; i < got.actors.size(); ++i) {
    SCOPED_TRACE("actor position " + std::to_string(i));
    EXPECT_EQ(got.actors[i].actor, want.actors[i].actor);
    EXPECT_EQ(got.actors[i].response_time, want.actors[i].response_time);
    EXPECT_EQ(got.actors[i].max_response_time,
              want.actors[i].max_response_time);
    EXPECT_EQ(got.actors[i].margin, want.actors[i].margin);
  }
  ASSERT_EQ(got.buffers.size(), want.buffers.size());
  for (std::size_t i = 0; i < got.buffers.size(); ++i) {
    SCOPED_TRACE("buffer position " + std::to_string(i));
    EXPECT_EQ(got.buffers[i].buffer.data, want.buffers[i].buffer.data);
    EXPECT_EQ(got.buffers[i].buffer.space, want.buffers[i].buffer.space);
    EXPECT_EQ(got.buffers[i].producer, want.buffers[i].producer);
    EXPECT_EQ(got.buffers[i].consumer, want.buffers[i].consumer);
    EXPECT_EQ(got.buffers[i].required, want.buffers[i].required);
    EXPECT_EQ(got.buffers[i].installed, want.buffers[i].installed);
    EXPECT_EQ(got.buffers[i].headroom, want.buffers[i].headroom);
  }
  EXPECT_EQ(got.joint_safe_fraction, want.joint_safe_fraction);
}

/// Installs the analysed capacities of `graph` plus `headroom` extra
/// containers per buffer.
void install_capacities(VrdfGraph& graph,
                        const analysis::ConstraintSet& constraints,
                        std::int64_t headroom) {
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(graph, constraints);
  ASSERT_TRUE(sized.admissible);
  analysis::apply_capacities(graph, sized);
  for (const analysis::PairAnalysis& pair : sized.pairs) {
    graph.set_initial_tokens(
        pair.buffer.space,
        graph.edge(pair.buffer.space).initial_tokens + headroom);
  }
}

/// Halves every actor's response time, leaving each one slack to search.
void halve_response_times(VrdfGraph& graph) {
  std::vector<Duration> rho = response_times(graph);
  for (Duration& r : rho) {
    r = r * Rational(1, 2);
  }
  graph = models::with_response_times(graph, rho);
}

/// A model with installed capacities, searched by the margin tests.
struct MarginFixture {
  VrdfGraph graph;
  analysis::ConstraintSet constraints;
};

/// The dual-presenter A/V pipeline (two constraints) with every ρ halved
/// and one spare container per buffer.
MarginFixture halved_av_fixture() {
  models::AvDualSinkPipeline av = models::make_av_dual_sink_pipeline();
  halve_response_times(av.graph);
  install_capacities(av.graph, av.constraints, 1);
  return {std::move(av.graph), av.constraints};
}

/// The cyclic feedback pipeline with every ρ halved so the loop has
/// slack, primed with exactly the credits it needs: an overrun on the
/// loop makes the re-analysis inadmissible before it outgrows any
/// installed capacity.  `headroom` spare containers per buffer.
MarginFixture primed_feedback_fixture(std::int64_t headroom) {
  models::FeedbackPipeline fb = models::make_feedback_pipeline();
  const analysis::ConstraintSet constraints{fb.constraint};
  halve_response_times(fb.graph);
  for (const analysis::PairAnalysis& pair :
       analysis::compute_buffer_capacities(fb.graph, constraints).pairs) {
    if (pair.is_feedback) {
      fb.graph.set_initial_tokens(pair.buffer.data,
                                  pair.required_initial_tokens);
    }
  }
  install_capacities(fb.graph, constraints, headroom);
  return {std::move(fb.graph), constraints};
}

constexpr std::uint64_t kReferenceSeeds = 8;

TEST(Robustness, MarginsMatchPerProbeFullRecompute) {
  int random_models = 0;
  int cyclic_inadmissible_probes = 0;
  std::int64_t probes = 0;
  std::int64_t reference_probes = 0;
  for (const ModelClass model_class : kAllClasses) {
    for (const std::int64_t headroom : {0, 1, 2}) {
      for (std::uint64_t seed = 1; seed <= kReferenceSeeds; ++seed) {
        SCOPED_TRACE(std::string(class_name(model_class)) + " headroom " +
                     std::to_string(headroom) + " seed " +
                     std::to_string(seed));
        RandomModelSpec spec;
        spec.model_class = model_class;
        spec.seed = seed;
        spec.capacity_headroom = headroom;
        spec.source_constrained = (seed % 2) == 0;
        const SyntheticModel model = make_random_model(spec);
        const ReferenceMargins want =
            reference_margins(model.graph, model.constraints);
        ASSERT_TRUE(want.report.ok);
        const RobustnessReport got =
            analysis::robustness_margins(model.graph, model.constraints);
        expect_same_report(got, want.report);
        probes += got.probes;
        reference_probes += want.report.probes;
        if (model_class == ModelClass::Cyclic) {
          cyclic_inadmissible_probes += want.inadmissible_probes;
        }
        ++random_models;
      }
    }
  }
  EXPECT_EQ(random_models, 5 * 3 * static_cast<int>(kReferenceSeeds));
  // Some cyclic probes must fail admissibility (the back-edge's tokens no
  // longer cover the inflated loop), not just the installed capacities.
  EXPECT_GT(cyclic_inadmissible_probes, 0);
  // Searches aimed at the baseline's prediction find the same margins in
  // at most 35% of the plain bisection's probes (measured: 1,458 of 4,785).
  EXPECT_LE(100 * probes, 35 * reference_probes)
      << probes << " probes vs the reference's " << reference_probes;

  {
    SCOPED_TRACE("dual-presenter A/V (two constraints)");
    const MarginFixture av = halved_av_fixture();
    const ReferenceMargins want = reference_margins(av.graph, av.constraints);
    ASSERT_TRUE(want.report.ok);
    EXPECT_GT(want.report.joint_safe_fraction, Rational(0));
    expect_same_report(analysis::robustness_margins(av.graph, av.constraints),
                       want.report);
  }
  {
    SCOPED_TRACE("feedback pipeline (cyclic)");
    const MarginFixture fb = primed_feedback_fixture(0);
    const ReferenceMargins want = reference_margins(fb.graph, fb.constraints);
    ASSERT_TRUE(want.report.ok);
    EXPECT_GT(want.inadmissible_probes, 0);
    expect_same_report(analysis::robustness_margins(fb.graph, fb.constraints),
                       want.report);
  }
  {
    SCOPED_TRACE("undersized capacities");
    RandomModelSpec spec;
    spec.model_class = ModelClass::ForkJoin;
    spec.seed = 4;
    SyntheticModel model = make_random_model(spec);
    const dataflow::EdgeId space =
        analysis::compute_buffer_capacities(model.graph, model.constraints)
            .pairs.front()
            .buffer.space;
    model.graph.set_initial_tokens(
        space, model.graph.edge(space).initial_tokens - 1);
    const ReferenceMargins want =
        reference_margins(model.graph, model.constraints);
    ASSERT_FALSE(want.report.ok);
    expect_same_report(
        analysis::robustness_margins(model.graph, model.constraints),
        want.report);
  }
}

TEST(Robustness, JointFractionBoundedByEachActorsMargin) {
  // The joint fraction never exceeds any actor's own margin fraction on
  // these models.  This is measured, not derived: only the fits
  // predicate is monotone along each search direction, and per-pair
  // capacities are not monotone in ρ (fork-join seed 8, sink mode:
  // raising ρ(s0_b1_1) takes s0_pre_0 -> s0_b1_0 from 23 to 22).
  // Margins are resolved on the 64-step grid.
  int partial_joint = 0;  // 0 < joint fraction < 1: the bound can bind
  for (const ModelClass model_class : kAllClasses) {
    for (const std::int64_t headroom : {0, 1, 2}) {
      for (std::uint64_t seed = 1; seed <= kReferenceSeeds; ++seed) {
        SCOPED_TRACE(std::string(class_name(model_class)) + " headroom " +
                     std::to_string(headroom) + " seed " +
                     std::to_string(seed));
        RandomModelSpec spec;
        spec.model_class = model_class;
        spec.seed = seed;
        spec.capacity_headroom = headroom;
        const SyntheticModel model = make_random_model(spec);
        const RobustnessReport report =
            analysis::robustness_margins(model.graph, model.constraints);
        ASSERT_TRUE(report.ok);
        partial_joint += report.joint_safe_fraction.is_positive() &&
                         report.joint_safe_fraction < Rational(1);
        for (const analysis::ActorMargin& m : report.actors) {
          const Duration slack = m.max_response_time - m.response_time;
          if (!slack.is_positive()) {
            EXPECT_TRUE(m.margin.is_zero());
            continue;
          }
          EXPECT_LE(slack * report.joint_safe_fraction, m.margin)
              << model.graph.actor(m.actor).name;
          const Rational steps = m.margin / slack * Rational(kReferenceGrid);
          EXPECT_TRUE(steps.is_integer()) << model.graph.actor(m.actor).name;
          EXPECT_LE(steps, Rational(kReferenceGrid));
        }
      }
    }
  }
  EXPECT_GT(partial_joint, 0);
}

TEST(Robustness, MarginIsTheLargestFittingGridPoint) {
  // Every margin search assumes its predicate is monotone in the grid
  // index: once a grid point misses the installed capacities, no larger
  // one fits again.  Evaluate all 65 points of every search by full
  // re-analysis, check that, and check that each reported margin and the
  // joint fraction is the last point that fits.
  int searches = 0;
  int interior = 0;  // thresholds strictly inside the grid
  const auto check = [&](const VrdfGraph& graph,
                         const analysis::ConstraintSet& constraints) {
    const RobustnessReport report =
        analysis::robustness_margins(graph, constraints);
    ASSERT_TRUE(report.ok);
    int inadmissible = 0;
    // The last grid point at which set_point(rho, k) fits.
    const auto last_fit = [&](const auto& set_point) {
      std::vector<Duration> rho = response_times(graph);
      std::int64_t last = -1;
      bool missed = false;
      for (std::int64_t k = 0; k <= kReferenceGrid; ++k) {
        set_point(rho, k);
        const bool fits =
            fits_installed(models::with_response_times(graph, rho),
                           constraints, inadmissible);
        EXPECT_FALSE(fits && missed) << "grid point " << k << " fits again";
        missed = missed || !fits;
        last = fits ? k : last;
      }
      EXPECT_GE(last, 0);
      ++searches;
      interior += last > 0 && last < kReferenceGrid;
      return last;
    };
    for (const analysis::ActorMargin& m : report.actors) {
      const Duration slack = m.max_response_time - m.response_time;
      if (!slack.is_positive()) {
        continue;
      }
      SCOPED_TRACE(graph.actor(m.actor).name);
      const std::int64_t last =
          last_fit([&](std::vector<Duration>& rho, std::int64_t k) {
            rho[m.actor.index()] =
                m.response_time + slack * Rational(k, kReferenceGrid);
          });
      EXPECT_EQ(m.margin, slack * Rational(last, kReferenceGrid));
    }
    SCOPED_TRACE("joint fraction");
    const std::int64_t joint =
        last_fit([&](std::vector<Duration>& rho, std::int64_t k) {
          for (const analysis::ActorMargin& m : report.actors) {
            const Duration slack = m.max_response_time - m.response_time;
            if (slack.is_positive()) {
              rho[m.actor.index()] =
                  m.response_time + slack * Rational(k, kReferenceGrid);
            }
          }
        });
    EXPECT_EQ(report.joint_safe_fraction, Rational(joint, kReferenceGrid));
  };

  // The baseline's prediction misses by two or more grid points, both
  // ways, in seed 13's fork-join model (headroom 0: actor s0_b0_0 is
  // predicted at 12 and fits to 25, s0_b1_1 at 25 and fits to 12) and its
  // cyclic model, so the search must go on past the first hint, not
  // trust it.
  for (const ModelClass model_class : kAllClasses) {
    for (const std::int64_t headroom : {0, 1}) {
      for (const std::uint64_t seed : {1, 2, 13}) {
        SCOPED_TRACE(std::string(class_name(model_class)) + " headroom " +
                     std::to_string(headroom) + " seed " +
                     std::to_string(seed));
        RandomModelSpec spec;
        spec.model_class = model_class;
        spec.seed = seed;
        spec.capacity_headroom = headroom;
        spec.source_constrained = (seed % 2) == 0;
        const SyntheticModel model = make_random_model(spec);
        check(model.graph, model.constraints);
      }
    }
  }
  {
    SCOPED_TRACE("dual-presenter A/V (two constraints)");
    const MarginFixture av = halved_av_fixture();
    check(av.graph, av.constraints);
  }
  {
    SCOPED_TRACE("feedback pipeline (cyclic)");
    const MarginFixture fb = primed_feedback_fixture(0);
    check(fb.graph, fb.constraints);
  }
  {
    // With ample containers only the back-edge's credit can fail a
    // probe: the baseline predicts the top, and when the top fails no
    // pair has risen over its capacity, so the search goes on from the
    // midpoint instead of a secant.
    SCOPED_TRACE("feedback pipeline (cyclic), ample capacities");
    const MarginFixture fb = primed_feedback_fixture(1000);
    check(fb.graph, fb.constraints);
  }
  EXPECT_GT(interior, 0);
  EXPECT_GT(searches, interior);
}

// ---------------------------------------------------------- Randomized sweep

constexpr std::uint64_t kSweepSeeds = 40;

TEST(RandomizedSweep, WithinMarginFaultsNeverStarvePhase2) {
  // The faulted fleet sweep (PR 8): every item computes its robustness
  // margins, injects the entire tolerable overrun of the largest-margin
  // actor on every firing — the exact margin boundary, the strongest
  // within-margin stress — and verifies under the monitor.  All five
  // classes, headroom levels 0 and 2, 40 seeds each: 400 graphs, double
  // the old single-threaded loop.  The constraint must hold everywhere
  // (zero phase-2 starvations) while the monitor names every positive-
  // margin breach.
  sim::SweepSpec spec;
  spec.seeds_per_class = static_cast<std::int64_t>(kSweepSeeds);
  spec.headroom_levels = {0, 2};
  spec.observe_firings = 200;
  spec.faulted = true;
  const sim::FleetReport report = sim::FleetSweep(spec).run(4);
  EXPECT_EQ(report.total_items, 400);
  ASSERT_EQ(report.passed, report.total_items) << sim::canonical_text(report);
  EXPECT_EQ(report.starvations, 0);

  // The monitor still names the contract breach even though the
  // constraint held — for every item whose injected margin was positive.
  EXPECT_GT(report.faults_expected, 0);
  EXPECT_EQ(report.faults_named, report.faults_expected)
      << sim::canonical_text(report);
}

TEST(RandomizedSweep, BeyondMarginFaultsAreDetectedAndNamed) {
  for (const ModelClass model_class : kAllClasses) {
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      SCOPED_TRACE(std::string(class_name(model_class)) + " seed " +
                   std::to_string(seed));
      RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      spec.capacity_headroom = static_cast<std::int64_t>(seed % 3);
      // With zero-token consumptions excluded, every constrained firing
      // demands at least one token from its feed buffer, so the demand
      // rate is bounded below by one token per period.
      spec.zero_percent = 0;
      const SyntheticModel model = make_random_model(spec);
      const RobustnessReport margins =
          analysis::robustness_margins(model.graph, model.constraints);
      ASSERT_TRUE(margins.ok);

      // An overrun on an arbitrary actor need not break the constraint —
      // the analysis is conservative and headroom or pipelining can absorb
      // even multiples of phi.  Token conservation gives a bound no amount
      // of buffering can evade: a buffer's long-run supply rate is at most
      // installed / rho'.  Slow the constrained actor's feeding producer
      // until that bound sits strictly below one token per period.
      const analysis::ThroughputConstraint& constraint =
          model.constraints.front();
      const analysis::BufferHeadroom* feed = nullptr;
      for (const analysis::BufferHeadroom& buffer : margins.buffers) {
        if (buffer.consumer != constraint.actor) {
          continue;
        }
        const bool producer_constrained = std::any_of(
            model.constraints.begin(), model.constraints.end(),
            [&](const analysis::ThroughputConstraint& c) {
              return c.actor == buffer.producer;
            });
        if (!producer_constrained) {
          feed = &buffer;
          break;
        }
      }
      ASSERT_NE(feed, nullptr);
      const Duration beyond =
          constraint.period * Rational(4 * (feed->installed + 1));
      FaultPlan plan;
      plan.rho_overrun(feed->producer, beyond);
      sim::VerifyOptions options;
      options.observe_firings = 200;
      options.monitor = true;
      const sim::VerifyResult result = sim::verify_throughput(
          model.graph, model.constraints,
          [&](Simulator& sim) { plan.apply(sim); }, options);

      // Detected: never a silently passing run, never a bare hang.
      ASSERT_FALSE(result.ok);
      EXPECT_FALSE(result.detail.empty());
      ASSERT_TRUE(result.monitor.has_value());
      const sim::MonitorReport& report = *result.monitor;
      // Named: the ρ-contract events point at the injected actor, and the
      // constraint grading or the watchdog reports the consequence.
      EXPECT_FALSE(report.rho_conformant);
      EXPECT_TRUE(names_actor(report.rho_violations, feed->producer));
      EXPECT_TRUE(result.starvation_count > 0 || report.blockage.blocked)
          << result.detail;
      EXPECT_NE(report.summary, "all constraints conformant");
    }
  }
}

TEST(RandomizedSweep, LatenessMonotoneAndLinearInStallDelta) {
  for (const ModelClass model_class : kAllClasses) {
    SCOPED_TRACE(class_name(model_class));
    RandomModelSpec spec;
    spec.model_class = model_class;
    spec.seed = 11;
    const SyntheticModel model = make_random_model(spec);
    const RobustnessReport margins =
        analysis::robustness_margins(model.graph, model.constraints);
    ASSERT_TRUE(margins.ok);
    const ActorId actor = first_unconstrained_actor(margins).actor;
    const Duration delta = model.constraints.front().period;
    const TimePoint horizon =
        TimePoint() + model.constraints.front().period * Rational(100);

    // A *single-firing* stall keeps lateness linear in Δ (a per-firing
    // overrun would accumulate): baseline ≤ Δ ≤ 2Δ, pointwise within Δ.
    FaultPlan none;
    FaultPlan light;
    light.transient_stall(actor, 3, delta);
    FaultPlan heavy;
    heavy.transient_stall(actor, 3, delta * Rational(2));

    const auto vs_baseline =
        sim::check_fault_monotonic_linear(model.graph, none, light, delta,
                                          horizon);
    EXPECT_TRUE(vs_baseline.monotonic) << vs_baseline.detail;
    EXPECT_TRUE(vs_baseline.linear) << vs_baseline.detail;
    const auto vs_light =
        sim::check_fault_monotonic_linear(model.graph, light, heavy, delta,
                                          horizon);
    EXPECT_TRUE(vs_light.monotonic) << vs_light.detail;
    EXPECT_TRUE(vs_light.linear) << vs_light.detail;
  }
}

}  // namespace
}  // namespace vrdf
