// Shared-platform deployment arc (PR 10): hand-computed 2-processor TDM
// deployment with exact derived κ and locked capacities, latency-rate
// conservatism end-to-end, the ≥40-seed
// randomized differential slot-retune sweep (DeploymentController vs a
// full recompute over the same snapshot/constraints/overlay),
// certificate platform-clause validation with a per-term tamper matrix,
// wheel-binding vs throughput-binding rejections with exact rollback,
// randomized deployments verified through the two-phase harness at zero
// starvations, and the frontier sweep's thread-count determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "analysis/buffer_sizing.hpp"
#include "analysis/deployment.hpp"
#include "io/report.hpp"
#include "sim/deployment_frontier.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {
namespace {

using dataflow::RateSet;

Duration us(std::int64_t n) { return milliseconds(Rational(n, 1000)); }

// The worked deployment of examples/deployment.cpp: one source fanning
// out to an audio chain (4 ms sink) and a half-rate control actuator
// (8 ms sink), on two 1 ms TDM wheels.
struct ForkDeployment {
  taskgraph::TaskGraph tasks;
  sched::Platform platform;
  std::vector<DeploymentConstraint> streams;
};

ForkDeployment make_fork_deployment() {
  ForkDeployment d;
  const Duration placeholder = milliseconds(Rational(1));
  const auto src = d.tasks.add_task("audio-src", placeholder);
  const auto dsp = d.tasks.add_task("audio-dsp", placeholder);
  const auto out = d.tasks.add_task("audio-out", placeholder);
  const auto act = d.tasks.add_task("ctl-act", placeholder);
  (void)d.tasks.add_buffer(src, dsp, RateSet::singleton(4),
                           RateSet::singleton(4));
  (void)d.tasks.add_buffer(dsp, out, RateSet::singleton(1),
                           RateSet::singleton(1));
  (void)d.tasks.add_buffer(src, act, RateSet::singleton(1),
                           RateSet::singleton(2));

  const Duration wheel = milliseconds(Rational(1));
  const auto cpu0 = d.platform.add_processor("cpu0", wheel);
  const auto cpu1 = d.platform.add_processor("cpu1", wheel);
  d.platform.bind_task("audio-src", cpu0, us(250), us(120));
  d.platform.bind_task("audio-dsp", cpu1, us(500), us(400));
  d.platform.bind_task("audio-out", cpu0, us(250), us(100));
  d.platform.bind_task("ctl-act", cpu1, us(250), us(80));

  d.streams = {{"audio-out", milliseconds(Rational(4))},
               {"ctl-act", milliseconds(Rational(8))}};
  return d;
}

void expect_identical(const GraphAnalysis& got, const GraphAnalysis& want) {
  EXPECT_EQ(got.admissible, want.admissible);
  EXPECT_EQ(got.diagnostics, want.diagnostics);
  EXPECT_EQ(got.actors_in_order, want.actors_in_order);
  EXPECT_EQ(got.pacing, want.pacing);
  EXPECT_EQ(got.leads, want.leads);
  EXPECT_EQ(got.total_capacity, want.total_capacity);
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (std::size_t i = 0; i < got.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].capacity, want.pairs[i].capacity) << "pair " << i;
    EXPECT_EQ(got.pairs[i].raw_tokens, want.pairs[i].raw_tokens)
        << "pair " << i;
    EXPECT_EQ(got.pairs[i].delta_total, want.pairs[i].delta_total)
        << "pair " << i;
    EXPECT_EQ(got.pairs[i].determined_by, want.pairs[i].determined_by)
        << "pair " << i;
  }
}

// ------------------------------------------------- hand-computed model

TEST(Deployment, HandComputedTdmForkModel) {
  const ForkDeployment d = make_fork_deployment();
  DeploymentOptions options;
  options.certify = true;
  const DeploymentResult result =
      analyze_deployment(d.tasks, d.platform, d.streams, options);
  ASSERT_TRUE(result.admissible);

  // Slot-granular κ = ceil(C/S)·(W−S) + C, all one-chunk WCETs here:
  //   audio-src: (1000−250) + 120 = 870 us, etc.
  ASSERT_EQ(result.kappas.size(), 4u);
  EXPECT_EQ(result.kappas[0].task_name, "audio-src");
  EXPECT_EQ(result.kappas[0].kappa, us(870));
  EXPECT_EQ(result.kappas[1].kappa, us(900));   // audio-dsp
  EXPECT_EQ(result.kappas[2].kappa, us(850));   // audio-out
  EXPECT_EQ(result.kappas[3].kappa, us(830));   // ctl-act

  // The constructed graph ran the analysis with ρ(v) = derived κ.
  for (const DerivedKappa& derived : result.kappas) {
    EXPECT_EQ(result.construction.graph
                  .actor(result.construction.actor_of_task[derived.task
                                                               .index()])
                  .response_time,
              derived.kappa);
  }

  // Locked capacities of the sized deployment.
  ASSERT_EQ(result.analysis.pairs.size(), 3u);
  EXPECT_EQ(result.analysis.pairs[0].capacity, 8);  // src -> dsp, {4}/{4}
  EXPECT_EQ(result.analysis.pairs[1].capacity, 3);  // src -> act, {1}/{2}
  EXPECT_EQ(result.analysis.pairs[2].capacity, 1);  // dsp -> out, {1}/{1}
  EXPECT_EQ(result.analysis.total_capacity, 12);

  // Certified, with one platform fact per task.
  ASSERT_TRUE(result.certificate.has_value());
  ASSERT_TRUE(result.certificate_check.has_value());
  EXPECT_TRUE(result.certificate_check->ok)
      << describe(result.certificate_check->violations.front());
  EXPECT_EQ(result.certificate->platform.size(), 4u);

  // The report renders the platform, κ and analysis sections.
  const std::string report =
      io::deployment_report(d.tasks, d.platform, result);
  EXPECT_NE(report.find("## Platform"), std::string::npos);
  EXPECT_NE(report.find("## Derived response times"), std::string::npos);
  EXPECT_NE(report.find("87/100000"), std::string::npos);  // κ(audio-src)
  EXPECT_NE(report.find("## Buffer capacities"), std::string::npos);
}

TEST(Deployment, LatencyRateDerivationIsConservativeEndToEnd) {
  const ForkDeployment d = make_fork_deployment();
  DeploymentOptions exact;
  DeploymentOptions lr;
  lr.derivation = KappaDerivation::LatencyRate;
  const DeploymentResult exact_result =
      analyze_deployment(d.tasks, d.platform, d.streams, exact);
  const DeploymentResult lr_result =
      analyze_deployment(d.tasks, d.platform, d.streams, lr);
  ASSERT_TRUE(exact_result.admissible);
  ASSERT_TRUE(lr_result.admissible);
  ASSERT_EQ(exact_result.kappas.size(), lr_result.kappas.size());
  for (std::size_t i = 0; i < exact_result.kappas.size(); ++i) {
    EXPECT_FALSE((lr_result.kappas[i].kappa - exact_result.kappas[i].kappa)
                     .is_negative())
        << exact_result.kappas[i].task_name;
  }
  // Conservative κ can only hold or grow the buffer bill.
  EXPECT_GE(lr_result.analysis.total_capacity,
            exact_result.analysis.total_capacity);
}

// --------------------------------------------- controller + rollback

/// κ of `task` in the controller's serviced state, as its certificate's
/// platform clause records it.
Duration kappa_of(const DeploymentController& controller,
                  const std::string& task) {
  const dataflow::ActorId actor = controller.actor_of(task);
  for (const PlatformFact& fact : controller.certificate().platform) {
    if (fact.actor == actor) {
      return fact.kappa;
    }
  }
  ADD_FAILURE() << "no platform fact for " << task;
  return Duration();
}

TEST(Deployment, ControllerNamesTheBindingDimensionAndRollsBack) {
  const ForkDeployment d = make_fork_deployment();
  DeploymentController controller(d.tasks, d.platform, d.streams);
  controller.set_require_certificate(true);
  const GraphAnalysis before = controller.analysis();
  const Duration slot_before =
      controller.platform().service_model("audio-dsp").slot;

  // Throughput-bound: slot 80 us → κ = 5·920 + 400 = 5000 us > 4 ms.
  const DeploymentDecision analysis_bound =
      controller.set_slot("audio-dsp", us(80));
  EXPECT_FALSE(analysis_bound.accepted);
  EXPECT_FALSE(analysis_bound.wheel_binding);
  EXPECT_NE(analysis_bound.binding_constraint.find("audio-dsp"),
            std::string::npos);
  expect_identical(controller.analysis(), before);
  EXPECT_EQ(controller.platform().service_model("audio-dsp").slot,
            slot_before);
  EXPECT_EQ(kappa_of(controller, "audio-dsp"), us(900));

  // Wheel-bound: cpu1 has 250 us slack; growing ctl-act to 600 us
  // rejects *before* the analysis, naming the wheel.
  const DeploymentDecision wheel_bound =
      controller.set_slot("ctl-act", us(600));
  EXPECT_FALSE(wheel_bound.accepted);
  EXPECT_TRUE(wheel_bound.wheel_binding);
  EXPECT_NE(wheel_bound.binding_constraint.find("cpu1"), std::string::npos);
  expect_identical(controller.analysis(), before);

  // An accepted retune moves κ and the serviced analysis together.
  const DeploymentDecision accepted =
      controller.set_slot("audio-dsp", us(450));
  EXPECT_TRUE(accepted.accepted);
  EXPECT_EQ(kappa_of(controller, "audio-dsp"),
            us(550) + us(400));  // (1000−450) + 400
  expect_identical(controller.analysis(),
                   compute_buffer_capacities(
                       controller.engine().snapshot(),
                       controller.engine().constraints(),
                       controller.engine().options(),
                       controller.engine().overlay()));

  // Combined slot grant + admission: both roll back when the admission
  // is flow-inconsistent (audio-dsp is 1:1 with the 4 ms sink) — the
  // slot, κ and the analysis as they were before the decision.
  const GraphAnalysis granted_before = controller.analysis();
  const DeploymentDecision bad_admit = controller.admit(
      "audio-dsp", milliseconds(Rational(16)), us(500));
  EXPECT_FALSE(bad_admit.accepted);
  EXPECT_EQ(bad_admit.total_capacity, granted_before.total_capacity);
  EXPECT_EQ(controller.platform().service_model("audio-dsp").slot, us(450));
  EXPECT_EQ(kappa_of(controller, "audio-dsp"), us(550) + us(400));
  expect_identical(controller.analysis(), granted_before);
  const DeploymentDecision good_admit =
      controller.admit("audio-dsp", milliseconds(Rational(4)), us(500));
  EXPECT_TRUE(good_admit.accepted);
  EXPECT_EQ(controller.platform().service_model("audio-dsp").slot, us(500));
  const DeploymentDecision removed = controller.remove("audio-dsp");
  EXPECT_TRUE(removed.accepted);
}

TEST(Deployment, RequiresBoundTasksAndKnownStreams) {
  ForkDeployment d = make_fork_deployment();
  (void)d.tasks.add_task("unbound", milliseconds(Rational(1)));
  EXPECT_THROW((void)analyze_deployment(d.tasks, d.platform, d.streams),
               ContractError);
  const ForkDeployment ok = make_fork_deployment();
  EXPECT_THROW((void)analyze_deployment(
                   ok.tasks, ok.platform,
                   {{"nonexistent", milliseconds(Rational(4))}}),
               ContractError);
  EXPECT_THROW(
      (void)analyze_deployment(ok.tasks, ok.platform, {}),
      ContractError);
}

// ------------------------------------- randomized differential sweep

// Random fork deployment in the frontier generator's shape: a root task
// fanning out to `streams` chains, bound round-robin across TDM wheels.
struct RandomDeployment {
  taskgraph::TaskGraph tasks;
  sched::Platform platform;
  std::vector<DeploymentConstraint> streams;
  std::vector<std::string> names;
};

RandomDeployment make_random_deployment(std::mt19937_64& rng,
                                        std::size_t processors,
                                        std::int64_t stream_count,
                                        std::int64_t tasks_per_stream) {
  RandomDeployment d;
  const Duration wheel = milliseconds(Rational(1));
  for (std::size_t p = 0; p < processors; ++p) {
    (void)d.platform.add_processor("cpu" + std::to_string(p), wheel);
  }
  std::uniform_int_distribution<std::int64_t> wcet_draw(2, 12);
  // Size the uniform slot to the densest processor so every binding
  // fits the wheel: the round-robin placement puts at most
  // ceil(total / processors) tasks on one wheel.
  const std::int64_t total =
      1 + stream_count * tasks_per_stream;
  const std::int64_t per_processor =
      (total + static_cast<std::int64_t>(processors) - 1) /
      static_cast<std::int64_t>(processors);
  const std::int64_t slot_sixteenths = std::min<std::int64_t>(
      4, std::max<std::int64_t>(1, 16 / per_processor));
  std::int64_t index = 0;
  const auto add = [&](const std::string& name) {
    const taskgraph::TaskId id = d.tasks.add_task(name, wheel);
    d.platform.bind_task(name,
                         static_cast<std::size_t>(index) % processors,
                         Duration(wheel.seconds() *
                                  Rational(slot_sixteenths, 16)),
                         Duration(wheel.seconds() *
                                  Rational(wcet_draw(rng), 64)));
    d.names.push_back(name);
    ++index;
    return id;
  };
  const auto task_name = [](std::int64_t s, std::int64_t t) {
    std::string name = "s";
    name += std::to_string(s);
    name += 't';
    name += std::to_string(t);
    return name;
  };
  const taskgraph::TaskId root = add("root");
  for (std::int64_t s = 0; s < stream_count; ++s) {
    taskgraph::TaskId previous = root;
    for (std::int64_t t = 0; t < tasks_per_stream; ++t) {
      const taskgraph::TaskId id = add(task_name(s, t));
      (void)d.tasks.add_buffer(previous, id, RateSet::singleton(1),
                               RateSet::singleton(1));
      previous = id;
    }
    d.streams.push_back(DeploymentConstraint{
        "s" + std::to_string(s) + "t" + std::to_string(tasks_per_stream - 1),
        milliseconds(Rational(4))});
  }
  return d;
}

TEST(DeploymentDifferential, SlotRetuneSweepMatchesFullRecompute) {
  // ≥ 40 seeds: every slot-budget change routed through the controller
  // must leave analysis() field-for-field identical to a full recompute
  // over the engine's snapshot, constraints and overlay.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t processors = 1 + seed % 3;
    const RandomDeployment d = make_random_deployment(
        rng, processors, 1 + static_cast<std::int64_t>(seed % 2), 3);
    DeploymentController controller(d.tasks, d.platform, d.streams);
    const auto check = [&](const char* op) {
      SCOPED_TRACE(std::string("after ") + op + ", seed " +
                   std::to_string(seed));
      expect_identical(controller.analysis(),
                       compute_buffer_capacities(
                           controller.engine().snapshot(),
                           controller.engine().constraints(),
                           controller.engine().options(),
                           controller.engine().overlay()));
    };
    check("construction");
    std::uniform_int_distribution<std::size_t> task_draw(0,
                                                         d.names.size() - 1);
    std::uniform_int_distribution<std::int64_t> slot_draw(1, 8);
    for (int op = 0; op < 8; ++op) {
      const std::string& task = d.names[task_draw(rng)];
      const Duration slot = Duration(milliseconds(Rational(1)).seconds() *
                                     Rational(slot_draw(rng), 16));
      (void)controller.set_slot(task, slot);
      check("set_slot");  // identical whether accepted or rolled back
    }
  }
}

// ------------------------------------------- certificate tamper matrix

TEST(DeploymentCertificate, TamperedKappaTermsAreRejectedNamingTheClause) {
  const ForkDeployment d = make_fork_deployment();
  DeploymentOptions options;
  options.certify = true;
  const DeploymentResult result =
      analyze_deployment(d.tasks, d.platform, d.streams, options);
  ASSERT_TRUE(result.admissible);
  ASSERT_TRUE(result.certificate.has_value());
  const Certificate& good = *result.certificate;
  const dataflow::VrdfGraph& graph = result.construction.graph;
  ASSERT_TRUE(check_certificate(graph, good).ok);

  const auto expect_kappa_violation = [&](Certificate tampered,
                                          const char* what) {
    const CertificateCheck check = check_certificate(graph, tampered);
    SCOPED_TRACE(what);
    ASSERT_FALSE(check.ok);
    bool kappa_clause = false;
    for (const ClauseViolation& violation : check.violations) {
      if (violation.kind == ClauseKind::Kappa) {
        kappa_clause = true;
        // The violation names the actor whose fact was tampered.
        EXPECT_NE(violation.subject.find("audio-dsp"), std::string::npos)
            << describe(violation);
      }
    }
    EXPECT_TRUE(kappa_clause);
  };

  // audio-dsp is platform fact 1 (κ-vector order).
  ASSERT_EQ(good.platform[1].actor,
            result.construction.actor_of_task[1]);
  {
    Certificate tampered = good;
    tampered.platform[1].kappa = tampered.platform[1].kappa + us(1);
    expect_kappa_violation(std::move(tampered), "kappa off by 1 us");
  }
  {
    Certificate tampered = good;
    tampered.platform[1].ceil_term += 1;
    expect_kappa_violation(std::move(tampered), "inflated ceil witness");
  }
  {
    Certificate tampered = good;
    tampered.platform[1].wheel = tampered.platform[1].wheel + us(100);
    expect_kappa_violation(std::move(tampered), "stretched wheel");
  }
  {
    Certificate tampered = good;
    tampered.platform[1].slot = us(125);
    expect_kappa_violation(std::move(tampered), "shrunk slot");
  }
  {
    Certificate tampered = good;
    tampered.platform[1].wcet = tampered.platform[1].wcet - us(1);
    expect_kappa_violation(std::move(tampered), "trimmed wcet");
  }
  {
    // Swapping the policy breaks the κ re-derivation (the recorded κ is
    // the slot-granular bound, strictly below its latency-rate form).
    Certificate tampered = good;
    tampered.platform[1].policy = ServicePolicy::TdmLatencyRate;
    expect_kappa_violation(std::move(tampered), "swapped policy");
  }
  {
    Certificate tampered = good;
    tampered.platform.push_back(tampered.platform[1]);
    const CertificateCheck check = check_certificate(graph, tampered);
    EXPECT_FALSE(check.ok);  // duplicate platform fact
  }
  {
    Certificate tampered = good;
    tampered.platform[1].actor =
        dataflow::ActorId(static_cast<dataflow::ActorId::underlying_type>(
            graph.actor_count()));
    const CertificateCheck check = check_certificate(graph, tampered);
    EXPECT_FALSE(check.ok);  // out-of-range actor
  }
}

// ---------------------------------------- two-phase harness + frontier

TEST(DeploymentSweep, RandomDeploymentsVerifyAtDerivedKappas) {
  // processors × streams × seeds, each admissible deployment's derived
  // capacities verified end-to-end: zero starvations at ρ(v) = κ(w).
  int verified = 0;
  for (std::size_t processors = 1; processors <= 3; ++processors) {
    for (std::int64_t streams = 1; streams <= 2; ++streams) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::mt19937_64 rng(seed * 31 + processors * 7 +
                            static_cast<std::uint64_t>(streams));
        const RandomDeployment d =
            make_random_deployment(rng, processors, streams, 3);
        DeploymentResult result =
            analyze_deployment(d.tasks, d.platform, d.streams);
        if (!result.admissible) {
          continue;
        }
        apply_capacities(result.construction.graph, result.analysis);
        sim::VerifyOptions options;
        options.observe_firings = 150;
        options.default_seed = seed;
        const sim::VerifyResult verdict = sim::verify_throughput(
            result.construction.graph, result.constraints, {}, options);
        EXPECT_TRUE(verdict.ok)
            << "procs " << processors << " streams " << streams << " seed "
            << seed << ": " << verdict.detail;
        EXPECT_EQ(verdict.starvation_count, 0);
        ++verified;
      }
    }
  }
  // The sweep must actually exercise the harness, not vacuously skip.
  EXPECT_GE(verified, 20);
}

TEST(DeploymentFrontier, CanonicalReportIsThreadCountInvariant) {
  sim::FrontierSpec spec;
  spec.stream_counts = {1, 2};
  spec.slot_sixteenths = {1, 2, 4, 6};
  spec.seeds_per_cell = 2;
  spec.observe_firings = 60;
  const sim::FrontierSweep sweep(spec);
  const sim::FrontierReport serial = sweep.run(1);
  const sim::FrontierReport threaded = sweep.run(4);
  EXPECT_EQ(sim::canonical_text(serial), sim::canonical_text(threaded));

  // The default-shaped spec straddles the frontier: all three outcome
  // classes appear, every admitted item verifies starvation-free, and
  // every certificate checks out.
  EXPECT_GT(serial.admitted, 0);
  EXPECT_GT(serial.rejected_wheel, 0);
  EXPECT_GT(serial.rejected_analysis, 0);
  EXPECT_EQ(serial.verified, serial.admitted);
  EXPECT_EQ(serial.starvations, 0);
  EXPECT_EQ(serial.certified, serial.admitted);
  EXPECT_EQ(serial.certificate_failures, 0);
  EXPECT_EQ(serial.total_items,
            static_cast<std::int64_t>(sweep.items().size()));
}

TEST(DeploymentFrontier, RefusesAStreamCountWhoseTaskCountOverflows) {
  // Each item binds 1 + streams * tasks_per_stream tasks; a product past
  // int64 must be refused up front, naming the stream count.
  sim::FrontierSpec spec;
  spec.tasks_per_stream = 4;
  spec.stream_counts = {1, std::numeric_limits<std::int64_t>::max() / 3};
  try {
    const sim::FrontierSweep sweep(spec);
    FAIL() << "an overflowing task count must be refused";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what())
                  .find(std::to_string(spec.stream_counts[1])),
              std::string::npos)
        << error.what();
  }
  // The sum overflows too: streams * tasks == INT64_MAX leaves no room for
  // the shared root task.
  spec.tasks_per_stream = 1;
  spec.stream_counts = {std::numeric_limits<std::int64_t>::max()};
  EXPECT_THROW(sim::FrontierSweep{spec}, ContractError);
}

}  // namespace
}  // namespace vrdf::analysis
