// sweep: fleet verification on the thread pool.  Each request is one round:
// a certify-mode FleetSweep over all five model classes in both constraint
// placements, then a FrontierSweep over streams × slot budgets, both on
// one worker per hardware thread.  Rounds cycle through 16 seeded specs.
//
// Output checks per round: no failed item, no certificate failure, every
// admitted frontier point verified without starvation, and canonical report
// bytes equal to the first round of the same spec.  After the loop every
// spec is re-run on one worker and must give the same bytes.
//
// Traced rounds are followed by recomposing each fleet item single-threaded
// from the public calls FleetSweep::run_item makes (generate → capacities →
// certificate → checker → verify) and checks it against the sweep's own
// verdict, which attributes a fleet item's time to its layers.
#include <numeric>
#include <thread>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "bench.hpp"
#include "models/synthetic.hpp"
#include "sim/deployment_frontier.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/seed_stream.hpp"

namespace bench {

using namespace vrdf;

namespace {

constexpr std::size_t kSpecs = 16;

struct Specs {
  std::vector<sim::SweepSpec> fleet_specs;
  std::vector<sim::FleetSweep> fleet;
  std::vector<sim::FrontierSweep> frontier;
};

Specs make_specs(std::uint64_t seed) {
  Specs specs;
  for (std::size_t k = 0; k < kSpecs; ++k) {
    sim::SweepSpec fleet;
    fleet.base_seed = util::derive_seed(seed, 100 + k);
    fleet.seeds_per_class = 5;
    fleet.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
    fleet.certify = true;
    specs.fleet_specs.push_back(fleet);
    specs.fleet.emplace_back(fleet);

    sim::FrontierSpec frontier;
    frontier.base_seed = util::derive_seed(seed, 200 + k);
    frontier.seeds_per_cell = 2;
    specs.frontier.emplace_back(frontier);
  }
  return specs;
}

struct Round {
  bool ok = false;
  std::uint64_t digest = 0;
  std::uint64_t items = 0;
  std::int64_t firings = 0;
};

Round check_round(const sim::FleetReport& fleet,
                  const sim::FrontierReport& frontier) {
  Round round;
  round.ok = fleet.failed == 0 && fleet.certificate_failures == 0 &&
             fleet.certified + fleet.rejected == fleet.total_items &&
             frontier.starvations == 0 && frontier.verified == frontier.admitted &&
             frontier.certificate_failures == 0;
  round.digest = digest(sim::canonical_text(frontier), digest(sim::canonical_text(fleet)));
  round.items = static_cast<std::uint64_t>(fleet.total_items + frontier.total_items);
  round.firings = fleet.firings + frontier.firings;
  return round;
}

/// FleetSweep::run_item's pipeline, one public call per stage.  Returns
/// whether the recomposed verdict equals the sweep's.
bool recompose(Tracer& tracer, const sim::SweepSpec& spec,
               const sim::FleetItemResult& expected, std::vector<double>& firings) {
  const sim::FleetItem& item = expected.item;
  const std::uint32_t req = tracer.begin_request("fleet.item");
  models::RandomModelSpec random;
  random.model_class = item.model_class;
  random.seed = item.rng_seed;
  random.response_fraction = spec.response_fraction;
  random.variable_percent = spec.variable_percent;
  random.zero_percent = spec.zero_percent;
  random.source_constrained = item.mode == sim::ConstraintMode::Source;
  models::SyntheticModel model;
  {
    Stage s(tracer, "models.generate");
    model = models::make_random_model(random);
  }
  analysis::GraphAnalysis sized;
  {
    Stage s(tracer, "analysis.capacities");
    sized = analysis::compute_buffer_capacities(model.graph, model.constraints);
  }
  if (!sized.admissible) {
    tracer.end_request(req);
    return expected.rejected;
  }
  analysis::Certificate cert;
  {
    Stage s(tracer, "analysis.certificate");
    cert = analysis::make_certificate(model.graph, sized);
  }
  analysis::CertificateCheck check;
  {
    Stage s(tracer, "analysis.checker");
    check = analysis::check_certificate(model.graph, cert);
  }
  {
    Stage s(tracer, "analysis.apply_capacities");
    analysis::apply_capacities(model.graph, sized);
  }
  sim::VerifyOptions options;
  options.observe_firings = spec.observe_firings;
  options.default_seed = util::derive_seed(item.rng_seed, 1);
  sim::VerifyResult verdict;
  {
    Stage s(tracer, "sim.verify");
    verdict = sim::verify_throughput(model.graph, model.constraints, {}, options);
  }
  tracer.end_request(req);
  firings.push_back(static_cast<double>(verdict.firings_simulated));
  return verdict.ok == expected.pass &&
         verdict.firings_simulated == expected.firings &&
         sized.total_capacity == expected.total_capacity &&
         static_cast<std::int64_t>(check.clauses_checked) ==
             expected.certificate_clauses;
}

}  // namespace

void run_sweep(const Options& options, Tracer& tracer, RunRecord& record) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Specs specs;
  std::vector<std::uint64_t> expected(kSpecs, 0);
  for (int rep = 0; rep < 15; ++rep) {
    // Set-up builds the sweeps and runs one warm-up round of the first
    // spec, whose bytes become that spec's reference.
    Round warm;
    timed_setup(record, [&] {
      specs = make_specs(options.seed);
      warm = check_round(specs.fleet[0].run(workers), specs.frontier[0].run(workers));
    });
    if (!warm.ok || (expected[0] != 0 && expected[0] != warm.digest)) {
      record.fail_gate("warm-up round failed its output checks");
    }
    expected[0] = warm.digest;
  }

  std::int64_t firings = 0;
  double round_seconds = 0.0;
  // Wall-clock sections of the reports: items run and pool wall time.
  double fleet_items = 0.0;
  double frontier_items = 0.0;
  double pool_wall_s = 0.0;
  std::vector<sim::FleetReport> last_fleet(kSpecs);
  std::vector<double> item_firings;
  std::uint64_t recompose_mismatches = 0;

  Loop loop;
  loop.request = [&](std::uint64_t n) {
    const std::size_t k = n % kSpecs;
    const std::int64_t t0 = now_ns();
    const std::uint32_t req = tracer.begin_request("sweep.round");
    sim::FleetReport fleet;
    {
      Stage s(tracer, "fleet.run");
      fleet = specs.fleet[k].run(workers);
    }
    sim::FrontierReport frontier;
    {
      Stage s(tracer, "frontier.run");
      frontier = specs.frontier[k].run(workers);
    }
    tracer.end_request(req);
    const double latency_us = static_cast<double>(now_ns() - t0) / 1e3;

    const Round round = check_round(fleet, frontier);
    const bool same = expected[k] == 0 || expected[k] == round.digest;
    expected[k] = round.digest;
    record.work += round.items;
    firings += round.firings;
    round_seconds += latency_us / 1e6;
    fleet_items += static_cast<double>(fleet.total_items);
    frontier_items += static_cast<double>(frontier.total_items);
    pool_wall_s += fleet.elapsed_seconds + frontier.elapsed_seconds;
    last_fleet[k] = std::move(fleet);
    return Step{round.ok && same, latency_us};
  };
  loop.probe = [&](std::uint64_t n) {
    const std::size_t k = n % kSpecs;
    for (const sim::FleetItemResult& result : last_fleet[k].items) {
      if (!recompose(tracer, specs.fleet_specs[k], result, item_firings)) {
        ++recompose_mismatches;
      }
      Stage s(tracer, "fleet.run_item");
      (void)specs.fleet[k].run_item(result.item);
    }
    for (const sim::FrontierItem& item : specs.frontier[k].items()) {
      Stage s(tracer, "frontier.run_item");
      (void)specs.frontier[k].run_item(item);
    }
  };

  const LoopLatency latency = drive(options, tracer, record, loop);

  // Canonical bytes at one worker equal those at `workers`.
  for (std::size_t k = 0; k < kSpecs; ++k) {
    if (expected[k] == 0) {
      continue;
    }
    const Round single = check_round(specs.fleet[k].run(1), specs.frontier[k].run(1));
    if (single.digest != expected[k]) {
      record.fail_gate("spec " + std::to_string(k) +
                       ": canonical reports differ between 1 and " +
                       std::to_string(workers) + " workers");
    }
  }
  if (recompose_mismatches != 0) {
    record.fail_gate(std::to_string(recompose_mismatches) +
                     " recomposed fleet items disagree with the sweep's verdict");
  }
  record.notes.push_back("sweep: " + std::to_string(workers) + " workers, " +
                         std::to_string(specs.fleet[0].items().size()) +
                         " fleet + " + std::to_string(specs.frontier[0].items().size()) +
                         " frontier items per round");
  if (!options.trace) {
    return;
  }

  for (const char* stage :
       {"models.generate", "analysis.capacities", "analysis.certificate",
        "analysis.checker", "sim.verify", "fleet.run_item", "frontier.run_item"}) {
    add_stage_metrics(record, tracer, stage);
  }
  record.layers["sim.firings_per_item"] = {median(item_firings), "count"};
  const std::vector<double> verify_us = tracer.durations_us("sim.verify");
  const double verify_s =
      std::accumulate(verify_us.begin(), verify_us.end(), 0.0) / 1e6;
  record.layers["sim.verify_firings_per_s"] = {
      verify_s > 0.0
          ? std::accumulate(item_firings.begin(), item_firings.end(), 0.0) /
                verify_s
          : 0.0,
      "1/s"};
  record.layers["sim_firings_per_s"] = {
      round_seconds > 0.0 ? static_cast<double>(firings) / round_seconds : 0.0,
      "1/s"};

  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  // Busy share of the pool: single-threaded item cost times items run,
  // over workers times the sweeps' own wall clock.
  const double item_work_s =
      (fleet_items * mean(tracer.durations_us("fleet.run_item")) +
       frontier_items * mean(tracer.durations_us("frontier.run_item"))) /
      1e6;
  record.layers["pool.efficiency"] = {
      pool_wall_s > 0.0
          ? item_work_s / (static_cast<double>(workers) * pool_wall_s)
          : 0.0,
      "ratio"};
  record.layers["pool.workers"] = {static_cast<double>(workers), "count"};
  add_trace_metrics(record, tracer, latency.untraced_p50_us,
                    latency.traced_p50_us);
}

}  // namespace bench
