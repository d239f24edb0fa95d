// Canonical-serialization file: tools/lint_determinism.py rules R1–R3
// apply (no unordered containers, no ambient randomness, no float
// formatting on the canonical byte path).
#include "sim/deployment_frontier.hpp"

#include <random>
#include <sstream>
#include <utility>

#include "analysis/buffer_sizing.hpp"
#include "analysis/deployment.hpp"
#include "dataflow/rate_set.hpp"
#include "sim/sweep.hpp"
#include "sim/verify.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace vrdf::sim {

namespace {

// The platform and demand every item shares: streams contend for two
// TDM processors, every stream's sink demands a 2 ms period (fixed
// across allocations, so the sweep shows which allocations can honour
// it), and task WCETs are drawn from 2..12 sixty-fourths of the wheel.
constexpr std::size_t kProcessors = 2;
constexpr std::int64_t kWcetMin64ths = 2;
constexpr std::int64_t kWcetMax64ths = 12;

[[nodiscard]] Duration stream_period() { return milliseconds(Rational(2)); }

[[nodiscard]] std::string join_counts(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out;
}

[[nodiscard]] std::string cell_key(std::int64_t streams, std::int64_t slot) {
  return "cell streams=" + std::to_string(streams) +
         " slot=" + std::to_string(slot);
}

void write_cell_fields(std::ostream& os, const FrontierTally& t) {
  os << "items=" << t.total_items << " admitted=" << t.admitted
     << " rejected_wheel=" << t.rejected_wheel
     << " rejected_analysis=" << t.rejected_analysis
     << " verified=" << t.verified << " starvations=" << t.starvations
     << " capacity=" << t.total_capacity << " firings=" << t.firings
     << " certified=" << t.certified
     << " cert_clauses=" << t.certificate_clauses
     << " cert_failures=" << t.certificate_failures;
}

void tally_item(FrontierTally& tally, const FrontierItemResult& result) {
  ++tally.total_items;
  switch (result.outcome) {
    case FrontierOutcome::Admitted:
      ++tally.admitted;
      break;
    case FrontierOutcome::RejectedWheel:
      ++tally.rejected_wheel;
      break;
    case FrontierOutcome::RejectedAnalysis:
      ++tally.rejected_analysis;
      break;
  }
  if (result.verified) {
    ++tally.verified;
  }
  tally.starvations += result.starvation_count;
  tally.total_capacity += result.total_capacity;
  tally.firings += result.firings;
  if (result.certificate_clauses > 0) {
    if (result.certificate_ok) {
      ++tally.certified;
    } else {
      ++tally.certificate_failures;
    }
  }
  tally.certificate_clauses += result.certificate_clauses;
}

}  // namespace

const char* frontier_outcome_name(FrontierOutcome outcome) {
  switch (outcome) {
    case FrontierOutcome::Admitted: return "admitted";
    case FrontierOutcome::RejectedWheel: return "rejected-wheel";
    case FrontierOutcome::RejectedAnalysis: return "rejected-analysis";
  }
  return "unknown";
}

FrontierSweep::FrontierSweep(FrontierSpec spec) : spec_(std::move(spec)) {
  VRDF_REQUIRE(spec_.tasks_per_stream >= 1,
               "frontier streams need at least one task");
  VRDF_REQUIRE(!spec_.stream_counts.empty(),
               "frontier needs at least one stream count");
  VRDF_REQUIRE(!spec_.slot_sixteenths.empty(),
               "frontier needs at least one slot budget");
  VRDF_REQUIRE(spec_.seeds_per_cell >= 1,
               "frontier needs at least one seed per cell");
  VRDF_REQUIRE(spec_.wheel.is_positive(), "wheel period must be positive");
  for (const std::int64_t streams : spec_.stream_counts) {
    VRDF_REQUIRE(streams >= 1, "stream counts must be positive");
    // run_item binds a shared root plus `streams` chains of
    // tasks_per_stream tasks.
    try {
      (void)checked_add(1, checked_mul(streams, spec_.tasks_per_stream));
    } catch (const OverflowError&) {
      throw ContractError("stream count " + std::to_string(streams) +
                          " with " + std::to_string(spec_.tasks_per_stream) +
                          " tasks per stream overflows the task count");
    }
  }
  for (const std::int64_t slot : spec_.slot_sixteenths) {
    VRDF_REQUIRE(slot >= 1 && slot <= 16,
                 "slot budgets are sixteenths of the wheel (1..16)");
  }

  std::size_t index = 0;
  for (const std::int64_t streams : spec_.stream_counts) {
    for (const std::int64_t slot : spec_.slot_sixteenths) {
      for (std::int64_t seed = 1; seed <= spec_.seeds_per_cell; ++seed) {
        FrontierItem item;
        item.index = index;
        item.streams = streams;
        item.slot_sixteenths = slot;
        item.seed_ordinal = static_cast<std::uint64_t>(seed);
        item.rng_seed = util::derive_seed(spec_.base_seed, index);
        items_.push_back(item);
        ++index;
      }
    }
  }

  std::ostringstream os;
  os << "procs=" << kProcessors << " tasks=" << spec_.tasks_per_stream
     << " streams=" << join_counts(spec_.stream_counts)
     << " slots=" << join_counts(spec_.slot_sixteenths)
     << " seeds=" << spec_.seeds_per_cell << " base=" << spec_.base_seed
     << " wheel=" << spec_.wheel.seconds().to_string()
     << " period=" << stream_period().seconds().to_string()
     << " wcet=" << kWcetMin64ths << ".." << kWcetMax64ths
     << " observe=" << spec_.observe_firings
     << " verify=1 certify=1 derivation="
     << analysis::kappa_derivation_name(
            analysis::KappaDerivation::PolicyExact);
  spec_summary_ = os.str();
}

FrontierItemResult FrontierSweep::run_item(const FrontierItem& item) const {
  FrontierItemResult result;
  result.item = item;
  try {
    // A shared root task fans out to every stream chain (the analysis
    // needs one weakly connected graph), so each item binds
    // 1 + streams * tasks_per_stream tasks.
    const std::int64_t total_tasks =
        1 + item.streams * spec_.tasks_per_stream;

    // Platform feasibility first: slots are wheel-sixteenths, so a
    // processor serving n tasks needs n * slot <= 16 sixteenths.  A
    // shortfall classifies the item as wheel-bound without building
    // anything.
    std::vector<std::int64_t> tasks_on(kProcessors, 0);
    for (std::int64_t t = 0; t < total_tasks; ++t) {
      ++tasks_on[static_cast<std::size_t>(t) % kProcessors];
    }
    for (std::size_t p = 0; p < kProcessors; ++p) {
      if (tasks_on[p] * item.slot_sixteenths > 16) {
        result.outcome = FrontierOutcome::RejectedWheel;
        result.detail = "TDM wheel of processor cpu" + std::to_string(p) +
                        " cannot hold " + std::to_string(tasks_on[p]) +
                        " slots of " + std::to_string(item.slot_sixteenths) +
                        "/16";
        return result;
      }
    }

    // Deterministic model: N chains of static-rate tasks with randomized
    // WCETs, bound round-robin across the processors at the cell's slot.
    std::mt19937_64 rng(item.rng_seed);
    std::uniform_int_distribution<std::int64_t> wcet_draw(
        kWcetMin64ths, kWcetMax64ths);
    const Duration slot(spec_.wheel.seconds() *
                        Rational(item.slot_sixteenths, 16));

    sched::Platform platform;
    for (std::size_t p = 0; p < kProcessors; ++p) {
      (void)platform.add_processor("cpu" + std::to_string(p), spec_.wheel);
    }

    taskgraph::TaskGraph tasks;
    std::vector<analysis::DeploymentConstraint> streams;
    std::int64_t task_index = 0;
    const auto add_bound_task = [&](const std::string& name) {
      // Placeholder κ: the deployment analysis replaces it with the
      // derived bound.
      const taskgraph::TaskId id = tasks.add_task(name, spec_.wheel);
      const Duration wcet(spec_.wheel.seconds() *
                          Rational(wcet_draw(rng), 64));
      platform.bind_task(
          name, static_cast<std::size_t>(task_index) % kProcessors, slot,
          wcet);
      ++task_index;
      return id;
    };
    const taskgraph::TaskId root = add_bound_task("root");
    for (std::int64_t s = 0; s < item.streams; ++s) {
      taskgraph::TaskId previous = root;
      for (std::int64_t t = 0; t < spec_.tasks_per_stream; ++t) {
        const taskgraph::TaskId id = add_bound_task(
            "s" + std::to_string(s) + "t" + std::to_string(t));
        (void)tasks.add_buffer(previous, id, dataflow::RateSet::singleton(1),
                               dataflow::RateSet::singleton(1));
        previous = id;
      }
      streams.push_back(analysis::DeploymentConstraint{
          "s" + std::to_string(s) + "t" +
              std::to_string(spec_.tasks_per_stream - 1),
          stream_period()});
    }

    analysis::DeploymentOptions options;  // policy-exact κ derivation
    options.certify = true;
    analysis::DeploymentResult deployed =
        analyze_deployment(tasks, platform, streams, options);

    if (deployed.certificate_check.has_value()) {
      result.certificate_clauses = static_cast<std::int64_t>(
          deployed.certificate_check->clauses_checked);
      result.certificate_ok = deployed.certificate_check->ok;
    }
    if (!deployed.admissible) {
      result.outcome = FrontierOutcome::RejectedAnalysis;
      result.detail = deployed.diagnostics.empty()
                          ? "analysis rejected"
                          : deployed.diagnostics.front();
      return result;
    }
    result.outcome = FrontierOutcome::Admitted;
    result.total_capacity = deployed.analysis.total_capacity;

    analysis::apply_capacities(deployed.construction.graph, deployed.analysis);
    VerifyOptions verify_options;
    verify_options.observe_firings = spec_.observe_firings;
    verify_options.default_seed = item.rng_seed;
    const VerifyResult verdict =
        verify_throughput(deployed.construction.graph, deployed.constraints,
                          {}, verify_options);
    result.verified = verdict.ok;
    result.starvation_count = verdict.starvation_count;
    result.firings = verdict.firings_simulated;
    if (!verdict.ok) {
      result.detail = verdict.detail;
    }
  } catch (const Error& error) {
    result.outcome = FrontierOutcome::RejectedAnalysis;
    result.verified = false;
    result.detail = error.what();
  }
  return result;
}

FrontierReport FrontierSweep::run(std::size_t threads) const {
  FrontierReport report;
  report.items.resize(items_.size());
  report.elapsed_seconds = run_sweep(
      items_.size(), threads,
      [&](std::size_t i) { report.items[i] = run_item(items_[i]); });

  // Fold in item order — the aggregation is independent of which worker
  // finished when, so the report bytes match across thread counts.
  report.spec_summary = spec_summary_;
  for (const std::int64_t streams : spec_.stream_counts) {
    for (const std::int64_t slot : spec_.slot_sixteenths) {
      report.cells.emplace_back().key = cell_key(streams, slot);
    }
  }
  fold_tallies(report, report.cells, report.items, tally_item,
               [](const FrontierItem& item) {
                 return cell_key(item.streams, item.slot_sixteenths);
               });
  report.threads_used = threads < 1 ? 1 : threads;
  return report;
}

std::string encode_frontier_line(const FrontierItemResult& result) {
  std::ostringstream os;
  os << "item index=" << result.item.index
     << " streams=" << result.item.streams
     << " slot=" << result.item.slot_sixteenths
     << " seed=" << result.item.seed_ordinal
     << " rng=" << result.item.rng_seed
     << " outcome=" << frontier_outcome_name(result.outcome)
     << " verified=" << (result.verified ? 1 : 0)
     << " starvations=" << result.starvation_count
     << " capacity=" << result.total_capacity
     << " firings=" << result.firings
     << " cert_clauses=" << result.certificate_clauses
     << " cert_ok=" << (result.certificate_ok ? 1 : 0)
     << " detail=" << escape_detail(result.detail);
  return os.str();
}

std::string canonical_text(const FrontierReport& report, bool include_items) {
  return canonical_report("vrdf-frontier-report v1", report, report.cells,
                          write_cell_fields, encode_frontier_line,
                          include_items);
}

}  // namespace vrdf::sim
