// margins: the `vrdf_sizer --report` path.  Each request installs a sized
// model's capacities and renders the markdown analysis report, whose rate
// headroom (min_admissible_period) and robustness margins re-run the whole
// analysis once per probe of a per-actor binary search.
//
// Capacities must be installed before rendering: without them
// robustness_margins bails out early and the report carries no margins
// section, which the output check rejects.
#include "analysis/buffer_sizing.hpp"
#include "analysis/period.hpp"
#include "analysis/robustness.hpp"
#include "bench.hpp"
#include "inputs.hpp"
#include "io/report.hpp"

namespace bench {

using namespace vrdf;

namespace {

PoolSpec margins_pool() {
  PoolSpec spec;
  spec.schedule = {Shape::Chain, Shape::ForkJoin, Shape::Cyclic,
                   Shape::MultiSink, Shape::InteriorPinned};
  spec.fork_join = {8, 32};
  spec.cyclic = {8, 32};
  spec.interior = {8, 32};
  spec.multi_sink = {8, 32};
  spec.chain = {8, 32};
  spec.count = 1600;
  return spec;
}

struct Input {
  Model model;
  analysis::GraphAnalysis sized;
};

std::vector<Input> set_up(const Options& options) {
  std::vector<Input> inputs;
  for (Model& model : generate_pool(margins_pool(), options.seed)) {
    analysis::GraphAnalysis sized =
        analysis::compute_buffer_capacities(model.graph, model.constraints);
    inputs.push_back({std::move(model), std::move(sized)});
  }
  return inputs;
}

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

}  // namespace

void run_margins(const Options& options, Tracer& tracer, RunRecord& record) {
  std::vector<Input> inputs;
  for (int rep = 0; rep < 3; ++rep) {
    timed_setup(record, [&] { inputs = set_up(options); });
  }
  for (const Input& input : inputs) {
    if (!input.sized.admissible) {
      record.fail_gate("a generated margins model is inadmissible");
      return;
    }
  }

  std::vector<std::uint64_t> expected(inputs.size(), 0);
  // The graph the last request rendered, with capacities installed; the
  // probes re-run the report's own calls on it.
  dataflow::VrdfGraph installed;

  Loop loop;
  loop.request = [&](std::uint64_t n) {
    const std::size_t i = n % inputs.size();
    const Input& input = inputs[i];
    installed = input.model.graph;
    Step step;
    const std::int64_t t0 = now_ns();
    const std::uint32_t req = tracer.begin_request("margins.request");
    {
      Stage s(tracer, "analysis.apply_capacities");
      analysis::apply_capacities(installed, input.sized);
    }
    std::string report;
    {
      Stage s(tracer, "io.report");
      report = io::analysis_report(installed, input.model.constraints, input.sized);
    }
    tracer.end_request(req);
    step.latency_us = static_cast<double>(now_ns() - t0) / 1e3;

    const std::uint64_t out = digest(report);
    step.ok = contains(report, "## Robustness margins") &&
              contains(report, "## Rate headroom") &&
              contains(report, "Independent checker: all") &&
              (expected[i] == 0 || expected[i] == out);
    if (expected[i] == 0) {
      expected[i] = out;
    }
    return step;
  };
  // Attribution probes: the report's own min-period and robustness calls
  // on the same installed graph, and one full analysis of the model for
  // scale (robustness / one-shot = analyses per report).
  loop.probe = [&](std::uint64_t n) {
    const Input& input = inputs[n % inputs.size()];
    const analysis::ConstraintSet& constraints = input.model.constraints;
    {
      Stage s(tracer, "analysis.period");
      const analysis::MinPeriodResult period =
          constraints.size() > 1
              ? analysis::min_admissible_period(installed, constraints,
                                                constraints.front().actor)
              : analysis::min_admissible_period(installed,
                                                constraints.front().actor);
      (void)period;
    }
    {
      Stage s(tracer, "analysis.robustness");
      const analysis::RobustnessReport margins =
          analysis::robustness_margins(installed, constraints);
      if (!margins.ok) {
        record.fail_gate("robustness probe found no margins on a sized model");
      }
    }
    {
      Stage s(tracer, "analysis.oneshot");
      const analysis::GraphAnalysis sized =
          analysis::compute_buffer_capacities(input.model.graph, constraints);
      (void)sized;
    }
  };

  const LoopLatency latency = drive(options, tracer, record, loop);
  record.notes.push_back("margins: " + std::to_string(inputs.size()) +
                         " models in the pool");
  if (!options.trace) {
    return;
  }

  const std::vector<double> report = tracer.durations_us("io.report");
  const std::vector<double> period = tracer.durations_us("analysis.period");
  const std::vector<double> robust = tracer.durations_us("analysis.robustness");
  const std::vector<double> oneshot = tracer.durations_us("analysis.oneshot");
  std::vector<double> self;
  std::vector<double> equiv;
  std::vector<double> share;
  for (std::size_t k = 0; k < report.size() && k < robust.size(); ++k) {
    self.push_back(report[k] - period[k] - robust[k]);
    share.push_back(robust[k] / report[k]);
    equiv.push_back(robust[k] / oneshot[k]);
  }
  for (const char* stage : {"io.report", "analysis.period", "analysis.robustness",
                            "analysis.oneshot"}) {
    add_stage_metrics(record, tracer, stage);
  }
  record.layers["io.report_self_us"] = {median(self), "us"};
  record.layers["analysis.robustness_share"] = {median(share), "ratio"};
  record.layers["analysis.reanalysis_equiv"] = {median(equiv), "count"};
  add_trace_metrics(record, tracer, latency.untraced_p50_us,
                    latency.traced_p50_us);
}

}  // namespace bench
