// sizer: one model given as text per request, sized end to end the way a
// command-line user sizes a model file, with no simulation:
//
//   read_chain → TopologySnapshot → compute_buffer_capacities →
//   make_certificate → check_certificate → apply_capacities →
//   min_admissible_period → write_chain (the annotated model)
//
// Each output is checked: the analysis is admissible, the independent
// checker accepts the certificate, the installed capacities sustain the
// constrained period, and the annotated model is byte-identical every time
// the same input comes round again.
#include <numeric>
#include <optional>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/pacing.hpp"
#include "analysis/period.hpp"
#include "analysis/snapshot.hpp"
#include "bench.hpp"
#include "inputs.hpp"
#include "io/text_format.hpp"

namespace bench {

using namespace vrdf;

namespace {

PoolSpec sizer_pool() {
  PoolSpec spec;
  spec.schedule = {Shape::ForkJoin,       Shape::Cyclic,    Shape::ForkJoin,
                   Shape::Cyclic,         Shape::ForkJoin,  Shape::Cyclic,
                   Shape::InteriorPinned, Shape::MultiSink, Shape::InteriorPinned,
                   Shape::MultiSink,      Shape::Chain,     Shape::Chain};
  spec.fork_join = {19, 263};
  spec.cyclic = {19, 263};
  spec.interior = {8, 64};
  spec.multi_sink = {8, 40};
  spec.chain = {8, 64};
  spec.count = 480;
  return spec;
}

struct Input {
  std::string text;
  std::size_t actors = 0;
};

std::vector<Input> set_up(const Options& options) {
  std::vector<Input> inputs;
  for (Model& model : generate_pool(sizer_pool(), options.seed)) {
    inputs.push_back(
        {io::write_chain(model.graph, model.constraints), model.graph.actor_count()});
  }
  return inputs;
}

}  // namespace

void run_sizer(const Options& options, Tracer& tracer, RunRecord& record) {
  std::vector<Input> inputs;
  for (int rep = 0; rep < 3; ++rep) {
    timed_setup(record, [&] { inputs = set_up(options); });
  }

  // First-pass digests of each annotated model; later passes must match.
  std::vector<std::uint64_t> expected(inputs.size(), 0);
  std::vector<double> traced_actors;
  std::vector<double> clauses;

  Loop loop;
  loop.request = [&](std::uint64_t n) {
    const std::size_t i = n % inputs.size();
    Step step;
    const std::int64_t t0 = now_ns();
    const std::uint32_t req = tracer.begin_request("sizer.request");
    io::ChainDocument doc;
    {
      Stage s(tracer, "io.read_chain");
      doc = io::read_chain(inputs[i].text);
    }
    std::optional<analysis::TopologySnapshot> snapshot;
    {
      Stage s(tracer, "analysis.snapshot");
      snapshot.emplace(doc.graph);
    }
    analysis::GraphAnalysis sized;
    {
      Stage s(tracer, "analysis.capacities");
      sized = analysis::compute_buffer_capacities(*snapshot, doc.constraints);
    }
    analysis::CertificateCheck check;
    analysis::MinPeriodResult period;
    std::string annotated;
    if (sized.admissible) {
      analysis::Certificate cert;
      {
        Stage s(tracer, "analysis.certificate");
        cert = analysis::make_certificate(doc.graph, sized);
      }
      {
        Stage s(tracer, "analysis.checker");
        check = analysis::check_certificate(doc.graph, cert);
      }
      {
        Stage s(tracer, "analysis.apply_capacities");
        analysis::apply_capacities(doc.graph, sized);
      }
      {
        Stage s(tracer, "analysis.period");
        const dataflow::ActorId lead = doc.constraints.front().actor;
        period = doc.constraints.size() > 1
                     ? analysis::min_admissible_period(doc.graph,
                                                       doc.constraints, lead)
                     : analysis::min_admissible_period(doc.graph, lead);
      }
      {
        Stage s(tracer, "io.write_chain");
        annotated = io::write_chain(doc.graph, doc.constraints);
      }
    }
    tracer.end_request(req);
    step.latency_us = static_cast<double>(now_ns() - t0) / 1e3;

    // The capacities were computed for the declared period, so that period
    // must lie at or above the exact feasibility infimum they support.
    const std::uint64_t out = digest(annotated, sized.total_capacity);
    step.ok = sized.admissible && check.ok && period.ok &&
              period.infimum_period <= doc.constraints.front().period &&
              (expected[i] == 0 || expected[i] == out);
    if (expected[i] == 0) {
      expected[i] = out;
    }
    if (tracer.enabled) {
      traced_actors.push_back(static_cast<double>(inputs[i].actors));
      clauses.push_back(static_cast<double>(check.clauses_checked));
    }
    return step;
  };
  // Pacing runs inside compute_buffer_capacities; the probe times the
  // public pacing entry point on a fresh snapshot of the same model.
  loop.probe = [&](std::uint64_t n) {
    const io::ChainDocument doc = io::read_chain(inputs[n % inputs.size()].text);
    const analysis::TopologySnapshot snapshot(doc.graph);
    Stage s(tracer, "analysis.pacing");
    const analysis::PacingResult pacing =
        analysis::compute_pacing(snapshot, doc.constraints);
    if (!pacing.ok) {
      record.fail_gate("pacing probe rejected a model the sizer accepted");
    }
  };

  const LoopLatency latency = drive(options, tracer, record, loop);
  record.notes.push_back("sizer: " + std::to_string(inputs.size()) +
                         " models in the pool");
  if (!options.trace) {
    return;
  }

  static const char* const kStages[] = {
      "io.read_chain",       "io.write_chain",       "analysis.snapshot",
      "analysis.pacing",     "analysis.capacities",  "analysis.certificate",
      "analysis.checker",    "analysis.period"};
  const auto total_us = [&](const char* span) {
    const std::vector<double> us = tracer.durations_us(span);
    return std::accumulate(us.begin(), us.end(), 0.0);
  };
  const double request_total = total_us("sizer.request");
  for (const char* stage : kStages) {
    add_stage_metrics(record, tracer, stage);
    const double total = total_us(stage);
    record.layers[std::string(stage) + "_share"] = {
        request_total > 0.0 ? total / request_total : 0.0, "ratio"};
  }
  const auto per_actor_ns = [&](const char* span) {
    const std::vector<double> us = tracer.durations_us(span);
    std::vector<double> ns;
    for (std::size_t k = 0; k < us.size() && k < traced_actors.size(); ++k) {
      ns.push_back(us[k] * 1e3 / traced_actors[k]);
    }
    return median(ns);
  };
  record.layers["analysis.snapshot_ns_per_actor"] = {
      per_actor_ns("analysis.snapshot"), "ns"};
  record.layers["analysis.checker_ns_per_actor"] = {
      per_actor_ns("analysis.checker"), "ns"};
  record.layers["analysis.checker_clauses"] = {median(clauses), "count"};
  add_trace_metrics(record, tracer, latency.untraced_p50_us,
                    latency.traced_p50_us);
}

}  // namespace bench
