// vrdf_bench — the repository benchmark program.
//
//   vrdf_bench --workload sizer|margins|admission|sweep --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//              [--mp3-expect d1,d2,d3]
//
// Generates the workload's inputs from --seed, sets them up (several
// times; the median is setup_s), runs the workload as a closed loop for
// --seconds, checks every output, and prints one JSON object as the last
// line of stdout (end-to-end timings scaled to a reference host speed, see
// reference.hpp):
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 traces a random half
// of the requests and reports the per-layer metrics, writing a Chrome trace
// and a per-stage summary into --out-dir.  Every run also sizes the
// paper's MP3 case study and checks the published capacities (Sec 5:
// 6015, 3263, 882); --mp3-expect overrides the expectation, which is how a
// broken correctness gate is demonstrated.  Exit code 0 only when every
// output and gate is correct; 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/buffer_sizing.hpp"
#include "bench.hpp"
#include "models/mp3.hpp"

namespace {

using bench::Metric;
using bench::Options;
using bench::RunRecord;

/// Every per-layer metric a traced run reports, with its unit.  A layer a
/// workload does not exercise reports 0 (no calls, no time).  Keep in step
/// with BENCHMARK.json.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    // sizer
    {"io.read_chain_us", "us"},
    {"io.write_chain_us", "us"},
    {"analysis.snapshot_us", "us"},
    {"analysis.pacing_us", "us"},
    {"analysis.capacities_us", "us"},
    {"analysis.certificate_us", "us"},
    {"analysis.checker_us", "us"},
    {"analysis.period_us", "us"},
    {"io.read_chain_share", "ratio"},
    {"io.write_chain_share", "ratio"},
    {"analysis.snapshot_share", "ratio"},
    {"analysis.pacing_share", "ratio"},
    {"analysis.capacities_share", "ratio"},
    {"analysis.certificate_share", "ratio"},
    {"analysis.checker_share", "ratio"},
    {"analysis.period_share", "ratio"},
    {"analysis.snapshot_ns_per_actor", "ns"},
    {"analysis.checker_ns_per_actor", "ns"},
    {"analysis.checker_clauses", "count"},
    // margins
    {"io.report_us", "us"},
    {"analysis.robustness_us", "us"},
    {"analysis.robustness_share", "ratio"},
    {"io.report_self_us", "us"},
    {"analysis.oneshot_us", "us"},
    {"analysis.reanalysis_equiv", "count"},
    // admission
    {"admission.retune_us", "us"},
    {"admission.retune_p99_us", "us"},
    {"admission.retune_accepted", "count"},
    {"admission.retune_rejected", "count"},
    {"admission.admit_us", "us"},
    {"admission.admit_p99_us", "us"},
    {"admission.admit_accepted", "count"},
    {"admission.admit_rejected", "count"},
    {"admission.remove_us", "us"},
    {"admission.remove_p99_us", "us"},
    {"admission.remove_accepted", "count"},
    {"admission.remove_rejected", "count"},
    {"admission.set_period_us", "us"},
    {"admission.set_period_p99_us", "us"},
    {"admission.set_period_accepted", "count"},
    {"admission.set_period_rejected", "count"},
    {"deployment.set_slot_us", "us"},
    {"deployment.set_slot_p99_us", "us"},
    {"deployment.set_slot_accepted", "count"},
    {"deployment.set_slot_rejected", "count"},
    {"deployment.admit_us", "us"},
    {"deployment.admit_p99_us", "us"},
    {"deployment.admit_accepted", "count"},
    {"deployment.admit_rejected", "count"},
    {"deployment.remove_us", "us"},
    {"deployment.remove_accepted", "count"},
    {"deployment.remove_rejected", "count"},
    {"incremental.pacing_hit_ratio", "ratio"},
    {"incremental.pacing_queries", "count"},
    {"incremental.pairs_reused_ratio", "ratio"},
    {"incremental.pairs_touched", "count"},
    {"incremental.cone_actors", "count"},
    {"admission.full_recompute_us", "us"},
    // sweep
    {"models.generate_us", "us"},
    {"sim.verify_us", "us"},
    {"sim.firings_per_item", "count"},
    {"sim.verify_firings_per_s", "1/s"},
    {"sim_firings_per_s", "1/s"},
    {"fleet.run_item_us", "us"},
    {"frontier.run_item_us", "us"},
    {"pool.efficiency", "ratio"},
    {"pool.workers", "count"},
    // tracing itself
    {"trace.requests", "count"},
    {"trace.spans", "count"},
    {"trace.stage_sum_within_5pct", "ratio"},
    {"trace.stage_sum_min_ratio", "ratio"},
    {"trace.overhead_us", "us"},
    {"trace.overhead_pct", "%"},
};

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--mp3-expect") {
        options.mp3_expect.clear();
        std::stringstream list(value);
        std::string item;
        while (std::getline(list, item, ',')) {
          options.mp3_expect.push_back(std::stoll(item));
        }
      } else {
        std::cerr << "unknown flag '" << flag << "'\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value '" << value << "' for " << flag << '\n';
      return false;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !(options.seconds > 0.0)) {
    std::cerr << "usage: vrdf_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--mp3-expect d1,d2,d3]\n";
    return false;
  }
  return true;
}

/// The paper's anchor: MP3 playback sized with the published rounding must
/// give exactly the capacities of Sec 5.
void mp3_gate(const Options& options, RunRecord& record) {
  const vrdf::models::Mp3Playback mp3 = vrdf::models::make_mp3_playback();
  const vrdf::analysis::GraphAnalysis sized =
      vrdf::analysis::compute_buffer_capacities(mp3.graph, mp3.constraint);
  std::ostringstream got;
  bool ok = sized.admissible && sized.pairs.size() == options.mp3_expect.size();
  for (std::size_t i = 0; i < sized.pairs.size(); ++i) {
    got << (i == 0 ? "" : ",") << sized.pairs[i].capacity;
    ok = ok && i < options.mp3_expect.size() &&
         sized.pairs[i].capacity == options.mp3_expect[i];
  }
  record.notes.push_back("mp3 capacities " + got.str() +
                         (ok ? " (match)" : " (MISMATCH)"));
  if (!ok) {
    record.fail_gate("MP3 capacities " + got.str() +
                     " differ from the expected values");
  }
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    return 2;
  }
  RunRecord record;
  bench::Tracer tracer;
  try {
    mp3_gate(options, record);
    if (options.workload == "sizer") {
      bench::run_sizer(options, tracer, record);
    } else if (options.workload == "margins") {
      bench::run_margins(options, tracer, record);
    } else if (options.workload == "admission") {
      bench::run_admission(options, tracer, record);
    } else if (options.workload == "sweep") {
      bench::run_sweep(options, tracer, record);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    // A library error escaping a workload is a failed run, not a result.
    std::cerr << options.workload << ": " << error.what() << '\n';
    return 1;
  }

  std::map<std::string, Metric> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = record.layers.find(name);
      metrics[name] = it != record.layers.end() ? it->second : Metric{0.0, unit};
    }
    const std::string stem = options.out_dir + "/" + options.workload + "_seed" +
                             std::to_string(options.seed);
    const std::string summary = tracer.summary_text();
    std::ofstream(stem + "_stages.txt") << summary;
    if (tracer.write_chrome_trace(stem + "_trace.json")) {
      record.notes.push_back("trace written to " + stem + "_trace.json");
    }
    std::istringstream lines(summary);
    for (std::string line; std::getline(lines, line);) {
      record.notes.push_back(line);
    }
  } else {
    const bench::EndToEnd e2e = bench::end_to_end(record);
    metrics["ops_per_s"] = {e2e.ops_per_s, "1/s"};
    metrics["latency_p50_us"] = {e2e.latency_p50_us, "us"};
    metrics["latency_p99_us"] = {e2e.latency_p99_us, "us"};
    const auto list = [](const char* name, const std::vector<double>& values) {
      std::string line = std::string("windows ") + name + ":";
      for (const double v : values) {
        line += ' ' + number(v);
      }
      return line;
    };
    record.notes.push_back(list("host slowdown", e2e.slowdown_windows));
    record.notes.push_back(list("ops_per_s", e2e.ops_windows));
    record.notes.push_back(list("ops_per_s unscaled", e2e.raw_ops_windows));
    record.notes.push_back(list("latency_p50_us", e2e.p50_windows));
    record.notes.push_back(list("latency_p50_us unscaled", e2e.raw_p50_windows));
    record.notes.push_back(list("latency_p99_us", e2e.p99_windows));
    record.notes.push_back(list("latency_p99_us unscaled", e2e.raw_p99_windows));
    record.notes.push_back(list("setup_s unscaled", record.setup_s));
    metrics["setup_s"] = {bench::setup_seconds(record), "s"};
    metrics["peak_rss_mb"] = {record.peak_rss_mb, "MB"};
  }

  const bool correct = record.failed == 0 && record.gate_failures.empty() &&
                       record.attempted > 0;
  for (const std::string& note : record.notes) {
    std::cout << note << '\n';
  }
  for (const std::string& gate : record.gate_failures) {
    std::cout << "GATE FAILED: " << gate << '\n';
  }
  std::cout << "fail_ratio = "
            << number(record.attempted > 0
                          ? static_cast<double>(record.failed) /
                                static_cast<double>(record.attempted)
                          : 1.0)
            << " ratio (" << record.failed << " of " << record.attempted
            << " requests)\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << name << " = " << number(metric.value) << ' ' << metric.unit
              << '\n';
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(record.attempted, 1)
       << ", \"failed\": " << record.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
