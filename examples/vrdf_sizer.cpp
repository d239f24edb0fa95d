// vrdf_sizer — command-line buffer sizing for `vrdf-chain v1` model files.
//
// Usage:
//   vrdf_sizer <model-file> [--rounding=published|literal|ceil]
//              [--verify[=FIRINGS]] [--seed=N] [--dot=FILE]
//              [--trace-csv=FILE] [--annotate=FILE]
//
// Reads a chain model (see io/text_format.hpp for the format; the file
// must contain at least one `constraint` line — several lines declare a
// simultaneous constraint set), computes buffer capacities, prints a
// report, and optionally:
//   --verify        runs the two-phase simulation check,
// and always reports the fastest admissible period ("rate headroom") the
// computed capacities support.
//   --dot           writes the sized graph as Graphviz DOT,
//   --trace-csv     writes a buffer-occupancy trace of the verify run,
//   --annotate      writes the model back with computed capacities,
//   --report        writes a markdown analysis report.
//
// FIRINGS must be a positive integer and N an unsigned one.
//
// Exit code: 0 on success (and verification pass, if requested); 1 when
// the constraints cannot be met or verification fails; 2 on a bad
// argument or an unreadable or malformed model file.
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/period.hpp"
#include "io/dot.hpp"
#include "io/report.hpp"
#include "io/table.hpp"
#include "io/text_format.hpp"
#include "io/trace.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace {

using namespace vrdf;

struct Options {
  std::string model_path;
  analysis::RoundingMode rounding = analysis::RoundingMode::PaperPublished;
  bool verify = false;
  std::int64_t verify_firings = 10000;
  std::uint64_t seed = 1;
  std::string dot_path;
  std::string trace_path;
  std::string annotate_path;
  std::string report_path;
};

/// Parses all of `text` as a T: false on a sign an unsigned T cannot take,
/// trailing characters, or overflow.
template <typename T>
bool parse_number(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  return error == std::errc() && stop == end;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) -> std::string {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--rounding=", 0) == 0) {
      const std::string mode = value_of("--rounding=");
      if (mode == "published") {
        options.rounding = analysis::RoundingMode::PaperPublished;
      } else if (mode == "literal") {
        options.rounding = analysis::RoundingMode::PaperLiteral;
      } else if (mode == "ceil") {
        options.rounding = analysis::RoundingMode::Ceil;
      } else {
        std::cerr << "unknown rounding mode '" << mode << "'\n";
        return false;
      }
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg.rfind("--verify=", 0) == 0) {
      options.verify = true;
      const std::string firings = value_of("--verify=");
      if (!parse_number(firings, options.verify_firings) ||
          options.verify_firings <= 0) {
        std::cerr << "--verify wants a positive firing count, got '"
                  << firings << "'\n";
        return false;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      const std::string seed = value_of("--seed=");
      if (!parse_number(seed, options.seed)) {
        std::cerr << "--seed wants an unsigned integer, got '" << seed
                  << "'\n";
        return false;
      }
    } else if (arg.rfind("--dot=", 0) == 0) {
      options.dot_path = value_of("--dot=");
    } else if (arg.rfind("--trace-csv=", 0) == 0) {
      options.trace_path = value_of("--trace-csv=");
    } else if (arg.rfind("--annotate=", 0) == 0) {
      options.annotate_path = value_of("--annotate=");
    } else if (arg.rfind("--report=", 0) == 0) {
      options.report_path = value_of("--report=");
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n";
      return false;
    } else if (options.model_path.empty()) {
      options.model_path = arg;
    } else {
      std::cerr << "unexpected argument '" << arg << "'\n";
      return false;
    }
  }
  if (options.model_path.empty()) {
    std::cerr << "usage: vrdf_sizer <model-file> [--rounding=...] [--verify]"
                 " [--dot=FILE] [--trace-csv=FILE] [--annotate=FILE]\n";
    return false;
  }
  return true;
}

/// Sizes, reports and optionally verifies one parsed model; returns the
/// exit status.
int size_model(const Options& options, io::ChainDocument& doc) {
  analysis::AnalysisOptions analysis_options;
  analysis_options.rounding = options.rounding;
  analysis::GraphAnalysis result = analysis::compute_buffer_capacities(
      doc.graph, doc.constraints, analysis_options);
  if (!result.admissible) {
    std::cerr << "constraint not satisfiable:\n";
    for (const auto& d : result.diagnostics) {
      std::cerr << "  " << d << '\n';
    }
    return 1;
  }

  const std::vector<std::int64_t> deadlock_minima =
      analysis::min_deadlock_free_capacities(doc.graph);
  io::Table table({"buffer", "pi / gamma", "capacity", "deadlock-free min",
                   "phi(rate actor) ms"});
  for (std::size_t i = 0; i < result.pairs.size(); ++i) {
    const auto& pair = result.pairs[i];
    const auto& data = doc.graph.edge(pair.buffer.data);
    table.add_row(
        {doc.graph.actor(pair.producer).name + "->" +
             doc.graph.actor(pair.consumer).name,
         data.production.to_string() + " / " + data.consumption.to_string(),
         std::to_string(pair.capacity), std::to_string(deadlock_minima[i]),
         std::to_string(pair.pacing_basis.to_millis_double())});
  }
  std::cout << table.to_string();
  std::cout << "total capacity: " << result.total_capacity << " containers\n";

  analysis::apply_capacities(doc.graph, result);

  // Rate headroom: the fastest period the just-computed capacities (and
  // the given response times) can sustain — for a constraint set, the
  // first constraint is scaled with the others held fixed.
  const analysis::MinPeriodResult headroom = analysis::min_admissible_period(
      doc.graph, doc.constraints, doc.constraints.front().actor,
      analysis_options);
  if (headroom.ok) {
    std::cout << "fastest admissible period with these capacities: "
              << headroom.min_period.seconds().to_string() << " s (binding: "
              << headroom.binding_constraint << ")\n";
  }

  bool ok = true;
  if (options.verify) {
    sim::VerifyOptions verify_options;
    verify_options.observe_firings = options.verify_firings;
    verify_options.default_seed = options.seed;
    const sim::VerifyResult verdict =
        sim::verify_throughput(doc.graph, doc.constraints, {}, verify_options);
    std::cout << "verify: " << (verdict.ok ? "OK" : "FAILED") << " — "
              << verdict.detail << '\n';
    ok = verdict.ok;

    if (!options.trace_path.empty()) {
      // Re-run with recording to capture an occupancy trace of the
      // periodic phase (the first constraint's grid; the others run
      // self-timed here, which monotonicity makes a valid occupancy
      // envelope).
      const analysis::ThroughputConstraint& first = doc.constraints.front();
      sim::Simulator sim(doc.graph);
      sim.set_default_sources(options.seed);
      sim.set_actor_mode(first.actor, sim::ActorMode::strictly_periodic(
                                          verdict.offset_used, first.period));
      const auto edge_ids = doc.graph.edges();
      const std::vector<dataflow::EdgeId> edges(edge_ids.begin(), edge_ids.end());
      for (const dataflow::EdgeId e : edges) {
        sim.record_transfers(e);
      }
      sim::StopCondition stop;
      stop.firing_target = sim::StopCondition::FiringTarget{
          first.actor, std::min<std::int64_t>(options.verify_firings, 2000)};
      (void)sim.run(stop);
      std::ofstream trace(options.trace_path);
      trace << io::occupancy_to_csv(sim, doc.graph, edges);
      std::cout << "wrote " << options.trace_path << '\n';
    }
  }

  if (!options.dot_path.empty()) {
    std::ofstream dot(options.dot_path);
    dot << io::to_dot(doc.graph, doc.constraints, result);
    std::cout << "wrote " << options.dot_path << '\n';
  }
  if (!options.report_path.empty()) {
    std::ofstream report(options.report_path);
    report << io::analysis_report(doc.graph, doc.constraints, result);
    std::cout << "wrote " << options.report_path << '\n';
  }
  if (!options.annotate_path.empty()) {
    std::ofstream annotated(options.annotate_path);
    annotated << io::write_chain(doc.graph, doc.constraints);
    std::cout << "wrote " << options.annotate_path << '\n';
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    return 2;
  }

  std::ifstream in(options.model_path);
  if (!in) {
    std::cerr << "cannot open '" << options.model_path << "'\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  io::ChainDocument doc;
  try {
    doc = io::read_chain(buffer.str());
  } catch (const vrdf::Error& err) {
    std::cerr << options.model_path << ": " << err.what() << '\n';
    return 2;
  }
  if (doc.constraints.empty()) {
    std::cerr << options.model_path << ": no 'constraint' line\n";
    return 2;
  }
  // A well-formed model can still exceed the exact arithmetic (e.g. the
  // robustness margins of --report): say so instead of aborting.
  try {
    return size_model(options, doc);
  } catch (const vrdf::Error& err) {
    std::cerr << options.model_path << ": " << err.what() << '\n';
    return 1;
  }
}
