// Fleet-scale parallel verification: expand a sweep spec into
// independent generate → analyze → two-phase-verify pipelines, run them
// on worker threads, and print the aggregated report.
//
// With no arguments a small default sweep runs (all five model classes,
// 8 seeds each, 2 workers) — suitable for CI smoke runs.  Flags:
//
//   --classes chain,fork_join,...   model classes swept (default: all)
//   --seeds N                       seed ordinals per class cell
//   --threads N                     sweep workers (1 = inline, no thread)
//   --headroom A,B,...              capacity headroom levels swept
//   --modes sink,source             constraint placements swept
//   --observe N                     firings observed per verify phase
//   --base-seed N                   RNG base (items derive via splitmix64)
//   --faulted                       inject within-margin faults + monitor
//   --certify                       emit + independently check a capacity
//                                   certificate for every analysis
//   --journal PATH                  resumable journal (rerun to resume)
//   --items                         print every item line, not just tallies
//
// The canonical report section is bit-identical for any --threads value
// and across interrupt + resume; only the trailing wall-clock lines vary.
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "io/fleet_journal.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"

namespace {

using vrdf::models::ModelClass;
using vrdf::sim::ConstraintMode;

[[noreturn]] void usage_error(const std::string& detail) {
  std::cerr << "vrdf_fleet: " << detail << "\n"
            << "usage: vrdf_fleet [--classes LIST] [--seeds N] [--threads N]\n"
            << "                  [--headroom LIST] [--modes LIST]\n"
            << "                  [--observe N] [--base-seed N] [--faulted]\n"
            << "                  [--certify] [--journal PATH] [--items]\n";
  std::exit(2);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return parts;
}

/// The whole of `text` as a decimal integer; trailing characters ("8x")
/// are a usage error, not a silent truncation.
std::int64_t parse_int(const std::string& flag, const std::string& text,
                       const char* wanted) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    usage_error(flag + " wants " + wanted + ", got '" + text + "'");
  }
  return value;
}

std::int64_t parse_count(const std::string& flag, const std::string& text) {
  const std::int64_t value = parse_int(flag, text, "a positive integer");
  if (value <= 0) {
    usage_error(flag + " wants a positive integer, got '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vrdf;

  sim::SweepSpec spec;
  // The no-argument default is a small smoke sweep: every class, both
  // placements, a handful of seeds — a few seconds of work.
  spec.seeds_per_class = 8;
  spec.modes = {ConstraintMode::Sink, ConstraintMode::Source};
  spec.observe_firings = 200;
  std::size_t threads = 2;
  std::optional<std::string> journal_path;
  bool print_items = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error(flag + " wants a value");
      }
      return argv[++i];
    };
    if (flag == "--classes") {
      spec.classes.clear();
      for (const std::string& name : split_list(value())) {
        const auto model_class = models::parse_model_class(name);
        if (!model_class.has_value()) {
          usage_error("unknown model class '" + name + "'");
        }
        spec.classes.push_back(*model_class);
      }
    } else if (flag == "--seeds") {
      spec.seeds_per_class = parse_count(flag, value());
    } else if (flag == "--threads") {
      threads = static_cast<std::size_t>(parse_count(flag, value()));
    } else if (flag == "--headroom") {
      spec.headroom_levels.clear();
      for (const std::string& level : split_list(value())) {
        spec.headroom_levels.push_back(parse_int(flag, level, "integers"));
      }
    } else if (flag == "--modes") {
      spec.modes.clear();
      for (const std::string& name : split_list(value())) {
        if (name == "sink") {
          spec.modes.push_back(ConstraintMode::Sink);
        } else if (name == "source") {
          spec.modes.push_back(ConstraintMode::Source);
        } else {
          usage_error("unknown mode '" + name + "' (want sink or source)");
        }
      }
    } else if (flag == "--observe") {
      spec.observe_firings = parse_count(flag, value());
    } else if (flag == "--base-seed") {
      spec.base_seed = static_cast<std::uint64_t>(parse_count(flag, value()));
    } else if (flag == "--faulted") {
      spec.faulted = true;
    } else if (flag == "--certify") {
      spec.certify = true;
    } else if (flag == "--journal") {
      journal_path = value();
    } else if (flag == "--items") {
      print_items = true;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }

  try {
    const sim::FleetSweep sweep(spec);
    std::optional<io::FleetJournal> journal;
    if (journal_path.has_value()) {
      journal.emplace(*journal_path, sweep.fingerprint(), sweep.items().size());
      std::cout << "journal '" << *journal_path << "': "
                << journal->completed() << "/" << sweep.items().size()
                << " items already recorded\n";
    }
    const sim::FleetReport report =
        sweep.run(threads, journal.has_value() ? &*journal : nullptr);
    std::cout << sim::summary_text(report, print_items);
    return report.failed == 0 && report.rejected == 0 ? 0 : 1;
  } catch (const Error& error) {
    std::cerr << "vrdf_fleet: " << error.what() << "\n";
    return 1;
  }
}
