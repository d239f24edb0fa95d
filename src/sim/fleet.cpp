#include "sim/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/robustness.hpp"
#include "io/fleet_journal.hpp"
#include "sim/fault_injection.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace vrdf::sim {

namespace {

using models::ModelClass;

[[nodiscard]] bool class_has_source_mode(ModelClass model_class) {
  return model_class == ModelClass::Chain ||
         model_class == ModelClass::ForkJoin ||
         model_class == ModelClass::Cyclic;
}

/// `key=value` token reader over one encoded line.
class FieldReader {
 public:
  explicit FieldReader(std::istringstream& in) : in_(in) {}

  bool next(const char* key, std::string* value) {
    std::string token;
    if (!(in_ >> token)) {
      return false;
    }
    const std::string prefix = std::string(key) + "=";
    if (token.rfind(prefix, 0) != 0) {
      return false;
    }
    *value = token.substr(prefix.size());
    return true;
  }

  bool next_int(const char* key, std::int64_t* value) {
    std::string text;
    if (!next(key, &text) || text.empty()) {
      return false;
    }
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size()) {
      return false;
    }
    *value = parsed;
    return true;
  }

  bool next_bool(const char* key, bool* value) {
    std::int64_t raw = 0;
    if (!next_int(key, &raw) || (raw != 0 && raw != 1)) {
      return false;
    }
    *value = raw == 1;
    return true;
  }

 private:
  std::istringstream& in_;
};

/// The fields of an item that its journal line records.
[[nodiscard]] std::string identity(const FleetItem& item) {
  return std::string("class=") + models::class_name(item.model_class) +
         " seed=" + std::to_string(item.seed_ordinal) +
         " headroom=" + std::to_string(item.headroom) +
         " mode=" + constraint_mode_name(item.mode);
}

[[nodiscard]] std::string class_key(ModelClass model_class) {
  return std::string("class ") + models::class_name(model_class);
}

void tally_item(FleetTally& tally, const FleetItemResult& result) {
  ++tally.total_items;
  if (result.rejected) {
    ++tally.rejected;
  } else if (result.pass) {
    ++tally.passed;
  } else {
    ++tally.failed;
  }
  tally.starvations += result.starvation_count;
  tally.total_capacity += result.total_capacity;
  tally.firings += result.firings;
  if (result.max_lateness > tally.worst_lateness) {
    tally.worst_lateness = result.max_lateness;
  }
  tally.faults_expected += result.fault_margin_positive ? 1 : 0;
  tally.faults_named += result.fault_named ? 1 : 0;
  tally.certified += result.certificate_ok ? 1 : 0;
  tally.certificate_clauses += result.certificate_clauses;
  tally.certificate_failures +=
      (result.certificate_clauses > 0 && !result.certificate_ok) ? 1 : 0;
}

void write_tally_fields(std::ostream& os, const FleetTally& t) {
  os << "items=" << t.total_items << " passed=" << t.passed
     << " failed=" << t.failed << " rejected=" << t.rejected
     << " starvations=" << t.starvations
     << " capacity=" << t.total_capacity << " firings=" << t.firings
     << " worst_lateness=" << t.worst_lateness.seconds().to_string()
     << " faults_expected=" << t.faults_expected
     << " faults_named=" << t.faults_named
     << " certified=" << t.certified
     << " cert_clauses=" << t.certificate_clauses
     << " cert_failures=" << t.certificate_failures;
}

[[nodiscard]] std::uint64_t fingerprint_text(const std::string& text) {
  // FNV-1a over the canonical spec summary, finalized through the shared
  // splitmix64 mixer at stream 0.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001B3ULL;
  }
  return util::derive_seed(hash, 0);
}

}  // namespace

const char* constraint_mode_name(ConstraintMode mode) {
  return mode == ConstraintMode::Sink ? "sink" : "source";
}

std::string encode_item_line(const FleetItemResult& result) {
  std::ostringstream os;
  os << "item " << result.item.index << ' ' << identity(result.item)
     << " pass=" << (result.pass ? 1 : 0)
     << " rejected=" << (result.rejected ? 1 : 0)
     << " starvations=" << result.starvation_count
     << " capacity=" << result.total_capacity << " firings=" << result.firings
     << " lateness=" << result.max_lateness.seconds().to_string()
     << " fault_expected=" << (result.fault_margin_positive ? 1 : 0)
     << " fault_named=" << (result.fault_named ? 1 : 0)
     << " cert_clauses=" << result.certificate_clauses
     << " cert_ok=" << (result.certificate_ok ? 1 : 0)
     << " detail=" << escape_detail(result.detail);
  return os.str();
}

bool decode_item_line(const std::string& line, FleetItemResult* result) {
  if (line.rfind("item ", 0) != 0) {
    return false;
  }
  // `detail=` takes the rest of the line (it may contain spaces); split it
  // off before tokenizing the fixed-shape fields.
  const std::size_t detail_pos = line.find(" detail=");
  if (detail_pos == std::string::npos) {
    return false;
  }
  FleetItemResult decoded;
  decoded.detail = unescape_detail(line.substr(detail_pos + 8));
  std::istringstream in(line.substr(5, detail_pos - 5));
  std::int64_t index = 0;
  if (!(in >> index) || index < 0) {
    return false;
  }
  decoded.item.index = static_cast<std::size_t>(index);
  FieldReader fields(in);
  std::string class_text;
  std::string mode_text;
  std::string lateness_text;
  std::int64_t seed = 0;
  if (!fields.next("class", &class_text) || !fields.next_int("seed", &seed) ||
      seed < 0 || !fields.next_int("headroom", &decoded.item.headroom) ||
      !fields.next("mode", &mode_text) ||
      !fields.next_bool("pass", &decoded.pass) ||
      !fields.next_bool("rejected", &decoded.rejected) ||
      !fields.next_int("starvations", &decoded.starvation_count) ||
      !fields.next_int("capacity", &decoded.total_capacity) ||
      !fields.next_int("firings", &decoded.firings) ||
      !fields.next("lateness", &lateness_text) ||
      !fields.next_bool("fault_expected", &decoded.fault_margin_positive) ||
      !fields.next_bool("fault_named", &decoded.fault_named) ||
      !fields.next_int("cert_clauses", &decoded.certificate_clauses) ||
      !fields.next_bool("cert_ok", &decoded.certificate_ok)) {
    return false;
  }
  const auto model_class = models::parse_model_class(class_text);
  if (!model_class.has_value()) {
    return false;
  }
  decoded.item.model_class = *model_class;
  decoded.item.seed_ordinal = static_cast<std::uint64_t>(seed);
  if (mode_text == "sink") {
    decoded.item.mode = ConstraintMode::Sink;
  } else if (mode_text == "source") {
    decoded.item.mode = ConstraintMode::Source;
  } else {
    return false;
  }
  try {
    decoded.max_lateness = Duration(Rational::from_string(lateness_text));
  } catch (const Error&) {
    return false;
  }
  *result = decoded;
  return true;
}

FleetSweep::FleetSweep(SweepSpec spec) : spec_(std::move(spec)) {
  VRDF_REQUIRE(!spec_.classes.empty(), "sweep needs at least one model class");
  VRDF_REQUIRE(spec_.seeds_per_class > 0, "sweep needs at least one seed");
  VRDF_REQUIRE(!spec_.headroom_levels.empty(),
               "sweep needs at least one headroom level");
  VRDF_REQUIRE(!spec_.modes.empty(), "sweep needs at least one mode");
  VRDF_REQUIRE(spec_.observe_firings > 0, "need at least one observed firing");

  for (const ModelClass model_class : spec_.classes) {
    for (const ConstraintMode mode : spec_.modes) {
      if (mode == ConstraintMode::Source &&
          !class_has_source_mode(model_class)) {
        continue;
      }
      for (const std::int64_t headroom : spec_.headroom_levels) {
        VRDF_REQUIRE(headroom >= 0, "headroom levels must be non-negative");
        for (std::int64_t ordinal = 1; ordinal <= spec_.seeds_per_class;
             ++ordinal) {
          FleetItem item;
          item.index = items_.size();
          item.model_class = model_class;
          item.seed_ordinal = static_cast<std::uint64_t>(ordinal);
          item.headroom = headroom;
          item.mode = mode;
          item.rng_seed = util::derive_seed(spec_.base_seed, item.index);
          items_.push_back(item);
        }
      }
    }
  }

  std::ostringstream os;
  os << "classes=";
  for (std::size_t i = 0; i < spec_.classes.size(); ++i) {
    os << (i == 0 ? "" : ",") << models::class_name(spec_.classes[i]);
  }
  os << " modes=";
  for (std::size_t i = 0; i < spec_.modes.size(); ++i) {
    os << (i == 0 ? "" : ",") << constraint_mode_name(spec_.modes[i]);
  }
  os << " headrooms=";
  for (std::size_t i = 0; i < spec_.headroom_levels.size(); ++i) {
    os << (i == 0 ? "" : ",") << spec_.headroom_levels[i];
  }
  os << " seeds_per_class=" << spec_.seeds_per_class
     << " base_seed=" << spec_.base_seed
     << " response_fraction=" << spec_.response_fraction.to_string()
     << " variable=" << spec_.variable_percent
     << " zero=" << spec_.zero_percent
     << " observe=" << spec_.observe_firings
     << " faulted=" << (spec_.faulted ? 1 : 0)
     << " certify=" << (spec_.certify ? 1 : 0)
     << " generator=" << (spec_.generator ? "custom" : "default")
     << " items=" << items_.size();
  spec_summary_ = os.str();
  fingerprint_ = fingerprint_text(spec_summary_);
}

FleetItemResult FleetSweep::run_item(const FleetItem& item) const {
  FleetItemResult result;
  result.item = item;
  try {
    models::SyntheticModel model;
    if (spec_.generator) {
      model = spec_.generator(item);
    } else {
      models::RandomModelSpec random;
      random.model_class = item.model_class;
      random.seed = item.rng_seed;
      random.response_fraction = spec_.response_fraction;
      random.variable_percent = spec_.variable_percent;
      random.zero_percent = spec_.zero_percent;
      random.source_constrained = item.mode == ConstraintMode::Source;
      model = models::make_random_model(random);
    }

    const analysis::GraphAnalysis sized =
        analysis::compute_buffer_capacities(model.graph, model.constraints);
    if (!sized.admissible) {
      result.rejected = true;
      result.detail = sized.diagnostics.empty() ? "analysis rejected the model"
                                                : sized.diagnostics.front();
      return result;
    }
    result.total_capacity = sized.total_capacity;
    if (spec_.certify) {
      // Certify before capacities/headroom install: the certificate's
      // parameter binding (ρ/δ) is against the analysed graph.
      const analysis::Certificate cert =
          analysis::make_certificate(model.graph, sized);
      const analysis::CertificateCheck check =
          analysis::check_certificate(model.graph, cert);
      result.certificate_clauses =
          static_cast<std::int64_t>(check.clauses_checked);
      result.certificate_ok = check.ok;
      if (!check.ok) {
        result.detail = "certificate: " + check.first_violation();
        return result;
      }
    }
    analysis::apply_capacities(model.graph, sized);
    if (item.headroom > 0) {
      for (const analysis::PairAnalysis& pair : sized.pairs) {
        const dataflow::EdgeId space = pair.buffer.space;
        model.graph.set_initial_tokens(
            space, model.graph.edge(space).initial_tokens + item.headroom);
      }
    }

    VerifyOptions options;
    options.observe_firings = spec_.observe_firings;
    options.default_seed = util::derive_seed(item.rng_seed, 1);
    options.monitor = spec_.faulted;

    SimulatorConfigurer configure;
    FaultPlan plan;
    dataflow::ActorId faulted_actor;
    if (spec_.faulted) {
      const analysis::RobustnessReport margins =
          analysis::robustness_margins(model.graph, model.constraints);
      if (!margins.ok) {
        result.rejected = true;
        result.detail = margins.diagnostics.empty()
                            ? "robustness margins unavailable"
                            : margins.diagnostics.front();
        return result;
      }
      // Inject the strongest within-margin stress: the whole tolerable
      // overrun of the largest-margin actor, on every firing.
      const analysis::ActorMargin* target = &margins.actors.front();
      for (const analysis::ActorMargin& margin : margins.actors) {
        if (margin.margin > target->margin) {
          target = &margin;
        }
      }
      faulted_actor = target->actor;
      result.fault_margin_positive = target->margin.is_positive();
      plan.rho_overrun(target->actor, target->margin);
      configure = [&plan](Simulator& sim) { plan.apply(sim); };
    }

    const VerifyResult verdict =
        verify_throughput(model.graph, model.constraints, configure, options);
    result.pass = verdict.ok;
    result.starvation_count = verdict.starvation_count;
    result.firings = verdict.firings_simulated;
    result.max_lateness = verdict.max_lateness_phase1;
    if (!verdict.ok) {
      result.detail = verdict.detail;
    }
    if (spec_.faulted && verdict.monitor.has_value() &&
        !verdict.monitor->rho_conformant) {
      for (const RhoViolation& violation : verdict.monitor->rho_violations) {
        if (violation.actor == faulted_actor) {
          result.fault_named = true;
          break;
        }
      }
    }
  } catch (const Error& error) {
    result.pass = false;
    result.rejected = true;
    result.detail = error.what();
  }
  return result;
}

FleetReport FleetSweep::run(std::size_t threads,
                            io::FleetJournal* journal) const {
  if (journal != nullptr) {
    VRDF_REQUIRE(journal->fingerprint() == fingerprint_,
                 "journal was written for a different sweep spec");
  }
  FleetReport report;
  report.items.resize(items_.size());
  std::vector<char> resumed(items_.size(), 0);
  const auto work = [&](std::size_t i) {
    FleetItemResult& result = report.items[i];
    if (journal != nullptr && journal->lookup(i, &result)) {
      const std::string recorded = identity(result.item);
      if (recorded != identity(items_[i])) {
        throw ModelError("fleet journal item " + std::to_string(i) +
                         " records " + recorded + " but the sweep expands " +
                         identity(items_[i]));
      }
      // The line carries no RNG stream: take the item from the expansion.
      result.item = items_[i];
      resumed[i] = 1;
      return;
    }
    result = run_item(items_[i]);
    if (journal != nullptr) {
      journal->record(result);  // thread-safe append + flush
    }
  };
  report.elapsed_seconds = run_sweep(items_.size(), threads, work);

  // Fold in item order — the aggregation is independent of which worker
  // finished when, so the report bytes match across thread counts.
  report.spec_summary = spec_summary_;
  for (const ModelClass model_class : spec_.classes) {
    report.classes.emplace_back().key = class_key(model_class);
  }
  fold_tallies(report, report.classes, report.items, tally_item,
               [](const FleetItem& item) {
                 return class_key(item.model_class);
               });

  std::int64_t fresh_firings = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    report.items_resumed += resumed[i] != 0 ? 1 : 0;
    fresh_firings += resumed[i] != 0 ? 0 : report.items[i].firings;
  }
  report.firings_per_second = report.elapsed_seconds > 0.0
                                  ? static_cast<double>(fresh_firings) /
                                        report.elapsed_seconds
                                  : 0.0;
  report.threads_used = std::max<std::size_t>(threads, 1);
  return report;
}

std::string canonical_text(const FleetReport& report, bool include_items) {
  return canonical_report("vrdf-fleet-report v1", report, report.classes,
                          write_tally_fields, encode_item_line, include_items);
}

std::string summary_text(const FleetReport& report, bool include_items) {
  std::ostringstream os;
  os << canonical_text(report, include_items);
  os << "threads " << report.threads_used << "\n";
  os << "resumed " << report.items_resumed << " items\n";
  os << "elapsed " << report.elapsed_seconds << " s ("
     << report.firings_per_second << " firings/s aggregate)\n";
  return os.str();
}

}  // namespace vrdf::sim
