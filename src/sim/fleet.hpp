// Fleet-scale parallel verification: thousands of independent
// generate → analyze → (certify →) two-phase-verify pipelines, aggregated
// into one report.
//
// FleetSweep is one of the two sweeps on the shared engine in
// sim/sweep.hpp, which owns dispatch (the caller plus self-scheduling
// worker threads), the wall clock, the item-line detail codec, the tally
// fold and the canonical layout — and with them the determinism rules:
// the canonical text is bit-identical at any thread count.  This file
// keeps only what is the fleet's own: a SweepSpec expands into items
// (model classes × seed ordinals × headroom levels × sink/source modes),
// run_item is the per-item pipeline, and tally rows are keyed by model
// class.
//
// Resumability: pass an io::FleetJournal and every finished item is
// appended to it; on restart, journaled items are merged back without
// recompute, so an interrupted 10k-model sweep continues where it left
// off and still produces the canonical bytes of an uninterrupted run.  A
// journaled item always takes its FleetItem (RNG stream included) from
// the sweep's own expansion; a record that disagrees with it is refused.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "models/synthetic.hpp"
#include "sim/verify.hpp"
#include "util/rational.hpp"
#include "util/time.hpp"

namespace vrdf::io {
class FleetJournal;
}  // namespace vrdf::io

namespace vrdf::sim {

/// Which end of the generated model carries the throughput constraint.
enum class ConstraintMode { Sink, Source };

[[nodiscard]] const char* constraint_mode_name(ConstraintMode mode);

/// One independent unit of fleet work, fully determined by the spec and
/// its index — workers receive items by value and share nothing.
struct FleetItem {
  /// Position in the spec's expansion order; also the journal key.
  std::size_t index = 0;
  models::ModelClass model_class = models::ModelClass::Chain;
  /// 1-based ordinal within (class, mode, headroom) — the "seed" a human
  /// reads in the report.  Custom generators may use it to reproduce a
  /// published per-seed shape schedule.
  std::uint64_t seed_ordinal = 1;
  std::int64_t headroom = 0;
  ConstraintMode mode = ConstraintMode::Sink;
  /// splitmix64(base_seed, index) — the item's actual RNG stream.
  std::uint64_t rng_seed = 0;
};

struct SweepSpec {
  /// Classes swept, in report order.  Defaults to all five.
  std::vector<models::ModelClass> classes{
      models::ModelClass::Chain,           models::ModelClass::ForkJoin,
      models::ModelClass::Cyclic,          models::ModelClass::MultiConstraint,
      models::ModelClass::InteriorPinned};
  std::uint64_t base_seed = 1;
  /// Seed ordinals 1..seeds_per_class per (class, mode, headroom) cell.
  std::int64_t seeds_per_class = 40;
  /// Capacity headroom levels swept (containers added per buffer).
  std::vector<std::int64_t> headroom_levels{0};
  /// Constraint placements swept.  Source mode is skipped for
  /// MultiConstraint and InteriorPinned — those classes have no
  /// source-constrained form.
  std::vector<ConstraintMode> modes{ConstraintMode::Sink};
  /// Generator knobs forwarded to models::make_random_model.
  Rational response_fraction = Rational(1, 2);
  int variable_percent = 50;
  int zero_percent = 20;
  /// Firings of the leading constrained actor simulated per phase.
  std::int64_t observe_firings = 300;
  /// Faulted sweep: each item additionally computes its robustness
  /// margins, injects the maximal within-margin ρ overrun on the actor
  /// with the largest margin (FaultPlan seeded from the item's stream),
  /// and verifies under the ConformanceMonitor — the constraint must
  /// still hold while the monitor names the breach.
  bool faulted = false;
  /// Certify sweep: each admissible analysis is transcribed into a
  /// capacity certificate and re-validated by the independent checker
  /// (analysis/checker.hpp) before capacities are installed.  A clause
  /// violation fails the item with the violated clause in `detail`
  /// (checker/analyzer disagreement — a bug, not an input property).
  bool certify = false;
  /// Optional custom generator (e.g. to preserve a published per-seed
  /// shape schedule).  Must be a *pure* function of the item — it is
  /// called concurrently from sweep workers.  Return the bare model
  /// (scaled response times, no capacities installed); the fleet
  /// analyzes, installs capacities plus the item's headroom, and
  /// verifies.  When unset, models::make_random_model(item.rng_seed)
  /// generates.
  std::function<models::SyntheticModel(const FleetItem&)> generator;
};

/// Deterministic verdict of one item.  Every field participates in the
/// canonical serialization and the journal round-trip.
struct FleetItemResult {
  FleetItem item;
  bool pass = false;
  /// The pipeline refused before simulating: inadmissible analysis,
  /// margins not ok (faulted mode), or a generator/contract error —
  /// `detail` says which.
  bool rejected = false;
  std::int64_t starvation_count = 0;
  /// Analysed total capacity (Σζ, headroom excluded); 0 when rejected.
  std::int64_t total_capacity = 0;
  /// Firings simulated across both verify phases; 0 when rejected.
  std::int64_t firings = 0;
  /// Phase-1 max lateness of the leading constrained actor.
  Duration max_lateness;
  /// Faulted mode: the injected margin was positive, and the monitor
  /// attributed the ρ breach to the faulted actor.
  bool fault_margin_positive = false;
  bool fault_named = false;
  /// Certify mode: clauses the checker validated for this item's
  /// certificate (0 when uncertified or rejected before analysis), and
  /// whether the certificate passed.
  std::int64_t certificate_clauses = 0;
  bool certificate_ok = false;
  /// Empty on pass; diagnostics otherwise (newlines preserved).
  std::string detail;
};

/// Journal/report line codec for one item result (single line, newlines
/// in `detail` escaped).  decode returns false on a malformed line.
[[nodiscard]] std::string encode_item_line(const FleetItemResult& result);
[[nodiscard]] bool decode_item_line(const std::string& line,
                                    FleetItemResult* result);

/// Counters over a set of item verdicts: one class row, or the report's
/// grand total.
struct FleetTally {
  std::int64_t total_items = 0;
  std::int64_t passed = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;
  std::int64_t starvations = 0;
  std::int64_t total_capacity = 0;
  std::int64_t firings = 0;
  Duration worst_lateness;
  /// Faulted mode: items whose injected margin was positive / whose
  /// breach the monitor named.
  std::int64_t faults_expected = 0;
  std::int64_t faults_named = 0;
  /// Certify mode: items whose certificate passed the checker, clauses
  /// validated in total, and items whose certificate was rejected.
  std::int64_t certified = 0;
  std::int64_t certificate_clauses = 0;
  std::int64_t certificate_failures = 0;
};

/// One model class's row, in SweepSpec::classes order.
struct FleetClassTally : FleetTally {
  /// "class <name>" — the row's label in the canonical text.
  std::string key;
};

/// Report of one run; the inherited FleetTally is the grand total.
struct FleetReport : FleetTally {
  /// Canonical one-line summary of the spec that produced this report.
  std::string spec_summary;
  std::vector<FleetClassTally> classes;
  /// Every item verdict, in item-index order.
  std::vector<FleetItemResult> items;
  // ---- wall-clock section: excluded from canonical_text() ----
  double elapsed_seconds = 0.0;
  double firings_per_second = 0.0;
  std::size_t threads_used = 1;
  /// Items merged from the journal instead of recomputed.
  std::size_t items_resumed = 0;
};

/// The deterministic serialization: spec summary, per-class tallies,
/// totals and (when `include_items`) every item line.  Bit-identical
/// across thread counts and across interrupt+resume.
[[nodiscard]] std::string canonical_text(const FleetReport& report,
                                         bool include_items = true);

/// Human summary for CLIs: canonical_text(report, include_items) plus
/// the wall-clock section.
[[nodiscard]] std::string summary_text(const FleetReport& report,
                                       bool include_items = false);

class FleetSweep {
 public:
  explicit FleetSweep(SweepSpec spec);

  /// The spec's expansion, in item-index order.
  [[nodiscard]] const std::vector<FleetItem>& items() const { return items_; }

  /// Canonical spec summary line (also FleetReport::spec_summary).
  [[nodiscard]] const std::string& spec_summary() const {
    return spec_summary_;
  }

  /// Fingerprint binding a journal to this spec: a hash of the spec
  /// summary, so classes, counts and knobs — but not the custom generator
  /// function itself.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Runs every item on sim::run_sweep and aggregates.  `threads` <= 1
  /// runs inline on the caller; larger values run on that many workers,
  /// the caller among them.  With a journal, already-recorded items are
  /// merged without recompute and new results are appended as they
  /// finish; a record whose class, seed, headroom or mode disagrees with
  /// items()[i] is a ModelError naming index i.
  [[nodiscard]] FleetReport run(std::size_t threads = 1,
                                io::FleetJournal* journal = nullptr) const;

  /// Runs one item's pipeline — the unit a sweep worker executes, public
  /// for per-item overhead benchmarking and tests.
  [[nodiscard]] FleetItemResult run_item(const FleetItem& item) const;

 private:
  SweepSpec spec_;
  std::vector<FleetItem> items_;
  std::string spec_summary_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace vrdf::sim
