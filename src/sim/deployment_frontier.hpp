// Capacity-vs-allocation frontier sweep: N streams contending for two
// TDM cores, swept over stream counts and slot budgets.
//
// FrontierSweep is the second sweep on the shared engine in
// sim/sweep.hpp, which owns dispatch, the wall clock, the detail codec,
// the tally fold, the canonical layout and the determinism rules (the
// canonical text is bit-identical at any thread count).  This file keeps
// only the frontier's own pipeline.  A FrontierSpec expands slot budgets
// × stream counts × seed ordinals into items.  run_item builds N stream
// chains, binds their tasks round-robin across the processors at the
// cell's slot budget, derives κ through analysis/deployment, runs the
// capacity analysis with a checked platform-claused certificate, and —
// for admissible deployments — installs the computed capacities and
// verifies them with the two-phase harness (actors run at their
// arbiter-delayed response times; zero starvations expected).  Items
// that fail before analysis are classified: the TDM wheel was binding
// (rejected_wheel) or a throughput constraint was (rejected_analysis).
// Tally rows are keyed by (streams, slot) cell, and the cells ARE the
// frontier: how much total buffer capacity each allocation point costs,
// and where the feasible region ends on either side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace vrdf::sim {

/// One independent deployment item, fully determined by the spec and its
/// index.
struct FrontierItem {
  /// Position in the spec's expansion order.
  std::size_t index = 0;
  /// Number of stream chains deployed.
  std::int64_t streams = 1;
  /// The cell's slot budget, in sixteenths of the wheel period.
  std::int64_t slot_sixteenths = 4;
  /// 1-based ordinal within the (streams, slot) cell.
  std::uint64_t seed_ordinal = 1;
  /// util::derive_seed(base_seed, index) — the item's RNG stream.
  std::uint64_t rng_seed = 0;
};

/// How one deployment item resolved.
enum class FrontierOutcome {
  /// Analysis admissible; capacities computed, certified and verified.
  Admitted,
  /// The TDM wheel could not hold the cell's slot budget for every bound
  /// task — the *platform* was binding.
  RejectedWheel,
  /// The capacity analysis rejected — a throughput constraint was
  /// binding (derived κ exceeds the pacing budget).
  RejectedAnalysis,
};

[[nodiscard]] const char* frontier_outcome_name(FrontierOutcome outcome);

struct FrontierSpec {
  /// Tasks per stream chain.
  std::int64_t tasks_per_stream = 3;
  /// Stream counts swept (cells, major axis).
  std::vector<std::int64_t> stream_counts{1, 2, 3};
  /// Slot budgets swept, in sixteenths of the wheel (cells, minor axis).
  /// The default range straddles the feasible region: 1/16 slots starve
  /// the derived κ past the stream period (analysis-bound), 6/16 and up
  /// oversubscribe the wheel at higher stream counts (wheel-bound).
  std::vector<std::int64_t> slot_sixteenths{1, 2, 4, 6, 8};
  /// Randomized WCET draws per cell.
  std::int64_t seeds_per_cell = 4;
  std::uint64_t base_seed = 1;
  /// TDM wheel period of every processor.
  Duration wheel = milliseconds(Rational(1));
  /// Firings of the leading constrained actor simulated per phase.
  std::int64_t observe_firings = 200;
};

/// Deterministic verdict of one item; every field participates in the
/// canonical serialization.
struct FrontierItemResult {
  FrontierItem item;
  FrontierOutcome outcome = FrontierOutcome::RejectedAnalysis;
  /// Admitted + two-phase check passed.
  bool verified = false;
  std::int64_t starvation_count = 0;
  /// Σζ of the admissible analysis; 0 on rejection.
  std::int64_t total_capacity = 0;
  /// Firings simulated across both verify phases.
  std::int64_t firings = 0;
  /// Certify mode: clauses validated / verdict for this item.
  std::int64_t certificate_clauses = 0;
  bool certificate_ok = false;
  /// Empty for verified admissions; diagnostics otherwise.
  std::string detail;
};

/// Counters over a set of item verdicts: one cell row, or the report's
/// grand total.
struct FrontierTally {
  std::int64_t total_items = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_wheel = 0;
  std::int64_t rejected_analysis = 0;
  std::int64_t verified = 0;
  std::int64_t starvations = 0;
  /// Σ total_capacity over the admitted items — at a cell, the
  /// frontier's capacity cost at that allocation point.
  std::int64_t total_capacity = 0;
  std::int64_t firings = 0;
  std::int64_t certified = 0;
  std::int64_t certificate_clauses = 0;
  std::int64_t certificate_failures = 0;
};

/// One (streams, slot) allocation point of the frontier.
struct FrontierCellTally : FrontierTally {
  /// "cell streams=<n> slot=<s>" — the row's label in the canonical text.
  std::string key;
};

/// Report of one run; the inherited FrontierTally is the grand total.
struct FrontierReport : FrontierTally {
  /// Canonical one-line summary of the spec that produced this report.
  std::string spec_summary;
  /// Cells in spec order: stream-count major, slot minor.
  std::vector<FrontierCellTally> cells;
  /// Every item verdict, in item-index order.
  std::vector<FrontierItemResult> items;
  // ---- wall-clock section: excluded from canonical_text() ----
  double elapsed_seconds = 0.0;
  std::size_t threads_used = 1;
};

/// One-line codec for an item result (newlines in `detail` escaped).
[[nodiscard]] std::string encode_frontier_line(
    const FrontierItemResult& result);

/// The deterministic serialization: spec summary, per-cell tallies,
/// totals and (when `include_items`) every item line.  Bit-identical
/// across thread counts.
[[nodiscard]] std::string canonical_text(const FrontierReport& report,
                                         bool include_items = true);

class FrontierSweep {
 public:
  explicit FrontierSweep(FrontierSpec spec);

  [[nodiscard]] const std::vector<FrontierItem>& items() const {
    return items_;
  }
  [[nodiscard]] const std::string& spec_summary() const {
    return spec_summary_;
  }

  /// Runs every item on sim::run_sweep and aggregates.  `threads` <= 1
  /// runs inline on the caller; larger values run on that many workers,
  /// the caller among them.  The canonical report bytes are identical
  /// either way.
  [[nodiscard]] FrontierReport run(std::size_t threads = 1) const;

  /// Runs one item's pipeline — public for tests and benchmarks.
  [[nodiscard]] FrontierItemResult run_item(const FrontierItem& item) const;

 private:
  FrontierSpec spec_;
  std::vector<FrontierItem> items_;
  std::string spec_summary_;
};

}  // namespace vrdf::sim
