// The one sweep engine behind sim::FleetSweep (sim/fleet.hpp) and
// sim::FrontierSweep (sim/deployment_frontier.hpp).
//
// A sweep expands its spec into independent items, runs every item's
// pipeline, folds the verdicts into tally rows plus a grand total, and
// serializes the result canonically.  Everything but the item pipeline
// lives here, once: the dispatch loop and its wall clock (run_sweep), the
// one-line detail codec, the tally fold, and the canonical text layout.
// Each sweep keeps only its expansion, its run_item, the key of its tally
// row and its spec line.
//
// Determinism rules — a sweep's canonical text is bit-identical at any
// thread count (and, for the fleet, across interrupt + resume):
//  * every item derives its RNG stream statelessly,
//    util::derive_seed(base_seed, item index) — no item reads another
//    item's state, a worker-local counter, or a thread id;
//  * `work(i)` writes only item i's pre-allocated slot, and results fold
//    in item-index order after the dispatch returns;
//  * wall-clock metrics live beside the tallies in each report but are
//    excluded from canonical text.
// tools/lint_determinism.py rules R1–R3 apply to this file.
#pragma once

#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace vrdf::sim {

/// Runs `work(i)` for every i in [0, count) on min(threads, count)
/// workers: the caller and that many less one std::jthreads, each
/// claiming the next index from one shared counter (`threads` <= 1 starts
/// no thread).  The first failure stops further claims; once every worker
/// has joined, the exception of the lowest failing index is rethrown, the
/// same one at any thread count.  Otherwise returns the wall seconds the
/// dispatch took.
[[nodiscard]] double run_sweep(std::size_t count, std::size_t threads,
                               const std::function<void(std::size_t)>& work);

/// The item-line detail codec: backslash and newline are escaped, so a
/// detail of any shape stays on its one line.
[[nodiscard]] std::string escape_detail(const std::string& detail);
[[nodiscard]] std::string unescape_detail(const std::string& escaped);

/// Folds every result, in index order, into `totals` and into the first
/// row whose `key` equals `row_key(result.item)`, with the same `fold` —
/// so the grand total is by construction the fold of its rows.
template <typename Totals, typename Row, typename Result, typename Fold,
          typename RowKey>
void fold_tallies(Totals& totals, std::vector<Row>& rows,
                  const std::vector<Result>& results, Fold fold,
                  RowKey row_key) {
  for (const Result& result : results) {
    fold(totals, result);
    const std::string key = row_key(result.item);
    for (Row& row : rows) {
      if (row.key == key) {
        fold(row, result);
        break;
      }
    }
  }
}

/// The canonical layout every sweep report shares: `header`, the spec
/// line, one line per tally row (its key, then its fields), the total
/// line, and — when `include_items` — every item line in index order.
template <typename Report, typename Row, typename Fields, typename Encode>
[[nodiscard]] std::string canonical_report(const char* header,
                                           const Report& report,
                                           const std::vector<Row>& rows,
                                           Fields write_fields, Encode encode,
                                           bool include_items) {
  std::ostringstream os;
  os << header << "\nspec " << report.spec_summary << '\n';
  for (const Row& row : rows) {
    os << row.key << ' ';
    write_fields(os, row);
    os << '\n';
  }
  os << "total ";
  write_fields(os, report);
  os << '\n';
  if (include_items) {
    for (const auto& item : report.items) {
      os << encode(item) << '\n';
    }
  }
  return os.str();
}

}  // namespace vrdf::sim
