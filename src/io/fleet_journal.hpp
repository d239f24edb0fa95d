// Resumable shard state for fleet sweeps: a compact done-marker journal.
//
// One line per completed work item (the same codec as the fleet report's
// item lines), appended and flushed as items finish, so an interrupted
// 10k-model sweep restarts where it left off: FleetSweep::run merges the
// journaled results back in and recomputes only the missing items — the
// resumed report is byte-identical to an uninterrupted run.
//
// Format (text, diffable):
//   vrdf-fleet-journal v1
//   spec fingerprint=<hex> items=<n>
//   item <index> class=... seed=... ... detail=...
//
// The fingerprint binds the journal to the sweep spec that wrote it
// (FleetSweep::fingerprint); opening a journal recorded for a different
// spec is refused — silently mixing results of two different sweeps is
// exactly the corruption a done-marker file invites.  A torn trailing
// line (interrupt mid-write) is dropped on load; its item simply reruns.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/fleet.hpp"

namespace vrdf::io {

class FleetJournal {
 public:
  /// Opens `path`: absent/empty files are initialized with a fresh
  /// header; existing files are loaded and validated against
  /// (fingerprint, items).  Throws ModelError on a foreign or corrupt
  /// header, and on an unwritable path.
  FleetJournal(std::string path, std::uint64_t fingerprint,
               std::size_t items);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Number of items already recorded (after load: completed before the
  /// interrupt; during a run: monotonically growing).
  [[nodiscard]] std::size_t completed() const;

  /// Copies the recorded result for `index` into `*result`; false when
  /// the item has not been recorded.  Only results loaded at open time
  /// are visible, and record() never touches them, so sweep workers may
  /// look up concurrently with in-run records.  The line carries no RNG
  /// stream: `result->item.rng_seed` is 0, and FleetSweep::run restores
  /// the item from its own expansion.
  [[nodiscard]] bool lookup(std::size_t index,
                            sim::FleetItemResult* result) const;

  /// Appends one finished item and flushes.  Thread-safe: sweep workers
  /// call this concurrently.  Recording an out-of-range index is a
  /// contract error; re-recording an index is idempotent (first write
  /// wins on the next load).
  void record(const sim::FleetItemResult& result);

 private:
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::optional<sim::FleetItemResult>> loaded_;
  std::size_t loaded_count_ = 0;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::size_t appended_ = 0;
};

}  // namespace vrdf::io
