// Quantum sources — where the "data dependence" of data-dependent
// inter-task communication comes from.
//
// In the task model the amount of data a task moves per execution depends
// on the processed stream (e.g. the byte count of a variable-bit-rate MP3
// frame).  The analysis only knows the *set* of possible quanta; a
// simulation run needs a concrete sequence.  A QuantumSource produces that
// sequence: one value per firing index, deterministically (sources are
// cloneable so that a verification re-run sees the identical stream).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/rate_set.hpp"

namespace vrdf::sim {

class QuantumSource {
public:
  virtual ~QuantumSource() = default;

  /// Quantum for the given 0-based firing index.  Called exactly once per
  /// index, in increasing order.
  [[nodiscard]] virtual std::int64_t next(std::int64_t firing_index) = 0;

  /// A fresh source that will reproduce the same sequence from index 0.
  [[nodiscard]] virtual std::unique_ptr<QuantumSource> clone() const = 0;

  /// Human-readable description for diagnostics.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Always `value`.
[[nodiscard]] std::unique_ptr<QuantumSource> constant_source(std::int64_t value);

/// Plays `prefix` once, then repeats `tail_value` forever.
[[nodiscard]] std::unique_ptr<QuantumSource> scripted_source(
    std::vector<std::int64_t> prefix, std::int64_t tail_value);

/// Uniformly random element of `set` (mt19937_64 with `seed`).
[[nodiscard]] std::unique_ptr<QuantumSource> uniform_random_source(
    dataflow::RateSet set, std::uint64_t seed);

/// Random walk over the set's sorted elements: moves at most `max_step`
/// positions per firing — models smoothly varying bit-rates.
[[nodiscard]] std::unique_ptr<QuantumSource> random_walk_source(
    dataflow::RateSet set, std::uint64_t seed, std::size_t max_step = 1);

/// Alternates min, max, min, max, ... — maximal per-firing variation.
[[nodiscard]] std::unique_ptr<QuantumSource> min_max_alternating_source(
    const dataflow::RateSet& set);

}  // namespace vrdf::sim
