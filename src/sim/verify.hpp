// Simulation-based verification that computed buffer capacities satisfy
// the throughput constraint — the library's equivalent of the paper's
// "with our dataflow simulator we have verified that these buffer
// capacities are indeed sufficient" (Sec 5).
//
// Two-phase check:
//  1. Self-timed run.  By monotonicity (Def 1) self-timed execution is the
//     earliest possible schedule; from the constrained actor's start times
//     we take the smallest offset o with start_k <= o + k·τ for all k.
//  2. Enforced run.  The constrained actor is re-run strictly periodically
//     at offset o with *identical* quantum sequences (sources are
//     re-created by the configurer).  The capacities pass when not a
//     single activation starves.  This phase is the actual theorem check:
//     the periodic sink delays its token returns relative to phase 1, and
//     the capacities must absorb that back-pressure (the linearity
//     argument of Sec 4.2, "Consumer Schedule").
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "sim/monitor.hpp"
#include "sim/simulator.hpp"

namespace vrdf::sim {

/// Installs quantum sources (and anything else) on a fresh simulator.  The
/// callback is invoked once per phase and must install deterministic
/// sources so both phases see identical data-dependent behaviour.
using SimulatorConfigurer = std::function<void(Simulator&)>;

struct VerifyOptions {
  /// Firings of the constrained actor simulated per phase.
  std::int64_t observe_firings = 1000;
  /// Seed for set_default_sources (ports the configurer leaves open).
  std::uint64_t default_seed = 1;
  /// Attach a ConformanceMonitor to phase 2 and return its report in
  /// VerifyResult::monitor (ρ-contract violations, per-constraint
  /// lateness, blockage diagnosis).  Off by default: monitoring records
  /// every actor's firings, which costs memory on long runs.
  bool monitor = false;
};

struct VerifyResult {
  bool ok = false;
  std::string detail;
  /// Offset of the periodic schedule used in phase 2.
  TimePoint offset_used;
  /// Starvations seen in phase 2 (0 when ok).
  std::int64_t starvation_count = 0;
  /// Phase-1 maximum lateness of the constrained actor versus the periodic
  /// reference anchored at its first start.
  Duration max_lateness_phase1;
  /// Total firings simulated across both phases (including phase-2 offset
  /// retries) — the work metric aggregated by fleet sweeps.
  std::int64_t firings_simulated = 0;
  /// Phase-2 conformance report when VerifyOptions::monitor is set.
  std::optional<MonitorReport> monitor;
};

/// Runs the two-phase check.  `graph` must already carry the capacities
/// under test (e.g. via analysis::apply_capacities).  Phase 1 measures one
/// periodic offset per constrained actor from the same self-timed run —
/// the grids then keep phase 1's causally consistent relative alignment
/// (a pinned sink naturally lags a pinned source by the realized pipeline
/// latency), and every enforced activation is no earlier than its
/// self-timed start (sound by monotonicity).  Phase 2 enforces *every*
/// constrained actor strictly periodically at once and passes only when
/// not a single activation of any of them starves.  The stop target
/// counts firings of the first constraint's actor; VerifyResult reports
/// that actor's offset and the worst phase-1 lateness across the set.
[[nodiscard]] VerifyResult verify_throughput(
    const dataflow::VrdfGraph& graph,
    const analysis::ConstraintSet& constraints,
    const SimulatorConfigurer& configure = {}, const VerifyOptions& options = {});

}  // namespace vrdf::sim
