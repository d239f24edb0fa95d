// Runtime conformance monitoring — the observability counterpart of the
// fault-injection layer (sim/fault_injection.hpp).
//
// The analysis promises "zero starvations forever" under two assumptions
// it cannot enforce at run time: every actor respects its declared
// worst-case response time ρ(v), and the installed capacities are the
// analysed ones.  The ConformanceMonitor checks the first assumption and
// names the consequences when it fails:
//
//  * ρ-contract violations — a firing whose observed duration exceeded
//    the declared ρ(v), recorded as a named event (actor, firing index,
//    declared vs observed);
//  * per-constraint lateness — each constrained actor's starts measured
//    against its periodic grid (starvation-based when the actor runs
//    strictly periodically, i.e. the phase-2 grid of sim/verify.cpp;
//    anchored at the first start for self-timed runs);
//  * a stall watchdog — when a run deadlocks, diagnose_blockage walks the
//    wait-for relation of RunResult::blocked and reports the blocked
//    cycle (which actor waits on which buffer, space vs tokens) instead
//    of a bare deadlock flag.
//
// Nothing here runs on the engine's firing hot path — the monitor reads
// the simulator's firing records after (segments of) a run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "sim/simulator.hpp"

namespace vrdf::sim {

/// One firing that exceeded its actor's declared worst-case response time.
struct RhoViolation {
  dataflow::ActorId actor;
  std::int64_t firing = 0;  // 0-based firing index
  Duration declared;        // ρ(v) from the graph
  Duration observed;        // finish − start of the recorded firing
};

/// Lateness of one constrained actor versus its periodic grid.
struct ConstraintConformance {
  dataflow::ActorId actor;
  Duration period;
  /// Firings observed (recorded) so far.
  std::int64_t firings_observed = 0;
  /// Activations that missed their grid slot (starvations for strictly
  /// periodic actors; positive-lateness starts otherwise).
  std::int64_t late_firings = 0;
  /// Worst start lateness versus the grid (zero when none was late).
  Duration max_lateness;
  /// First late firing index, if any.
  std::optional<std::int64_t> first_late_firing;
};

/// The watchdog's diagnosis of a deadlocked run.
struct BlockageReport {
  bool blocked = false;
  /// The raw wait-for relation (RunResult::blocked).
  std::vector<BlockedWait> waits;
  /// A wait-for cycle among the blocked actors (each waits for tokens
  /// whose producer is the next), when one exists.
  std::vector<dataflow::ActorId> cycle;
  /// Human-readable summary naming actors and buffers.
  std::string message;
};

/// Walks the wait-for relation of a deadlocked run: actor a waits for
/// actor b when a's missing tokens arrive on an edge produced by b.  At a
/// true deadlock every chain of waits closes into a cycle; the report
/// names it (and each actor's missing buffer, space vs data).  Also the
/// backend of the verify_throughput early-stop messages.
[[nodiscard]] BlockageReport diagnose_blockage(
    const dataflow::VrdfGraph& graph, const std::vector<BlockedWait>& blocked);

/// Flat, copyable summary of everything a monitor observed; returned by
/// ConformanceMonitor::report and embedded in VerifyResult.
struct MonitorReport {
  /// No firing exceeded its declared ρ.
  bool rho_conformant = true;
  /// Total ρ-contract violations (may exceed events.size()).
  std::int64_t rho_violation_total = 0;
  std::vector<RhoViolation> rho_violations;
  std::vector<ConstraintConformance> constraints;
  BlockageReport blockage;
  /// One-line verdict naming the violated constraint and the offending
  /// actor(s), or "conformant".
  std::string summary;
};

/// Online conformance monitor for one simulator lifetime.  Usage:
///
///   ConformanceMonitor monitor(graph, constraints);
///   Simulator sim(graph);
///   ...configure...
///   monitor.attach(sim);            // before the first run
///   const RunResult run = sim.run(stop);
///   monitor.observe(sim, run);      // repeatable per run() segment
///   if (!monitor.report().rho_conformant) ...
///
/// observe() is incremental (per-actor cursors), so interleaving run
/// segments and observations tracks a long-lived simulation online.
class ConformanceMonitor {
public:
  ConformanceMonitor(const dataflow::VrdfGraph& graph,
                     analysis::ConstraintSet constraints);

  /// Enables firing records on every actor of the simulator (capped at
  /// 2^18 records per actor).  Call before the first run.
  void attach(Simulator& sim) const;

  /// Ingests all firing records new since the previous observe() call,
  /// plus the run's starvations and (on deadlock) its blocked waits.
  void observe(const Simulator& sim, const RunResult& run);

  [[nodiscard]] const MonitorReport& report() const { return report_; }

private:
  void observe_rho(const Simulator& sim);
  void observe_constraints(const Simulator& sim, const RunResult& run);
  void refresh_summary();

  const dataflow::VrdfGraph* graph_;
  analysis::ConstraintSet constraints_;
  MonitorReport report_;
  /// Per actor id: firing records already ingested.
  std::vector<std::size_t> rho_cursor_;
  /// Per constraint index: firing records already graded, grid anchor.
  std::vector<std::size_t> grid_cursor_;
  std::vector<std::optional<TimePoint>> grid_anchor_;
  /// Per constraint index: starvations already counted.
  std::vector<std::size_t> starvation_cursor_;
};

}  // namespace vrdf::sim
