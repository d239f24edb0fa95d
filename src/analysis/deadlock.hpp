// Minimal deadlock-free buffer capacities (no throughput requirement).
//
// The introduction's Fig 1 discussion is about deadlock-freedom: with
// ξ = {3} the minimum capacity is 3 when λ ≡ 3 but 4 when λ ≡ 2.  For a
// single producer-consumer pair with *constant* quanta p and c the
// classical minimum capacity for unbounded progress is
//     p + c − gcd(p, c),
// (Sriram & Bhattacharyya): the producer must fit one production while
// the consumer may be holding back up to c − gcd tokens it cannot yet
// use.  With data-dependent quanta every value combination can persist
// indefinitely, so the sufficient-and-necessary capacity is the maximum
// of the formula over all positive quantum pairs; zero quanta never block
// (a zero-consumption firing is always enabled on that edge, a
// zero-production firing needs no space).
//
// For *data-dependent* quanta the worst case is NOT a constant sequence:
// with ξ = {3}, λ = {2,3} and capacity 4 the mixed sequence 2,3,2 parks
// the buffer at (data 2, space 2) where a pending quantum 3 on each side
// deadlocks — even though both constant sequences survive at 4.  The
// sound generalization is
//     π̂ + γ̂ − g,   g = gcd of every positive quantum of both sets:
// every transfer is a multiple of g, so the data level is always a
// multiple of g; if data < γ_next ≤ γ̂ then data ≤ γ̂ − g and
// space = d − data ≥ π̂, so the producer can always advance.  (For
// singleton sets this degenerates to the classical formula.)
//
// This capacity guarantees progress only — satisfying a throughput
// constraint generally needs more (see compute_buffer_capacities).  On
// Fig 1 the throughput minimum is 6 versus the deadlock-free
// constant-sequence minima 3 and 4; the tests
// ExactMinimal.Fig1ThroughputMinimumIsDoubleBufferForMaxQuantum and
// Simulator.Fig1MinimalCapacities pin both.
#pragma once

#include <cstdint>

#include "dataflow/rate_set.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

/// π̂ + γ̂ − gcd(all positive quanta of both sets): the smallest capacity
/// that is deadlock-free for *every* admissible quantum sequence (sound by
/// the argument above; matched by adversarial simulation search in the
/// tests).  On singleton sets {p} and {c} it is p + c − gcd(p, c), the
/// per-sequence minima of the Fig 1 discussion (3 for n ≡ 3, 4 for n ≡ 2).
[[nodiscard]] std::int64_t min_deadlock_free_pair_capacity(
    const dataflow::RateSet& production, const dataflow::RateSet& consumption);

/// The per-buffer minima for a whole graph (acyclic or cyclic with
/// tokened back-edges), ordered like GraphAnalysis::pairs
/// (producer-topological order; chain order on chains).  On a DAG the
/// per-pair formula is the whole story — deadlock is a pair-local
/// phenomenon there.  With cycles, deadlock becomes reachable through the
/// loop itself: a back-edge's capacity must hold its δ circulating tokens
/// *in addition to* the pair slack (a capacity that pinches the loop's
/// tokens strangles the cycle), so feedback buffers report
/// δ + π̂ + γ̂ − g.  Whether δ itself is large enough for the cycle to
/// complete an iteration is a model property this function cannot repair;
/// validate_cyclic_model rejects the always-dead case δ = 0 and the
/// simulation harness detects insufficient δ as a phase-1 deadlock.
/// Throws ModelError when the graph is not a consistent network of
/// buffers (token-free cycles included).
[[nodiscard]] std::vector<std::int64_t> min_deadlock_free_capacities(
    const dataflow::VrdfGraph& graph);

}  // namespace vrdf::analysis
