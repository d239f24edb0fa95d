// The paper's running example (Fig 1 / Fig 2): task wa produces 3 data
// items per execution, task wb consumes either 2 or 3 per execution.
//
// The introduction's observation: with n ≡ 3 the minimum deadlock-free
// capacity is 3, but with n ≡ 2 it is 4 — so sizing for the maximum
// consumption quantum is *not* sufficient for other quanta, which is the
// whole motivation for the VRDF analysis.
#pragma once

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::models {

struct Fig1Vrdf {
  dataflow::VrdfGraph graph;
  dataflow::ActorId va;
  dataflow::ActorId vb;
  dataflow::BufferEdges buffer;
  analysis::ThroughputConstraint constraint;  // vb strictly periodic
};

/// The VRDF graph of Fig 2 (m = {3}, n = {2,3}) with a throughput
/// constraint of period `tau` on the consumer vb.  Response times default
/// to the maximal admissible values (ρ(vb) = τ, ρ(va) = φ(va) = 2τ/3·...)
/// unless given explicitly.
[[nodiscard]] Fig1Vrdf make_fig1_vrdf(Duration tau, Duration rho_a, Duration rho_b);

}  // namespace vrdf::models
