// Plain-text serialization of VRDF chain models.
//
// A deliberately small line-oriented format so that models can be kept in
// version control, diffed, and loaded by the example binaries without an
// external parser dependency:
//
//   # comment
//   vrdf-chain v1
//   actor <name> rho=<rational seconds>
//   buffer <producer> -> <consumer> pi=<rateset> gamma=<rateset>
//          [capacity=<n>] [delta=<n>]
//   constraint <actor> period=<rational seconds>
//
// Rate sets are "{a,b,c}" or "[lo,hi]"; rationals are "p", "p/q" or simple
// decimals ("51.2").  capacity= is the buffer's *total* container count;
// delta= is the data edge's initial tokens (the back-edges of cyclic
// models), occupying delta of the capacity containers at t=0.  Several
// `constraint` lines declare a simultaneous constraint set (one line per
// constrained actor; repeating an actor is an error).  All integers and
// rationals are parsed through checked helpers: malformed or overflowing
// values produce a ModelError naming the line instead of aborting.  So do
// an empty rate-set item ("{1,2,}"), a repeated buffer attribute, a
// repeated actor name, a non-positive rho, a rate set with a negative or
// no positive quantum, and an actor name write_chain could not emit.
#pragma once

#include <string>
#include <vector>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::io {

struct ChainDocument {
  dataflow::VrdfGraph graph;
  /// Every declared constraint, in document order.
  analysis::ConstraintSet constraints;
};

/// Serializes a chain model (buffers only; bare edges are rejected), one
/// `constraint` line per entry of `constraints`.  Actor names that cannot
/// round-trip through the whitespace-tokenized format — empty, the "->"
/// token, or containing whitespace, '=' or '#' — are a ContractError at
/// write time, never a silently-wrong document.
[[nodiscard]] std::string write_chain(
    const dataflow::VrdfGraph& graph,
    const analysis::ConstraintSet& constraints);

/// Parses the format above; throws ModelError with a line number on
/// malformed input (unknown directives/attributes, bad or overflowing
/// numbers, duplicate actors, attributes or constraint actors).  Every
/// accepted document round-trips: write_chain of the result reparses to
/// the same bytes.
[[nodiscard]] ChainDocument read_chain(const std::string& text);

}  // namespace vrdf::io
