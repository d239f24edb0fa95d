// Independent certificate checker — the validation half of the
// translation-validation pair (see analysis/certificate.hpp).
//
// Independence rules (enforced by tools/lint_determinism.py and the
// mutation suite in tests/test_certificate.cpp):
//  * checker.cpp shares NO code with the analyzer: it must not include
//    analysis/pacing.hpp, analysis/buffer_sizing.hpp,
//    analysis/sizing_core.hpp, analysis/incremental.hpp or
//    analysis/period.hpp.  It re-implements its own topological-order
//    verification, anchor reachability, undirected-bridge finding and
//    constraint-coupling scan from the graph structure alone.
//  * Exact Rational arithmetic only — no floating point anywhere.
//  * Every clause is a local (in)equality over the certificate's
//    witnesses, so the whole check is O(E) graph work plus O(C·E) for
//    the per-constraint coverage cones — no fixed-point iteration.
//
// On failure the checker names the violated clause kind, the subject
// (edge or actor), and the two sides of the (in)equality, so a bad
// certificate is a diagnosis, not a boolean.  That text is rendered only
// on failure: a passing clause is counted and formats nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

/// The six clause families of a certificate.
enum class ClauseKind {
  /// Pacing witnesses: φ > 0, ρ ≤ φ, φ(constrained) = τ, the per-edge
  /// demand equalities, zero-quantum guards and back-edge flow balance.
  Phi,
  /// Schedule-alignment leads: the anchor zeros and the per-actor
  /// longest-path fixed-point equations over the recorded ω witnesses.
  Omega,
  /// Per-pair capacity terms: Δ producer/consumer, raw token count,
  /// tight-rounding adjacency, the rounded capacity and the total.
  Zeta,
  /// Back-edge cycle bounds: the max-cycle-ratio δ requirement and the
  /// skeleton pairs' zero requirement.
  Delta,
  /// Structure and coverage facts: actor/pair bijections, topological
  /// order, anchor kinds, per-edge pacing sides, variable-rate
  /// placement, constraint coupling and parameter binding.
  Coverage,
  /// Platform clause of deployed analyses: each recorded κ re-derived
  /// from its arbiter terms (slot, wheel, WCET, ceil term) in
  /// exact Rationals, and linked to the ρ the capacity clauses ran with.
  Kappa,
};

[[nodiscard]] const char* clause_kind_name(ClauseKind kind);

/// One failed clause: which family, at which edge or actor, and the two
/// sides of the (in)equality that did not hold.
struct ClauseViolation {
  ClauseKind kind = ClauseKind::Coverage;
  /// "buffer 'a -> b'" or "actor 'x'" (or "certificate" for global facts).
  std::string subject;
  /// Exact rendered values of the two sides (empty for structural facts).
  std::string lhs;
  std::string rhs;
  /// Full sentence naming the violated clause.
  std::string message;
};

/// One-line rendering: kind, subject, message and both sides.
[[nodiscard]] std::string describe(const ClauseViolation& violation);

struct CheckerOptions {
  /// Additionally verify that the certificate's recorded ρ/δ parameters
  /// equal the graph's own values.  True for certificates of plain
  /// analyses; the incremental engine disables it because its parameters
  /// live in a ParameterOverlay, not in the graph.
  bool bind_parameters_to_graph = true;
};

struct CertificateCheck {
  bool ok = false;
  /// Individual facts verified (for coverage accounting in reports).
  std::uint64_t clauses_checked = 0;
  /// Every violated clause, in check order (empty when ok).
  std::vector<ClauseViolation> violations;

  /// describe() of the first violation, empty when ok.
  [[nodiscard]] std::string first_violation() const;
};

/// Re-validates every clause of `cert` against `graph` in exact Rational
/// arithmetic.  Never throws on a bad certificate — malformed structure
/// is reported as Coverage violations.
[[nodiscard]] CertificateCheck check_certificate(
    const dataflow::VrdfGraph& graph, const Certificate& cert,
    const CheckerOptions& options = {});

}  // namespace vrdf::analysis
