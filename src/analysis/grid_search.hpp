// The threshold search behind the robustness margins: the largest grid
// point at which a monotone predicate still holds, aimed by a prediction
// instead of starting from the top of the grid.
#pragma once

#include <algorithm>
#include <cstdint>

namespace vrdf::analysis::detail {

/// Largest k in [0, grid] with holds(k), for a predicate that holds at 0
/// (never probed) and, once false, stays false.  `hint` predicts that k;
/// `refine(k)`, called right after a probe of k failed, re-predicts it
/// from that probe.  Predictions outside the open bracket are clamped
/// into it, so any hint and any refine return the same k; only the probe
/// count depends on them.
///
/// The search probes the hint, and the point after it if the hint held.
/// If both held, it probes the top.  After a failed probe it probes
/// refine's prediction (and the point after it, if that held) and
/// bisects what is left.  An exact hint costs at most two probes, and
/// one when it sits at the top (holds) or at 1 with the threshold at 0.
template <typename Holds, typename Refine>
[[nodiscard]] std::int64_t largest_holding_point(std::int64_t grid,
                                                 std::int64_t hint,
                                                 Holds&& holds,
                                                 Refine&& refine) {
  std::int64_t lo = 0;         // holds
  std::int64_t hi = grid + 1;  // fails (grid + 1: past the grid)
  const auto probe = [&](std::int64_t k) {
    const bool held = holds(k);
    (held ? lo : hi) = k;
    return held;
  };
  // Probes `guess`, clamped into (lo, hi), and the point after it if it
  // held and the bracket is still open.
  const auto aim = [&](std::int64_t guess) {
    const std::int64_t k = std::clamp(guess, lo + 1, hi - 1);
    if (probe(k) && k + 1 < hi) {
      probe(k + 1);
    }
  };

  aim(hint);
  if (hi > grid && lo < grid) {
    probe(grid);
  }
  // Open here only when the last probe failed, at hi.
  if (hi - lo > 1) {
    aim(refine(hi));
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    probe(mid);
  }
  return lo;
}

}  // namespace vrdf::analysis::detail
