// "Traditional analysis techniques [10]" — the paper's comparison baseline
// (Sriram & Bhattacharyya, Embedded Multiprocessors: Scheduling and
// Synchronization).
//
// These techniques assume data-independent (constant) rates.  For a
// rate-matched producer-consumer pair with production quantum p and
// consumption quantum c the classical sufficient buffer capacity is
//     2·(p + c − gcd(p, c)),
// one (p + c − gcd) window for the producer's in-flight data and one for
// the consumer's working set.  This formula reproduces the paper's
// published baseline numbers for the MP3 application exactly:
// 2·(2048+960−64) = 5888, 2·(1152+480−96) = 3072, 2·(441+1−1) = 882.
//
// To apply it to a variable-rate graph the variability must be fixed to a
// single value first; the paper fixes the MP3 decoder's consumption to its
// maximum (n = 960) and notes the result is only a *lower bound* for the
// data-dependent problem — all-maximum quanta is not the worst case
// (Fig 1's point).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::baseline {

/// 2·(p + c − gcd(p, c)).
[[nodiscard]] std::int64_t sriram_pair_capacity(std::int64_t production,
                                                std::int64_t consumption);

struct TraditionalPair {
  dataflow::ActorId producer;
  dataflow::ActorId consumer;
  dataflow::BufferEdges buffer;
  std::int64_t production = 0;   // fixed-rate value used (max of the set)
  std::int64_t consumption = 0;  // fixed-rate value used (max of the set)
  std::int64_t capacity = 0;
};

struct TraditionalResult {
  bool ok = false;
  std::vector<std::string> diagnostics;
  std::vector<TraditionalPair> pairs;
  std::int64_t total_capacity = 0;
};

/// Applies the classical bound per buffer of a graph (chain, fork-join,
/// or cyclic with tokened back-edges), fixing every rate set to its
/// maximum (the paper's lower-bound construction for the MP3 case
/// study).  Pairs are ordered like GraphAnalysis::pairs (chain order on
/// chains).  The bound is per-buffer and throughput-constraint-free, so
/// it applies unchanged as the comparison baseline for graphs sized
/// under a multi-constraint set — it has no notion of the per-pair
/// rate-determining side and simply under-approximates every buffer.
[[nodiscard]] TraditionalResult traditional_capacities(
    const dataflow::VrdfGraph& graph);

}  // namespace vrdf::baseline
