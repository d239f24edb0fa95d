// Host-speed reference for the end-to-end timings.
//
// The benchmark shares its host with other tenants, and their load changes
// how fast the same code runs by tens of percent from one minute to the
// next — CPU time moves with wall time, so the slowdown is in execution
// (shared cores, caches and memory), not in scheduling.  To keep runs of
// the same code comparable, a fixed kernel that never calls the library is
// timed between requests.  It does the kind of work the sizing path does:
// formats and parses a model-like text, files records in an ordered map,
// sums exact rationals in __int128 with gcd reduction and walks a graph.
// Each end-to-end timing is scaled by kReferenceNominalUs over the kernel's
// median time in the same stretch of the run, so it reads as on a host
// where the kernel takes kReferenceNominalUs.  A change to the library
// moves the workload and not the kernel; a change in host speed moves both.
#pragma once

namespace bench {

/// The kernel time (µs) the scaled figures are expressed against.
inline constexpr double kReferenceNominalUs = 250.0;

/// Runs the kernel three times back to back and returns the fastest time
/// in µs, so an interrupt that lands in one run does not count.
[[nodiscard]] double reference_us();

/// Median of nine reference_us() samples: the speed of the host right now,
/// for set-up timings.
[[nodiscard]] double reference_burst_us();

}  // namespace bench
