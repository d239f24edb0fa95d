// The shared sweep engine (sim/sweep.hpp): its runner and detail codec,
// and golden canonical bytes for both sweeps built on it.
//
// The golden texts below were produced by the fleet and frontier sweeps
// before they shared an engine.  They pin the canonical report bytes and
// the journal fingerprints across refactors: the thread-count and resume
// tests in test_fleet.cpp compare a sweep only against itself, so a change
// that moved every run's bytes in lockstep would pass them.  A legitimate
// change to the canonical format must update these texts deliberately,
// and note that journals written before it no longer resume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/synthetic.hpp"
#include "sim/deployment_frontier.hpp"
#include "sim/fleet.hpp"
#include "sim/sweep.hpp"

namespace vrdf {
namespace {

// ------------------------------------------------------------- runner

TEST(SweepRunner, RunsEveryIndexExactlyOnceAtAnyThreadCount) {
  // 64 threads exceed the 50 items: the surplus never starts.
  for (const std::size_t threads : {0u, 1u, 3u, 64u}) {
    std::vector<std::atomic<int>> runs(50);
    const double elapsed = sim::run_sweep(
        runs.size(), threads, [&](std::size_t i) { runs[i].fetch_add(1); });
    EXPECT_GE(elapsed, 0.0);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(SweepRunner, NeverCallsWorkForAnEmptyRange) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    std::atomic<int> calls{0};
    const double elapsed =
        sim::run_sweep(0, threads, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_GE(elapsed, 0.0);
    EXPECT_EQ(calls.load(), 0) << "threads " << threads;
  }
}

TEST(SweepRunner, RethrowsTheLowestFailingIndexAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 4u}) {
    try {
      (void)sim::run_sweep(20, threads, [](std::size_t i) {
        if (i == 7) {
          // Fails after 13 has, on a parallel run: the lower index wins.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (i == 7 || i == 13) {
          throw std::runtime_error("item " + std::to_string(i));
        }
      });
      FAIL() << "a throwing item must fail the sweep";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "item 7") << "threads " << threads;
    }
  }
}

TEST(SweepRunner, TheFirstFailureStopsFurtherClaims) {
  std::vector<std::atomic<int>> runs(20);
  EXPECT_THROW((void)sim::run_sweep(runs.size(), 1,
                                    [&](std::size_t i) {
                                      runs[i].fetch_add(1);
                                      if (i == 7) {
                                        throw std::runtime_error("item 7");
                                      }
                                    }),
               std::runtime_error);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), i <= 7 ? 1 : 0) << "index " << i;
  }
}

TEST(SweepCodec, DetailEscapingRoundTripsAndStaysOnOneLine) {
  const std::string detail = "phase 2 starved;\n'p' waits\\ for\n\n3";
  const std::string escaped = sim::escape_detail(detail);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(sim::unescape_detail(escaped), detail);
  EXPECT_EQ(sim::escape_detail("a\\b\nc"), "a\\\\b\\nc");
}

// ------------------------------------------------------- golden bytes

sim::SweepSpec golden_fleet_spec() {
  sim::SweepSpec spec;  // all five classes
  spec.seeds_per_class = 2;
  spec.headroom_levels = {0, 2};
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.observe_firings = 60;
  spec.base_seed = 11;
  spec.certify = true;
  return spec;
}

sim::SweepSpec golden_faulted_spec() {
  sim::SweepSpec spec;
  spec.classes = {models::ModelClass::Chain, models::ModelClass::Cyclic,
                  models::ModelClass::MultiConstraint};
  spec.seeds_per_class = 2;
  spec.observe_firings = 60;
  spec.base_seed = 5;
  spec.faulted = true;
  return spec;
}

sim::FrontierSpec golden_frontier_spec() {
  sim::FrontierSpec spec;
  spec.stream_counts = {1, 2};
  spec.slot_sixteenths = {1, 2, 4, 6};
  spec.seeds_per_cell = 2;
  spec.observe_firings = 60;
  return spec;
}

const char* const kGoldenFleet = R"golden(vrdf-fleet-report v1
spec classes=chain,fork_join,cyclic,multi_constraint,interior_pinned modes=sink,source headrooms=0,2 seeds_per_class=2 base_seed=11 response_fraction=1/2 variable=50 zero=20 observe=60 faulted=0 certify=1 generator=default items=32
class chain items=8 passed=8 failed=0 rejected=0 starvations=0 capacity=558 firings=12176 worst_lateness=0 faults_expected=0 faults_named=0 certified=8 cert_clauses=778 cert_failures=0
class fork_join items=8 passed=8 failed=0 rejected=0 starvations=0 capacity=1034 firings=11524 worst_lateness=1/1500 faults_expected=0 faults_named=0 certified=8 cert_clauses=1794 cert_failures=0
class cyclic items=8 passed=8 failed=0 rejected=0 starvations=0 capacity=1348 firings=7108 worst_lateness=0 faults_expected=0 faults_named=0 certified=8 cert_clauses=1818 cert_failures=0
class multi_constraint items=4 passed=4 failed=0 rejected=0 starvations=0 capacity=354 firings=3361 worst_lateness=0 faults_expected=0 faults_named=0 certified=4 cert_clauses=652 cert_failures=0
class interior_pinned items=4 passed=4 failed=0 rejected=0 starvations=0 capacity=264 firings=2156 worst_lateness=0 faults_expected=0 faults_named=0 certified=4 cert_clauses=490 cert_failures=0
total items=32 passed=32 failed=0 rejected=0 starvations=0 capacity=3558 firings=36325 worst_lateness=1/1500 faults_expected=0 faults_named=0 certified=32 cert_clauses=5532 cert_failures=0
item 0 class=chain seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=61 firings=3820 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 1 class=chain seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=65 firings=2406 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 2 class=chain seed=1 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=78 firings=590 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 3 class=chain seed=2 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=80 firings=4262 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 4 class=chain seed=1 headroom=0 mode=source pass=1 rejected=0 starvations=0 capacity=54 firings=202 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 5 class=chain seed=2 headroom=0 mode=source pass=1 rejected=0 starvations=0 capacity=92 firings=280 lateness=0 fault_expected=0 fault_named=0 cert_clauses=99 cert_ok=1 detail=
item 6 class=chain seed=1 headroom=2 mode=source pass=1 rejected=0 starvations=0 capacity=73 firings=320 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 7 class=chain seed=2 headroom=2 mode=source pass=1 rejected=0 starvations=0 capacity=55 firings=296 lateness=0 fault_expected=0 fault_named=0 cert_clauses=97 cert_ok=1 detail=
item 8 class=fork_join seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=111 firings=1019 lateness=1/1500 fault_expected=0 fault_named=0 cert_clauses=215 cert_ok=1 detail=
item 9 class=fork_join seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=107 firings=1445 lateness=0 fault_expected=0 fault_named=0 cert_clauses=231 cert_ok=1 detail=
item 10 class=fork_join seed=1 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=160 firings=784 lateness=0 fault_expected=0 fault_named=0 cert_clauses=206 cert_ok=1 detail=
item 11 class=fork_join seed=2 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=108 firings=1971 lateness=0 fault_expected=0 fault_named=0 cert_clauses=188 cert_ok=1 detail=
item 12 class=fork_join seed=1 headroom=0 mode=source pass=1 rejected=0 starvations=0 capacity=180 firings=1886 lateness=0 fault_expected=0 fault_named=0 cert_clauses=256 cert_ok=1 detail=
item 13 class=fork_join seed=2 headroom=0 mode=source pass=1 rejected=0 starvations=0 capacity=140 firings=2437 lateness=0 fault_expected=0 fault_named=0 cert_clauses=256 cert_ok=1 detail=
item 14 class=fork_join seed=1 headroom=2 mode=source pass=1 rejected=0 starvations=0 capacity=141 firings=1464 lateness=0 fault_expected=0 fault_named=0 cert_clauses=279 cert_ok=1 detail=
item 15 class=fork_join seed=2 headroom=2 mode=source pass=1 rejected=0 starvations=0 capacity=87 firings=518 lateness=0 fault_expected=0 fault_named=0 cert_clauses=163 cert_ok=1 detail=
item 16 class=cyclic seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=142 firings=887 lateness=0 fault_expected=0 fault_named=0 cert_clauses=234 cert_ok=1 detail=
item 17 class=cyclic seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=165 firings=1348 lateness=0 fault_expected=0 fault_named=0 cert_clauses=205 cert_ok=1 detail=
item 18 class=cyclic seed=1 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=195 firings=833 lateness=0 fault_expected=0 fault_named=0 cert_clauses=250 cert_ok=1 detail=
item 19 class=cyclic seed=2 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=162 firings=1479 lateness=0 fault_expected=0 fault_named=0 cert_clauses=225 cert_ok=1 detail=
item 20 class=cyclic seed=1 headroom=0 mode=source pass=1 rejected=0 starvations=0 capacity=73 firings=537 lateness=0 fault_expected=0 fault_named=0 cert_clauses=157 cert_ok=1 detail=
item 21 class=cyclic seed=2 headroom=0 mode=source pass=1 rejected=0 starvations=0 capacity=222 firings=428 lateness=0 fault_expected=0 fault_named=0 cert_clauses=261 cert_ok=1 detail=
item 22 class=cyclic seed=1 headroom=2 mode=source pass=1 rejected=0 starvations=0 capacity=173 firings=1286 lateness=0 fault_expected=0 fault_named=0 cert_clauses=209 cert_ok=1 detail=
item 23 class=cyclic seed=2 headroom=2 mode=source pass=1 rejected=0 starvations=0 capacity=216 firings=310 lateness=0 fault_expected=0 fault_named=0 cert_clauses=277 cert_ok=1 detail=
item 24 class=multi_constraint seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=103 firings=1193 lateness=0 fault_expected=0 fault_named=0 cert_clauses=176 cert_ok=1 detail=
item 25 class=multi_constraint seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=109 firings=1164 lateness=0 fault_expected=0 fault_named=0 cert_clauses=201 cert_ok=1 detail=
item 26 class=multi_constraint seed=1 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=110 firings=539 lateness=0 fault_expected=0 fault_named=0 cert_clauses=174 cert_ok=1 detail=
item 27 class=multi_constraint seed=2 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=32 firings=465 lateness=0 fault_expected=0 fault_named=0 cert_clauses=101 cert_ok=1 detail=
item 28 class=interior_pinned seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=43 firings=489 lateness=0 fault_expected=0 fault_named=0 cert_clauses=122 cert_ok=1 detail=
item 29 class=interior_pinned seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=77 firings=532 lateness=0 fault_expected=0 fault_named=0 cert_clauses=126 cert_ok=1 detail=
item 30 class=interior_pinned seed=1 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=65 firings=511 lateness=0 fault_expected=0 fault_named=0 cert_clauses=122 cert_ok=1 detail=
item 31 class=interior_pinned seed=2 headroom=2 mode=sink pass=1 rejected=0 starvations=0 capacity=79 firings=624 lateness=0 fault_expected=0 fault_named=0 cert_clauses=120 cert_ok=1 detail=
)golden";

const char* const kGoldenFaulted = R"golden(vrdf-fleet-report v1
spec classes=chain,cyclic,multi_constraint modes=sink headrooms=0 seeds_per_class=2 base_seed=5 response_fraction=1/2 variable=50 zero=20 observe=60 faulted=1 certify=0 generator=default items=6
class chain items=2 passed=2 failed=0 rejected=0 starvations=0 capacity=166 firings=1052 worst_lateness=0 faults_expected=2 faults_named=2 certified=0 cert_clauses=0 cert_failures=0
class cyclic items=2 passed=2 failed=0 rejected=0 starvations=0 capacity=296 firings=1535 worst_lateness=0 faults_expected=2 faults_named=2 certified=0 cert_clauses=0 cert_failures=0
class multi_constraint items=2 passed=2 failed=0 rejected=0 starvations=0 capacity=161 firings=1207 worst_lateness=3/2000 faults_expected=2 faults_named=2 certified=0 cert_clauses=0 cert_failures=0
total items=6 passed=6 failed=0 rejected=0 starvations=0 capacity=623 firings=3794 worst_lateness=3/2000 faults_expected=6 faults_named=6 certified=0 cert_clauses=0 cert_failures=0
item 0 class=chain seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=81 firings=552 lateness=0 fault_expected=1 fault_named=1 cert_clauses=0 cert_ok=0 detail=
item 1 class=chain seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=85 firings=500 lateness=0 fault_expected=1 fault_named=1 cert_clauses=0 cert_ok=0 detail=
item 2 class=cyclic seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=186 firings=321 lateness=0 fault_expected=1 fault_named=1 cert_clauses=0 cert_ok=0 detail=
item 3 class=cyclic seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=110 firings=1214 lateness=0 fault_expected=1 fault_named=1 cert_clauses=0 cert_ok=0 detail=
item 4 class=multi_constraint seed=1 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=86 firings=729 lateness=1/1000 fault_expected=1 fault_named=1 cert_clauses=0 cert_ok=0 detail=
item 5 class=multi_constraint seed=2 headroom=0 mode=sink pass=1 rejected=0 starvations=0 capacity=75 firings=478 lateness=3/2000 fault_expected=1 fault_named=1 cert_clauses=0 cert_ok=0 detail=
)golden";

const char* const kGoldenFrontier = R"golden(vrdf-frontier-report v1
spec procs=2 tasks=3 streams=1,2 slots=1,2,4,6 seeds=2 base=1 wheel=1/1000 period=1/500 wcet=2..12 observe=60 verify=1 certify=1 derivation=policy-exact
cell streams=1 slot=1 items=2 admitted=0 rejected_wheel=0 rejected_analysis=2 verified=0 starvations=0 capacity=0 firings=0 certified=0 cert_clauses=0 cert_failures=0
cell streams=1 slot=2 items=2 admitted=2 rejected_wheel=0 rejected_analysis=0 verified=2 starvations=0 capacity=11 firings=984 certified=2 cert_clauses=242 cert_failures=0
cell streams=1 slot=4 items=2 admitted=2 rejected_wheel=0 rejected_analysis=0 verified=2 starvations=0 capacity=6 firings=970 certified=2 cert_clauses=242 cert_failures=0
cell streams=1 slot=6 items=2 admitted=2 rejected_wheel=0 rejected_analysis=0 verified=2 starvations=0 capacity=6 firings=970 certified=2 cert_clauses=242 cert_failures=0
cell streams=2 slot=1 items=2 admitted=0 rejected_wheel=0 rejected_analysis=2 verified=0 starvations=0 capacity=0 firings=0 certified=0 cert_clauses=0 cert_failures=0
cell streams=2 slot=2 items=2 admitted=2 rejected_wheel=0 rejected_analysis=0 verified=2 starvations=0 capacity=20 firings=1706 certified=2 cert_clauses=446 cert_failures=0
cell streams=2 slot=4 items=2 admitted=2 rejected_wheel=0 rejected_analysis=0 verified=2 starvations=0 capacity=12 firings=1697 certified=2 cert_clauses=446 cert_failures=0
cell streams=2 slot=6 items=2 admitted=0 rejected_wheel=2 rejected_analysis=0 verified=0 starvations=0 capacity=0 firings=0 certified=0 cert_clauses=0 cert_failures=0
total items=16 admitted=10 rejected_wheel=2 rejected_analysis=4 verified=10 starvations=0 capacity=55 firings=6327 certified=10 cert_clauses=1618 cert_failures=0
item index=0 streams=1 slot=1 seed=1 rng=16294208416658607535 outcome=rejected-analysis verified=0 starvations=0 capacity=0 firings=0 cert_clauses=0 cert_ok=0 detail=actor 'root': response time 191/64000 s exceeds pacing 1/500 s; no valid schedule exists at the required rate
item index=1 streams=1 slot=1 seed=2 rng=10451216379200822465 outcome=rejected-analysis verified=0 starvations=0 capacity=0 firings=0 cert_clauses=0 cert_ok=0 detail=actor 's0t0': response time 191/64000 s exceeds pacing 1/500 s; no valid schedule exists at the required rate
item index=2 streams=1 slot=2 seed=1 rng=10905525725756348110 outcome=admitted verified=1 starvations=0 capacity=5 firings=490 cert_clauses=121 cert_ok=1 detail=
item index=3 streams=1 slot=2 seed=2 rng=2092789425003139053 outcome=admitted verified=1 starvations=0 capacity=6 firings=494 cert_clauses=121 cert_ok=1 detail=
item index=4 streams=1 slot=4 seed=1 rng=7958955049054603978 outcome=admitted verified=1 starvations=0 capacity=3 firings=485 cert_clauses=121 cert_ok=1 detail=
item index=5 streams=1 slot=4 seed=2 rng=7134611160154358618 outcome=admitted verified=1 starvations=0 capacity=3 firings=485 cert_clauses=121 cert_ok=1 detail=
item index=6 streams=1 slot=6 seed=1 rng=13647215125184110592 outcome=admitted verified=1 starvations=0 capacity=3 firings=485 cert_clauses=121 cert_ok=1 detail=
item index=7 streams=1 slot=6 seed=2 rng=7191089600892374487 outcome=admitted verified=1 starvations=0 capacity=3 firings=485 cert_clauses=121 cert_ok=1 detail=
item index=8 streams=2 slot=1 seed=1 rng=11409396526365357622 outcome=rejected-analysis verified=0 starvations=0 capacity=0 firings=0 cert_clauses=0 cert_ok=0 detail=actor 's1t0': response time 191/64000 s exceeds pacing 1/500 s; no valid schedule exists at the required rate
item index=9 streams=2 slot=1 seed=2 rng=12587370737594032228 outcome=rejected-analysis verified=0 starvations=0 capacity=0 firings=0 cert_clauses=0 cert_ok=0 detail=actor 's1t0': response time 19/6400 s exceeds pacing 1/500 s; no valid schedule exists at the required rate
item index=10 streams=2 slot=2 seed=1 rng=614480483733483466 outcome=admitted verified=1 starvations=0 capacity=9 firings=852 cert_clauses=223 cert_ok=1 detail=
item index=11 streams=2 slot=2 seed=2 rng=5833679380957638813 outcome=admitted verified=1 starvations=0 capacity=11 firings=854 cert_clauses=223 cert_ok=1 detail=
item index=12 streams=2 slot=4 seed=1 rng=10682531704454680323 outcome=admitted verified=1 starvations=0 capacity=6 firings=847 cert_clauses=223 cert_ok=1 detail=
item index=13 streams=2 slot=4 seed=2 rng=14180207640020093695 outcome=admitted verified=1 starvations=0 capacity=6 firings=850 cert_clauses=223 cert_ok=1 detail=
item index=14 streams=2 slot=6 seed=1 rng=7685909621375755838 outcome=rejected-wheel verified=0 starvations=0 capacity=0 firings=0 cert_clauses=0 cert_ok=0 detail=TDM wheel of processor cpu0 cannot hold 4 slots of 6/16
item index=15 streams=2 slot=6 seed=2 rng=9753551079159975941 outcome=rejected-wheel verified=0 starvations=0 capacity=0 firings=0 cert_clauses=0 cert_ok=0 detail=TDM wheel of processor cpu0 cannot hold 4 slots of 6/16
)golden";

TEST(SweepGolden, FleetCanonicalTextAndFingerprint) {
  const sim::FleetSweep sweep(golden_fleet_spec());
  EXPECT_EQ(sweep.fingerprint(), 0xe4df679ec04f17d9ULL);
  EXPECT_EQ(sim::canonical_text(sweep.run(1)), kGoldenFleet);
  EXPECT_EQ(sim::canonical_text(sweep.run(3)), kGoldenFleet);
}

TEST(SweepGolden, FaultedFleetCanonicalTextAndFingerprint) {
  const sim::FleetSweep sweep(golden_faulted_spec());
  EXPECT_EQ(sweep.fingerprint(), 0xfaf9c5c8edaa81f1ULL);
  EXPECT_EQ(sim::canonical_text(sweep.run(1)), kGoldenFaulted);
  EXPECT_EQ(sim::canonical_text(sweep.run(3)), kGoldenFaulted);
}

TEST(SweepGolden, FrontierCanonicalText) {
  const sim::FrontierSweep sweep(golden_frontier_spec());
  const sim::FrontierReport report = sweep.run(1);
  // The spec reaches all three outcomes, so every line shape is pinned.
  EXPECT_GT(report.admitted, 0);
  EXPECT_GT(report.rejected_wheel, 0);
  EXPECT_GT(report.rejected_analysis, 0);
  EXPECT_EQ(sim::canonical_text(report), kGoldenFrontier);
  EXPECT_EQ(sim::canonical_text(sweep.run(3)), kGoldenFrontier);
}

}  // namespace
}  // namespace vrdf
