// Fleet-scale parallel verification: the deterministic seed-derivation
// helper, the sharded sweep harness and its resumable journal.
//
// The load-bearing property is *scheduling-independence*: a FleetSweep
// report's canonical serialization must be bit-identical whether the
// sweep ran on 1, 2 or 8 workers, and whether it ran straight through or
// was interrupted and resumed from its journal.  Everything else (codec
// round-trips, published seed streams) exists to defend that property.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "io/fleet_journal.hpp"
#include "models/synthetic.hpp"
#include "sim/deployment_frontier.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace vrdf {
namespace {

using models::ModelClass;
using sim::ConstraintMode;
using sim::FleetItemResult;
using sim::FleetReport;
using sim::FleetSweep;
using sim::SweepSpec;

// ------------------------------------------------------- seed derivation

TEST(SeedStream, PublishedDerivationsAreBitStable) {
  // Golden values: these are published — fleet journals, recorded seeds
  // and the PR 3 cyclic models all depend on them.  A mismatch here means
  // a silent break of every recorded seed.
  EXPECT_EQ(util::mix64(0), 0x0ULL);
  EXPECT_EQ(util::derive_seed(1, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(util::derive_seed(1, 1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(util::derive_seed(42, 7), 0xeb7a07aacd555fc9ULL);
  EXPECT_EQ(util::decorrelate(5), 0x9e3779b97f4a7c10ULL);
}

TEST(SeedStream, DistinctIndicesYieldDistinctStreams) {
  for (std::uint64_t i = 1; i < 64; ++i) {
    EXPECT_NE(util::derive_seed(1, i), util::derive_seed(1, i - 1));
  }
}

// -------------------------------------------------------- fleet sweeps

SweepSpec mixed_spec() {
  SweepSpec spec;
  // All five classes, both constraint placements, two headroom levels —
  // small per-cell counts keep the determinism matrix fast (the suite
  // runs the same sweep four times).
  spec.seeds_per_class = 3;
  spec.headroom_levels = {0, 2};
  spec.modes = {ConstraintMode::Sink, ConstraintMode::Source};
  spec.observe_firings = 120;
  spec.base_seed = 7;
  return spec;
}

TEST(FleetSweep, ExpansionSkipsSourceModeForSinkOnlyClasses) {
  const FleetSweep sweep(mixed_spec());
  // 5 classes x sink x 2 headrooms x 3 seeds + 3 source-capable classes
  // x 2 headrooms x 3 seeds.
  EXPECT_EQ(sweep.items().size(), 5u * 2 * 3 + 3u * 2 * 3);
  for (std::size_t i = 0; i < sweep.items().size(); ++i) {
    EXPECT_EQ(sweep.items()[i].index, i);
    EXPECT_EQ(sweep.items()[i].rng_seed, util::derive_seed(7, i));
    if (sweep.items()[i].mode == ConstraintMode::Source) {
      EXPECT_NE(sweep.items()[i].model_class, ModelClass::MultiConstraint);
      EXPECT_NE(sweep.items()[i].model_class, ModelClass::InteriorPinned);
    }
  }
}

TEST(FleetSweep, ReportIsBitIdenticalAcrossThreadCounts) {
  const FleetSweep sweep(mixed_spec());
  const FleetReport reference = sweep.run(1);
  EXPECT_EQ(reference.total_items,
            static_cast<std::int64_t>(sweep.items().size()));
  EXPECT_EQ(reference.failed, 0) << sim::canonical_text(reference);
  EXPECT_EQ(reference.rejected, 0) << sim::canonical_text(reference);
  EXPECT_EQ(reference.starvations, 0);
  EXPECT_GT(reference.firings, 0);
  EXPECT_GT(reference.total_capacity, 0);

  const std::string canonical = sim::canonical_text(reference);
  for (const std::size_t threads : {2u, 8u}) {
    const FleetReport parallel = sweep.run(threads);
    EXPECT_EQ(sim::canonical_text(parallel), canonical)
        << "thread count " << threads << " changed the report bytes";
    EXPECT_EQ(parallel.threads_used, threads);
  }
}

TEST(FleetSweep, FaultedSweepHoldsConstraintsAndNamesEveryBreach) {
  SweepSpec spec;
  spec.classes = {ModelClass::Chain, ModelClass::Cyclic,
                  ModelClass::MultiConstraint};
  spec.seeds_per_class = 4;
  spec.observe_firings = 120;
  spec.faulted = true;
  const FleetSweep sweep(spec);
  const FleetReport report = sweep.run(2);
  EXPECT_EQ(report.failed, 0) << sim::canonical_text(report);
  EXPECT_EQ(report.rejected, 0) << sim::canonical_text(report);
  EXPECT_EQ(report.starvations, 0);
  // Wherever a positive margin was injected, the monitor attributed the
  // ρ breach to the faulted actor.
  EXPECT_EQ(report.faults_named, report.faults_expected);
  EXPECT_GT(report.faults_expected, 0);
  // Faulted mode is part of the determinism contract too.
  EXPECT_EQ(sim::canonical_text(sweep.run(8)), sim::canonical_text(report));
}

TEST(FleetSweep, CanonicalBytesPinnedByDigest) {
  // The thread-count tests compare runs of one build; this pins the bytes
  // across builds.  Verify's phase-1 fit writes `lateness=` and
  // `firings=` into every item line, so any drift in the fit shows here.
  SweepSpec sink;
  sink.seeds_per_class = 2;
  sink.headroom_levels = {0, 2};
  sink.observe_firings = 200;
  sink.base_seed = 19;
  sink.certify = true;
  SweepSpec source = sink;
  source.classes = {ModelClass::Chain, ModelClass::ForkJoin,
                    ModelClass::Cyclic};
  source.modes = {ConstraintMode::Source};
  source.base_seed = 23;
  SweepSpec faulted;
  faulted.classes = {ModelClass::Chain, ModelClass::ForkJoin,
                     ModelClass::Cyclic, ModelClass::MultiConstraint};
  faulted.seeds_per_class = 2;
  faulted.headroom_levels = {0, 2};
  faulted.observe_firings = 120;
  faulted.base_seed = 29;
  faulted.faulted = true;
  sim::FrontierSpec frontier;
  frontier.stream_counts = {1, 2};
  frontier.slot_sixteenths = {2, 4};
  frontier.seeds_per_cell = 2;
  frontier.observe_firings = 150;

  for (const std::size_t threads : {1u, 4u}) {
    std::string corpus;
    for (const SweepSpec& spec : {sink, source, faulted}) {
      corpus += sim::canonical_text(FleetSweep(spec).run(threads));
    }
    corpus += sim::canonical_text(sim::FrontierSweep(frontier).run(threads));
    // 64-bit FNV-1a of the corpus; a mismatch prints the corpus itself.
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const char byte : corpus) {
      fnv = (fnv ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
    }
    EXPECT_EQ(fnv, 0x0fb98826f2e90ce9ULL) << threads << " threads\n" << corpus;
  }
}

TEST(FleetSweep, CustomGeneratorsRideThePipeline) {
  SweepSpec spec;
  spec.classes = {ModelClass::ForkJoin};
  spec.seeds_per_class = 5;
  spec.observe_firings = 150;
  spec.generator = [](const sim::FleetItem& item) {
    models::RandomForkJoinSpec fork_join;
    fork_join.seed = item.seed_ordinal;  // published per-seed schedule
    fork_join.stages = 1 + item.seed_ordinal % 2;
    models::SyntheticChain generated = models::make_random_fork_join(fork_join);
    models::SyntheticModel model;
    model.graph = std::move(generated.graph);
    model.constraints = {generated.constraint};
    return model;
  };
  const FleetSweep sweep(spec);
  const FleetReport report = sweep.run(2);
  EXPECT_EQ(report.passed, 5);
  EXPECT_EQ(report.failed + report.rejected, 0) << sim::canonical_text(report);
  EXPECT_NE(report.spec_summary.find("generator=custom"), std::string::npos);
}

// ------------------------------------------------------- item-line codec

TEST(FleetCodec, ItemLinesRoundTripIncludingMultilineDetails) {
  FleetItemResult result;
  result.item.index = 17;
  result.item.model_class = ModelClass::MultiConstraint;
  result.item.seed_ordinal = 9;
  result.item.headroom = 2;
  result.item.mode = ConstraintMode::Source;
  result.pass = false;
  result.rejected = false;
  result.starvation_count = 3;
  result.total_capacity = 1234;
  result.firings = 98765;
  result.max_lateness = Duration(Rational(7, 480));
  result.fault_margin_positive = true;
  result.fault_named = true;
  result.detail = "phase 2 starved;\n'p' waits for 3 tokens\\with backslash";

  const std::string line = sim::encode_item_line(result);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  FleetItemResult decoded;
  ASSERT_TRUE(sim::decode_item_line(line, &decoded)) << line;
  EXPECT_EQ(decoded.item.index, result.item.index);
  EXPECT_EQ(decoded.item.model_class, result.item.model_class);
  EXPECT_EQ(decoded.item.seed_ordinal, result.item.seed_ordinal);
  EXPECT_EQ(decoded.item.headroom, result.item.headroom);
  EXPECT_EQ(decoded.item.mode, result.item.mode);
  EXPECT_EQ(decoded.pass, result.pass);
  EXPECT_EQ(decoded.rejected, result.rejected);
  EXPECT_EQ(decoded.starvation_count, result.starvation_count);
  EXPECT_EQ(decoded.total_capacity, result.total_capacity);
  EXPECT_EQ(decoded.firings, result.firings);
  EXPECT_EQ(decoded.max_lateness.seconds(), result.max_lateness.seconds());
  EXPECT_EQ(decoded.fault_margin_positive, result.fault_margin_positive);
  EXPECT_EQ(decoded.fault_named, result.fault_named);
  EXPECT_EQ(decoded.detail, result.detail);
}

TEST(FleetCodec, MalformedLinesAreRefusedNotMisdecoded) {
  FleetItemResult scratch;
  EXPECT_FALSE(sim::decode_item_line("not an item line", &scratch));
  EXPECT_FALSE(sim::decode_item_line("item 3 class=chain", &scratch));
  EXPECT_FALSE(sim::decode_item_line(
      "item x class=chain seed=1 headroom=0 mode=sink pass=1 rejected=0 "
      "starvations=0 capacity=1 firings=1 lateness=0 fault_expected=0 "
      "fault_named=0 detail=",
      &scratch));
  EXPECT_FALSE(sim::decode_item_line(
      "item 3 class=hexagon seed=1 headroom=0 mode=sink pass=1 rejected=0 "
      "starvations=0 capacity=1 firings=1 lateness=0 fault_expected=0 "
      "fault_named=0 detail=",
      &scratch));
}

// ------------------------------------------------------ resumable journal

class TempPath {
 public:
  explicit TempPath(const char* name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// Every item of a resumed report is the sweep's own (RNG stream
/// included, though journal lines do not carry it), and re-running it
/// reproduces the uninterrupted run's line.
void expect_items_match_expansion(const FleetSweep& sweep,
                                  const FleetReport& resumed,
                                  const FleetReport& fresh) {
  ASSERT_EQ(resumed.items.size(), sweep.items().size());
  for (std::size_t i = 0; i < sweep.items().size(); ++i) {
    const sim::FleetItem& item = resumed.items[i].item;
    const sim::FleetItem& expected = sweep.items()[i];
    EXPECT_EQ(item.index, expected.index);
    EXPECT_EQ(item.model_class, expected.model_class);
    EXPECT_EQ(item.seed_ordinal, expected.seed_ordinal);
    EXPECT_EQ(item.headroom, expected.headroom);
    EXPECT_EQ(item.mode, expected.mode);
    EXPECT_EQ(item.rng_seed, expected.rng_seed) << "item " << i;
    EXPECT_EQ(sim::encode_item_line(sweep.run_item(item)),
              sim::encode_item_line(fresh.items[i]));
  }
}

TEST(FleetJournal, ResumedRunMatchesUninterruptedBytes) {
  const FleetSweep sweep(mixed_spec());
  const FleetReport fresh = sweep.run(2);
  const std::string uninterrupted = sim::canonical_text(fresh);

  // Simulate the interrupt: journal only a prefix of the items, as if the
  // process died mid-sweep...
  TempPath path("fleet_resume.journal");
  {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    for (std::size_t i = 0; i < sweep.items().size() / 2; ++i) {
      journal.record(sweep.run_item(sweep.items()[i]));
    }
    EXPECT_EQ(journal.completed(), sweep.items().size() / 2);
  }
  // ...then resume: the journaled half merges back without recompute and
  // the report bytes match the uninterrupted run exactly.
  io::FleetJournal journal(path.str(), sweep.fingerprint(),
                           sweep.items().size());
  EXPECT_EQ(journal.completed(), sweep.items().size() / 2);
  const FleetReport resumed = sweep.run(8, &journal);
  EXPECT_EQ(resumed.items_resumed, sweep.items().size() / 2);
  EXPECT_EQ(sim::canonical_text(resumed), uninterrupted);
  EXPECT_EQ(journal.completed(), sweep.items().size());
  expect_items_match_expansion(sweep, resumed, fresh);

  // A third pass finds everything journaled: zero recompute, same bytes.
  io::FleetJournal full(path.str(), sweep.fingerprint(),
                        sweep.items().size());
  EXPECT_EQ(full.completed(), sweep.items().size());
  const FleetReport replayed = sweep.run(1, &full);
  EXPECT_EQ(replayed.items_resumed, sweep.items().size());
  EXPECT_EQ(sim::canonical_text(replayed), uninterrupted);
  expect_items_match_expansion(sweep, replayed, fresh);
}

TEST(FleetJournal, RefusesARecordThatDisagreesWithTheExpansion) {
  const FleetSweep sweep(mixed_spec());
  TempPath path("fleet_mismatch.journal");
  {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    journal.record(sweep.run_item(sweep.items()[0]));
    FleetItemResult edited = sweep.run_item(sweep.items()[1]);
    edited.item.seed_ordinal += 1;  // a hand-edited or foreign record
    journal.record(edited);
  }
  for (const std::size_t threads : {1u, 4u}) {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    try {
      (void)sweep.run(threads, &journal);
      FAIL() << "a record that disagrees with items()[1] must be refused";
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("item 1 "), std::string::npos)
          << error.what();
    }
  }
}

TEST(FleetJournal, TornTrailingLineIsDroppedAndRerun) {
  const FleetSweep sweep(mixed_spec());
  TempPath path("fleet_torn.journal");
  {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    journal.record(sweep.run_item(sweep.items()[0]));
    journal.record(sweep.run_item(sweep.items()[1]));
  }
  {
    // An interrupt mid-write leaves a line without its newline.
    std::ofstream torn(path.str(), std::ios::app | std::ios::binary);
    torn << "item 2 class=chain seed=3 headroo";
  }
  io::FleetJournal journal(path.str(), sweep.fingerprint(),
                           sweep.items().size());
  EXPECT_EQ(journal.completed(), 2u);  // the torn record does not count
  const FleetReport report = sweep.run(2, &journal);
  EXPECT_EQ(report.items_resumed, 2u);
  EXPECT_EQ(sim::canonical_text(report),
            sim::canonical_text(sweep.run(2)));
}

TEST(FleetJournal, RefusesAForeignSpecFingerprint) {
  const FleetSweep sweep(mixed_spec());
  TempPath path("fleet_foreign.journal");
  {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    journal.record(sweep.run_item(sweep.items()[0]));
  }
  EXPECT_THROW(io::FleetJournal(path.str(), sweep.fingerprint() + 1,
                                sweep.items().size()),
               ModelError);
  EXPECT_THROW(io::FleetJournal(path.str(), sweep.fingerprint(),
                                sweep.items().size() + 1),
               ModelError);
  // Passing a journal opened for another spec to run() is refused too.
  SweepSpec other = mixed_spec();
  other.base_seed = 8;
  const FleetSweep other_sweep(other);
  io::FleetJournal journal(path.str(), sweep.fingerprint(),
                           sweep.items().size());
  EXPECT_THROW((void)other_sweep.run(1, &journal), ContractError);
}

TEST(FleetJournal, CorruptRecordsAreNamedByLine) {
  const FleetSweep sweep(mixed_spec());
  TempPath path("fleet_corrupt.journal");
  {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    journal.record(sweep.run_item(sweep.items()[0]));
  }
  {
    std::ofstream out(path.str(), std::ios::app | std::ios::binary);
    out << "item 1 class=chain not-a-record\n";
  }
  try {
    io::FleetJournal journal(path.str(), sweep.fingerprint(),
                             sweep.items().size());
    FAIL() << "corrupt journal record must be refused";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos)
        << error.what();
  }
}

// --------------------------------------- RandomModelSpec source placement

TEST(RandomModel, SourceConstrainedSpecPinsTheSource) {
  models::RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 3;
  spec.source_constrained = true;
  const models::SyntheticModel model = models::make_random_model(spec);
  ASSERT_EQ(model.constraints.size(), 1u);
  const auto view = model.graph.buffer_view();
  ASSERT_TRUE(view.has_value());
  ASSERT_FALSE(view->data_sources.empty());
  EXPECT_EQ(model.constraints.front().actor, view->data_sources.front());
}

}  // namespace
}  // namespace vrdf
