// Proof-carrying capacity certificates and their independent checker.
//
// The load-bearing properties:
//  * Soundness of the pair: every certificate the analysis emits passes
//    the checker — across the published MP3 case study, every randomized
//    sweep class, both constraint placements, faulted/headroom variants,
//    and every state the incremental engine renders (zero false
//    rejections).
//  * Mutation coverage: perturbing any single field of a valid
//    certificate is detected, and the violation names the right clause
//    family and the right edge or actor.  A checker that misses a
//    mutation class is re-deriving less than it claims.
//  * Fleet integration: certify-mode reports keep the canonical-bytes
//    guarantee across thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/incremental.hpp"
#include "analysis/snapshot.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"

namespace vrdf {
namespace {

using analysis::Certificate;
using analysis::CertificateCheck;
using analysis::CheckerOptions;
using analysis::ClauseKind;
using analysis::ClauseViolation;
using analysis::ConstraintSide;
using analysis::GraphAnalysis;
using analysis::ThroughputConstraint;
using dataflow::ActorId;

// True when some violation matches the expected clause family and its
// subject mentions `where` (an actor or edge name; empty = any subject).
[[nodiscard]] bool names(const CertificateCheck& check, ClauseKind kind,
                         const std::string& where) {
  for (const ClauseViolation& violation : check.violations) {
    if (violation.kind == kind &&
        (where.empty() ||
         violation.subject.find(where) != std::string::npos)) {
      return true;
    }
  }
  return false;
}

[[nodiscard]] std::string render(const CertificateCheck& check) {
  std::string out;
  for (const ClauseViolation& violation : check.violations) {
    out += "  " + describe(violation) + "\n";
  }
  return out.empty() ? "  (no violations)" : out;
}

// ------------------------------------------------------------ MP3 anchor

TEST(Certificate, Mp3EmitsAndChecksCleanWithPublishedCapacities) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(mp3.graph, sized);

  // The certificate transcribes the published numbers bit-for-bit.
  ASSERT_EQ(cert.pairs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cert.pairs[i].capacity,
              models::Mp3PaperNumbers::kVrdfCapacities[i]);
  }
  EXPECT_EQ(cert.total_capacity, 6015 + 3263 + 882);
  EXPECT_EQ(cert.actors.size(), 4u);

  const CertificateCheck check =
      analysis::check_certificate(mp3.graph, cert);
  EXPECT_TRUE(check.ok) << render(check);
  EXPECT_TRUE(check.violations.empty());
  EXPECT_GT(check.clauses_checked, 50u);
  EXPECT_TRUE(check.first_violation().empty());
}

TEST(Certificate, RefusesInadmissibleAndPreLeadShapes) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  GraphAnalysis inadmissible = sized;
  inadmissible.admissible = false;
  EXPECT_THROW((void)analysis::make_certificate(mp3.graph, inadmissible),
               Error);
  GraphAnalysis leadless = sized;
  leadless.leads.clear();
  EXPECT_THROW((void)analysis::make_certificate(mp3.graph, leadless), Error);
}

// -------------------------------------------------------- mutation suite

/// Fixture helpers: a valid (model, analysis, certificate) triple plus
/// the assertion that a mutated copy is rejected with the right clause
/// kind at the right subject.
struct Mutation {
  const char* label;
  ClauseKind kind;
  std::string where;  // substring the violation subject must contain
  void (*apply)(Certificate&);
};

void expect_detected(const dataflow::VrdfGraph& graph,
                     const Certificate& cert, const Mutation& mutation) {
  Certificate mutated = cert;
  mutation.apply(mutated);
  const CertificateCheck check =
      analysis::check_certificate(graph, mutated);
  EXPECT_FALSE(check.ok) << mutation.label << ": mutation undetected";
  EXPECT_TRUE(names(check, mutation.kind, mutation.where))
      << mutation.label << ": expected a "
      << analysis::clause_kind_name(mutation.kind) << " violation at '"
      << mutation.where << "', got:\n"
      << render(check);
}

// The MP3 model's certificate: actors vBR(0) vMP3(1) vSRC(2) vDAC(3) in
// topological order; pairs b1(0) b2(1) b3(2); one sink-kind constraint
// at vDAC.  Every field of every fact family is perturbed.
TEST(CertificateMutations, EveryClauseFamilyIsDetectedAndNamed) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(mp3.graph, sized);

  const Mutation mutations[] = {
      // ---- φ clauses
      {"phi bumped on an interior actor", ClauseKind::Phi, "vMP3",
       [](Certificate& c) { c.actors[1].phi += Duration(Rational(1, 7)); }},
      {"phi zeroed", ClauseKind::Phi, "vBR",
       [](Certificate& c) { c.actors[0].phi = Duration(); }},
      {"constraint period moved off the anchor's phi", ClauseKind::Phi,
       "vDAC",
       [](Certificate& c) {
         c.constraints[0].period += Duration(Rational(1, 100000));
       }},
      {"rho raised above phi", ClauseKind::Phi, "vSRC",
       [](Certificate& c) { c.actors[2].rho = c.actors[2].phi * Rational(2); }},
      // ---- ω clauses
      {"lead bumped on an interior actor", ClauseKind::Omega, "vMP3",
       [](Certificate& c) { c.actors[1].lead += Duration(Rational(1, 9)); }},
      {"anchor lead made nonzero", ClauseKind::Omega, "vDAC",
       [](Certificate& c) { c.actors[3].lead = Duration(Rational(1, 2)); }},
      // ---- ζ clauses
      {"delta_producer perturbed", ClauseKind::Zeta, "vBR -> vMP3",
       [](Certificate& c) {
         c.pairs[0].delta_producer += Duration(Rational(1, 3));
       }},
      {"delta_consumer perturbed", ClauseKind::Zeta, "vMP3 -> vSRC",
       [](Certificate& c) {
         c.pairs[1].delta_consumer += Duration(Rational(1, 3));
       }},
      {"raw_tokens perturbed", ClauseKind::Zeta, "vSRC -> vDAC",
       [](Certificate& c) { c.pairs[2].raw_tokens += Rational(1, 2); }},
      {"tight_rounding claim flipped on", ClauseKind::Zeta, "vBR -> vMP3",
       [](Certificate& c) { c.pairs[0].tight_rounding = true; }},
      {"tight_rounding claim flipped off", ClauseKind::Zeta, "vSRC -> vDAC",
       [](Certificate& c) { c.pairs[2].tight_rounding = false; }},
      {"capacity shaved by one container", ClauseKind::Zeta, "vBR -> vMP3",
       [](Certificate& c) {
         c.pairs[0].capacity -= 1;
         c.total_capacity -= 1;  // keep the sum consistent — the per-pair
                                 // equation alone must catch it
       }},
      {"total_capacity inflated", ClauseKind::Zeta, "certificate",
       [](Certificate& c) { c.total_capacity += 1; }},
      {"rounding mode swapped to PaperLiteral", ClauseKind::Zeta,
       "vSRC -> vDAC",
       [](Certificate& c) {
         // b3 is the tight pair (x integral): ⌊x⌋+1 would buy one extra
         // container, so the recorded 882 no longer matches.
         c.rounding = analysis::RoundingMode::PaperLiteral;
       }},
      // ---- δ clauses
      {"cycle requirement invented on a skeleton pair", ClauseKind::Delta,
       "vMP3 -> vSRC",
       [](Certificate& c) { c.pairs[1].required_initial_tokens = 2; }},
      // ---- coverage clauses
      {"side flipped to Source", ClauseKind::Coverage, "vSRC -> vDAC",
       [](Certificate& c) { c.pairs[2].side = ConstraintSide::Source; }},
      {"variable pair claimed static", ClauseKind::Coverage, "vBR -> vMP3",
       [](Certificate& c) { c.pairs[0].is_static = true; }},
      {"static pair claimed variable", ClauseKind::Coverage, "vMP3 -> vSRC",
       [](Certificate& c) { c.pairs[1].is_static = false; }},
      {"acyclic edge claimed as feedback", ClauseKind::Coverage,
       "vMP3 -> vSRC",
       [](Certificate& c) { c.pairs[1].is_feedback = true; }},
      {"pair endpoints swapped", ClauseKind::Coverage, "",
       [](Certificate& c) {
         std::swap(c.pairs[0].producer, c.pairs[0].consumer);
       }},
      {"duplicate actor fact", ClauseKind::Coverage, "",
       [](Certificate& c) { c.actors[0].actor = c.actors[1].actor; }},
      {"duplicate pair fact", ClauseKind::Coverage, "",
       [](Certificate& c) { c.pairs[0].buffer = c.pairs[1].buffer; }},
      {"anchor kind vector flipped", ClauseKind::Coverage, "vDAC",
       [](Certificate& c) { c.constraint_is_sink_kind[0] = false; }},
      {"recorded rho unbound from the graph", ClauseKind::Coverage, "vMP3",
       [](Certificate& c) { c.actors[1].rho += Duration(Rational(1, 5)); }},
      {"recorded delta unbound from the graph", ClauseKind::Coverage,
       "vBR -> vMP3",
       [](Certificate& c) { c.pairs[0].initial_tokens += 1; }},
      {"skeleton order reversed", ClauseKind::Coverage, "",
       [](Certificate& c) { std::swap(c.actors[0], c.actors[3]); }},
      {"constraint actor repointed", ClauseKind::Phi, "vSRC",
       [](Certificate& c) {
         c.constraints[0].actor = c.actors[2].actor;  // vSRC: φ ≠ τ there
       }},
      {"negative constraint period", ClauseKind::Phi, "vDAC",
       [](Certificate& c) {
         c.constraints[0].period = Duration(Rational(-1, 44100));
       }},
  };
  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.label);
    expect_detected(mp3.graph, cert, mutation);
  }
}

// Feedback δ clauses need a cyclic model: perturb the recorded cycle
// bound and starve the circulating tokens on a generated cyclic graph.
TEST(CertificateMutations, FeedbackDeltaClausesDetectedOnCyclicModels) {
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 20 && !exercised; ++seed) {
    models::RandomModelSpec spec;
    spec.model_class = models::ModelClass::Cyclic;
    spec.seed = seed;
    models::SyntheticModel model = models::make_random_model(spec);
    const GraphAnalysis sized = analysis::compute_buffer_capacities(
        model.graph, model.constraints);
    if (!sized.admissible) {
      continue;
    }
    const Certificate cert =
        analysis::make_certificate(model.graph, sized);
    ASSERT_TRUE(analysis::check_certificate(model.graph, cert).ok);
    for (std::size_t p = 0; p < cert.pairs.size(); ++p) {
      if (!cert.pairs[p].is_feedback) {
        continue;
      }
      exercised = true;
      {
        Certificate mutated = cert;
        mutated.pairs[p].required_initial_tokens += 1;
        const CertificateCheck check =
            analysis::check_certificate(model.graph, mutated);
        EXPECT_FALSE(check.ok);
        EXPECT_TRUE(names(check, ClauseKind::Delta, "")) << render(check);
      }
      {
        // A back-edge demoted to skeleton creates a claimed-skeleton
        // cycle — caught structurally.
        Certificate mutated = cert;
        mutated.pairs[p].is_feedback = false;
        const CertificateCheck check =
            analysis::check_certificate(model.graph, mutated);
        EXPECT_FALSE(check.ok);
        EXPECT_TRUE(names(check, ClauseKind::Coverage, "")) << render(check);
      }
      break;
    }
  }
  ASSERT_TRUE(exercised)
      << "no admissible cyclic model with a feedback pair in 20 seeds";
}

// Exhaustive single-field sweep: EVERY numeric witness field of every
// fact, perturbed one at a time, must be rejected (100% detection).
TEST(CertificateMutations, ExhaustiveSingleFieldSweepIsFullyDetected) {
  const models::ModelClass classes[] = {
      models::ModelClass::Chain, models::ModelClass::ForkJoin,
      models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
      models::ModelClass::InteriorPinned};
  int mutations_checked = 0;
  for (const models::ModelClass model_class : classes) {
    models::SyntheticModel model;
    GraphAnalysis sized;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
      models::RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      model = models::make_random_model(spec);
      sized =
          analysis::compute_buffer_capacities(model.graph, model.constraints);
      found = sized.admissible;
    }
    ASSERT_TRUE(found) << "class " << static_cast<int>(model_class);
    const Certificate cert = analysis::make_certificate(model.graph, sized);
    ASSERT_TRUE(analysis::check_certificate(model.graph, cert).ok);

    const auto detected = [&](const Certificate& mutated) {
      return !analysis::check_certificate(model.graph, mutated).ok;
    };
    const Duration bump(Rational(1, 999983));  // prime denominator: never
                                               // cancels against model
                                               // rationals
    for (std::size_t i = 0; i < cert.actors.size(); ++i) {
      Certificate m = cert;
      m.actors[i].phi += bump;
      EXPECT_TRUE(detected(m)) << "actors[" << i << "].phi";
      m = cert;
      m.actors[i].lead += bump;
      EXPECT_TRUE(detected(m)) << "actors[" << i << "].lead";
      m = cert;
      m.actors[i].rho += bump;
      EXPECT_TRUE(detected(m)) << "actors[" << i << "].rho";
      mutations_checked += 3;
    }
    for (std::size_t p = 0; p < cert.pairs.size(); ++p) {
      Certificate m = cert;
      m.pairs[p].delta_producer += bump;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].delta_producer";
      m = cert;
      m.pairs[p].delta_consumer += bump;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].delta_consumer";
      m = cert;
      m.pairs[p].raw_tokens += Rational(1, 999983);
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].raw_tokens";
      m = cert;
      m.pairs[p].initial_tokens += 1;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].initial_tokens";
      m = cert;
      m.pairs[p].required_initial_tokens += 1;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].required_initial_tokens";
      m = cert;
      m.pairs[p].capacity += 1;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].capacity";
      m = cert;
      m.pairs[p].side = m.pairs[p].side == ConstraintSide::Sink
                            ? ConstraintSide::Source
                            : ConstraintSide::Sink;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].side";
      m = cert;
      m.pairs[p].is_static = !m.pairs[p].is_static;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].is_static";
      m = cert;
      m.pairs[p].is_feedback = !m.pairs[p].is_feedback;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].is_feedback";
      mutations_checked += 9;
    }
    {
      Certificate m = cert;
      m.total_capacity += 1;
      EXPECT_TRUE(detected(m)) << "total_capacity";
      ++mutations_checked;
    }
    for (std::size_t c = 0; c < cert.constraints.size(); ++c) {
      Certificate m = cert;
      m.constraints[c].period += bump;
      EXPECT_TRUE(detected(m)) << "constraints[" << c << "].period";
      ++mutations_checked;
    }
  }
  // Sanity: the sweep actually exercised a substantial mutation surface.
  EXPECT_GT(mutations_checked, 150);
}

// ------------------------------------------------ rendered-text goldens

// The checker renders a violation only when its clause fails.  The pinned
// describe() bytes and clause counts are those of a checker that renders
// every clause eagerly; one mutation per clause family.
[[nodiscard]] std::string describe_all(const CertificateCheck& check) {
  std::string out;
  for (const ClauseViolation& violation : check.violations) {
    out += describe(violation) + "\n";
  }
  return out;
}

TEST(CertificateGoldens, ViolationTextPinnedPerClauseFamily) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(mp3.graph, sized);

  struct Golden {
    const char* label;
    void (*apply)(Certificate&);
    std::uint64_t clauses;
    const char* text;
  };
  const Golden goldens[] = {
      {"phi",
       [](Certificate& c) { c.actors[1].phi += Duration(Rational(1, 7)); },
       95,
       "phi clause violated at buffer 'vBR -> vMP3': producer pacing witness "
       "does not equal the sink-side demand phi(consumer) * pi_min / "
       "gamma_max (32/625 s vs 4672/13125 s)\n"
       "phi clause violated at buffer 'vMP3 -> vSRC': producer pacing "
       "witness does not equal the sink-side demand phi(consumer) * pi_min / "
       "gamma_max (146/875 s vs 3/125 s)\n"
       "omega clause violated at actor 'vBR': alignment lead does not "
       "satisfy the sink-region longest-path equation omega = rho + "
       "max(omega(consumer) + s*(pi_max-1)) (1201859/7056000 s vs "
       "3351209/7056000 s)\n"
       "zeta clause violated at buffer 'vBR -> vMP3': producer slack does "
       "not equal max(alignment gap, rho + s*(pi_max-1)) (819/8000 s vs "
       "34187/84000 s)\n"
       "zeta clause violated at buffer 'vBR -> vMP3': consumer slack does "
       "not equal rho + s*(gamma_max-1) (1919/40000 s vs 11441/60000 s)\n"
       "zeta clause violated at buffer 'vBR -> vMP3': raw token count does "
       "not equal (delta_producer + delta_consumer) / s (6014 vs "
       "251022/73)\n"
       "zeta clause violated at buffer 'vBR -> vMP3': capacity does not "
       "equal the rounded slack plus the initial tokens (6015 vs 3439)\n"},
      {"omega",
       [](Certificate& c) { c.actors[3].lead = Duration(Rational(1, 2)); },
       95,
       "omega clause violated at actor 'vSRC': alignment lead does not "
       "satisfy the sink-region longest-path equation omega = rho + "
       "max(omega(consumer) + s*(pi_max-1)) (881/44100 s vs 22931/44100 s)\n"
       "omega clause violated at actor 'vDAC': a sink-kind anchor's "
       "alignment lead must be zero (1/2 s vs 0 s)\n"},
      {"zeta",
       [](Certificate& c) { c.pairs[2].raw_tokens += Rational(1, 2); }, 95,
       "zeta clause violated at buffer 'vSRC -> vDAC': raw token count does "
       "not equal (delta_producer + delta_consumer) / s (1765/2 vs 882)\n"},
      {"delta",
       [](Certificate& c) { c.pairs[1].required_initial_tokens = 2; }, 95,
       "delta clause violated at buffer 'vMP3 -> vSRC': skeleton pairs have "
       "no cycle token requirement (2 vs 0)\n"},
      {"coverage", [](Certificate& c) { c.pairs[0].is_static = true; }, 95,
       "coverage clause violated at buffer 'vBR -> vMP3': recorded "
       "staticness does not match the edge's rate sets (pi={2048}, "
       "gamma=[0,960]) (static vs variable)\n"},
      {"coverage, structure",
       [](Certificate& c) { c.pairs[0].buffer = c.pairs[1].buffer; }, 17,
       "coverage clause violated at buffer 'vBR -> vMP3': pair fact "
       "endpoints do not match the recorded data edge\n"},
      {"kappa",
       [](Certificate& c) {
         // Latency-rate: kappa must be (wheel - slot) + C·wheel/slot, not
         // the bare WCET.
         analysis::PlatformFact lr;
         lr.actor = c.actors[1].actor;
         lr.policy = analysis::ServicePolicy::TdmLatencyRate;
         lr.wcet = c.actors[1].rho;
         lr.slot = c.actors[1].rho;
         lr.wheel = c.actors[1].rho * Rational(2);
         lr.kappa = c.actors[1].rho;
         c.platform.push_back(lr);
         // TDM slot-granular with a wrong ceiling witness.
         analysis::PlatformFact tdm;
         tdm.actor = c.actors[2].actor;
         tdm.wcet = Duration(Rational(3, 1000));
         tdm.slot = Duration(Rational(1, 1000));
         tdm.wheel = Duration(Rational(4, 1000));
         tdm.ceil_term = 4;
         tdm.kappa = c.actors[2].rho;
         c.platform.push_back(tdm);
       },
       106,
       "kappa clause violated at actor 'vMP3': recorded kappa does not "
       "equal the tdm-latency-rate bound re-derived from the arbiter terms "
       "(3/125 s vs 9/125 s)\n"
       "kappa clause violated at actor 'vSRC': ceil term is not the ceiling "
       "of WCET/slot (4 vs 3)\n"},
  };
  for (const Golden& golden : goldens) {
    Certificate mutated = cert;
    golden.apply(mutated);
    const CertificateCheck check =
        analysis::check_certificate(mp3.graph, mutated);
    EXPECT_FALSE(check.ok) << golden.label;
    EXPECT_EQ(check.clauses_checked, golden.clauses) << golden.label;
    EXPECT_EQ(describe_all(check), golden.text) << golden.label;
  }
}

TEST(CertificateGoldens, ClauseCountsPinnedOnEveryGeneratorClass) {
  struct Expected {
    models::ModelClass model_class;
    std::uint64_t clauses[2];  // seeds 1 and 2
  };
  const Expected expected[] = {
      {models::ModelClass::Chain, {99, 97}},
      {models::ModelClass::ForkJoin, {165, 190}},
      {models::ModelClass::Cyclic, {184, 209}},
      {models::ModelClass::MultiConstraint, {149, 151}},
      {models::ModelClass::InteriorPinned, {124, 122}},
  };
  for (const Expected& row : expected) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      models::RandomModelSpec spec;
      spec.model_class = row.model_class;
      spec.seed = seed;
      const models::SyntheticModel model = models::make_random_model(spec);
      const GraphAnalysis sized =
          analysis::compute_buffer_capacities(model.graph, model.constraints);
      ASSERT_TRUE(sized.admissible);
      const CertificateCheck check = analysis::check_certificate(
          model.graph, analysis::make_certificate(model.graph, sized));
      EXPECT_TRUE(check.ok) << render(check);
      EXPECT_EQ(check.clauses_checked, row.clauses[seed - 1])
          << "class " << static_cast<int>(row.model_class) << " seed "
          << seed;
    }
  }
}

// ----------------------------------------- acceptance: no false rejects

// Every admissible analysis across the randomized sweep space must
// certify cleanly: 5 classes x seeds, sink+source placements, plain and
// faulted+headroom variants.  A single failure here is an analyzer/
// checker disagreement — exactly what the pair exists to surface.
TEST(CertificateAcceptance, RandomizedSweepsCertifyWithZeroFalseRejections) {
  for (const bool faulted : {false, true}) {
    sim::SweepSpec spec;
    spec.seeds_per_class = 12;
    spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
    spec.headroom_levels = faulted ? std::vector<std::int64_t>{0, 2}
                                   : std::vector<std::int64_t>{0};
    spec.observe_firings = 60;
    spec.faulted = faulted;
    spec.certify = true;
    const sim::FleetSweep sweep(spec);
    const sim::FleetReport report = sweep.run(2);
    EXPECT_EQ(report.certificate_failures, 0)
        << (faulted ? "faulted" : "plain") << " sweep";
    EXPECT_GT(report.certified, 0);
    for (const sim::FleetItemResult& item : report.items) {
      if (item.certificate_clauses > 0) {
        EXPECT_TRUE(item.certificate_ok)
            << "item " << item.item.index << ": " << item.detail;
      } else {
        // Only items the analysis itself refused may skip certification.
        EXPECT_TRUE(item.rejected) << "item " << item.item.index;
      }
    }
  }
}

// Certify-mode fleet reports keep the canonical-bytes guarantee.
TEST(CertificateAcceptance, CertifyModeCanonicalBytesAcrossThreadCounts) {
  sim::SweepSpec spec;
  spec.seeds_per_class = 6;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.observe_firings = 50;
  spec.certify = true;
  const sim::FleetSweep sweep(spec);
  const std::string one = sim::canonical_text(sweep.run(1));
  const std::string two = sim::canonical_text(sweep.run(2));
  const std::string eight = sim::canonical_text(sweep.run(8));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find(" certify=1 "), std::string::npos);
  EXPECT_NE(one.find("cert_failures=0"), std::string::npos);
}

// Item codec round-trips the certificate fields.
TEST(CertificateAcceptance, ItemCodecRoundTripsCertificateFields) {
  sim::FleetItemResult result;
  result.item.index = 7;
  result.item.model_class = models::ModelClass::Cyclic;
  result.item.seed_ordinal = 3;
  result.pass = true;
  result.certificate_clauses = 451;
  result.certificate_ok = true;
  const std::string line = sim::encode_item_line(result);
  sim::FleetItemResult decoded;
  ASSERT_TRUE(sim::decode_item_line(line, &decoded));
  EXPECT_EQ(decoded.certificate_clauses, 451);
  EXPECT_TRUE(decoded.certificate_ok);
  EXPECT_EQ(sim::encode_item_line(decoded), line);
}

// --------------------------------------- incremental + admission gating

TEST(CertificateIncremental, EngineCertifiesMp3AdmissionSequence) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const analysis::TopologySnapshot snapshot(mp3.graph);
  ASSERT_TRUE(snapshot.ok());
  analysis::AdmissionController controller(
      snapshot, analysis::ConstraintSet{mp3.constraint});
  // Every serviced state, accepted or rolled back to, is certified: its
  // certificate (ρ from the engine's overlay) passes the independent
  // checker.
  std::uint64_t clauses = 0;
  const auto expect_certified = [&](const char* step) {
    SCOPED_TRACE(step);
    analysis::CheckerOptions options;
    options.bind_parameters_to_graph = false;
    const analysis::CertificateCheck check = analysis::check_certificate(
        mp3.graph,
        analysis::make_certificate(mp3.graph, controller.analysis(),
                                   controller.engine().overlay()),
        options);
    EXPECT_TRUE(check.ok) << check.first_violation();
    clauses += check.clauses_checked;
  };

  // A retune within budget: accepted, and certified.
  const Duration original_rho = mp3.graph.actor(mp3.mp3).response_time;
  const analysis::AdmissionDecision ok_decision = controller.retune(
      mp3.mp3, Duration(original_rho.seconds() * Rational(1, 2)));
  EXPECT_TRUE(ok_decision.accepted);
  expect_certified("retune within budget");
  // A retune past the pacing budget: rejected on admissibility and
  // rolled back to a certified state.
  const analysis::AdmissionDecision bad_decision =
      controller.retune(mp3.mp3, seconds(Rational(1000)));
  EXPECT_FALSE(bad_decision.accepted);
  expect_certified("rejected retune");
  // A period move and its revert: both certified; the revert restores
  // the published numbers.
  const analysis::AdmissionDecision slower = controller.set_period(
      mp3.constraint.actor,
      Duration(mp3.constraint.period.seconds() * Rational(2)));
  EXPECT_TRUE(slower.accepted);
  expect_certified("slower period");
  const analysis::AdmissionDecision restore_period =
      controller.set_period(mp3.constraint.actor, mp3.constraint.period);
  EXPECT_TRUE(restore_period.accepted);
  expect_certified("period restored");
  const analysis::AdmissionDecision restore_rho =
      controller.retune(mp3.mp3, original_rho);
  EXPECT_TRUE(restore_rho.accepted);
  expect_certified("rho restored");
  EXPECT_GT(clauses, 0u);

  // The serviced state is the published shape again.
  EXPECT_EQ(controller.analysis().total_capacity,
            models::Mp3PaperNumbers::kVrdfCapacities[0] +
                models::Mp3PaperNumbers::kVrdfCapacities[1] +
                models::Mp3PaperNumbers::kVrdfCapacities[2]);
}

}  // namespace
}  // namespace vrdf
