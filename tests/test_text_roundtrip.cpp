// Text-format round-trip identity: write → parse → write must reproduce
// the document byte for byte across every random generator — constraints,
// capacity= (installed via apply_capacities) and delta= (cyclic
// back-edge tokens) included — plus the write-time rejection of actor
// names the whitespace-tokenized format cannot represent.
#include <gtest/gtest.h>

#include <regex>

#include "analysis/buffer_sizing.hpp"
#include "io/text_format.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace vrdf::io {
namespace {

using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

/// Sizes the graph (when admissible), serializes, reparses, reserializes
/// and checks byte identity plus graph-level equality of the reparse.
void expect_round_trip_identity(VrdfGraph graph,
                                const analysis::ConstraintSet& constraints,
                                const std::string& label) {
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(graph, constraints);
  ASSERT_TRUE(sized.admissible)
      << label << ": " << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  analysis::apply_capacities(graph, sized);

  const std::string text = write_chain(graph, constraints);
  const ChainDocument parsed = read_chain(text);
  EXPECT_EQ(write_chain(parsed.graph, parsed.constraints), text) << label;

  // The reparse is the same model, not just the same bytes.
  ASSERT_EQ(parsed.graph.actor_count(), graph.actor_count()) << label;
  ASSERT_EQ(parsed.constraints.size(), constraints.size()) << label;
  const analysis::GraphAnalysis reparsed =
      analysis::compute_buffer_capacities(parsed.graph, parsed.constraints);
  ASSERT_TRUE(reparsed.admissible) << label;
  EXPECT_EQ(reparsed.total_capacity, sized.total_capacity) << label;
}

TEST(TextRoundTrip, RandomChains) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomChainSpec spec;
    spec.seed = seed;
    spec.length = 3 + seed % 4;
    spec.source_constrained = seed % 2 == 0;
    const models::SyntheticChain model = models::make_random_chain(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "chain seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomForkJoins) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomForkJoinSpec spec;
    spec.seed = seed;
    spec.stages = 1 + seed % 2;
    spec.source_constrained = seed % 2 == 0;
    const models::SyntheticChain model = models::make_random_fork_join(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "fork-join seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomCyclics) {
  // delta= lines carry the back-edge tokens through the round trip.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomCyclicSpec spec;
    spec.base.seed = seed;
    const models::SyntheticChain model = models::make_random_cyclic(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "cyclic seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomMultiSinks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomMultiSinkSpec spec;
    spec.seed = seed;
    spec.sinks = 2 + seed % 3;
    const models::SyntheticMultiConstraint model =
        models::make_random_multi_sink(spec);
    expect_round_trip_identity(model.graph, model.constraints,
                               "multi-sink seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomInteriorPins) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomInteriorPinSpec spec;
    spec.seed = seed;
    spec.upstream_length = 1 + seed % 3;
    spec.downstream_length = 1 + (seed / 2) % 3;
    const models::SyntheticChain model =
        models::make_random_interior_pinned(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "interior seed " + std::to_string(seed));
  }
}

/// A copy of `graph` in which every second interval rate set becomes the
/// explicit set of its bounds and midpoint, so a corpus written from it
/// carries multi-valued explicit sets (no generator draws one).
VrdfGraph with_explicit_sets(const VrdfGraph& graph) {
  VrdfGraph out;
  for (const ActorId a : graph.actors()) {
    (void)out.add_actor(graph.actor(a).name, graph.actor(a).response_time);
  }
  std::size_t intervals = 0;
  const auto rewrite = [&intervals](const RateSet& set) {
    if (set.to_string().front() != '[' || intervals++ % 2 == 0) {
      return set;
    }
    return RateSet::of({set.min(), (set.min() + set.max()) / 2, set.max()});
  };
  for (const dataflow::BufferEdges& b : graph.buffers()) {
    const dataflow::Edge& data = graph.edge(b.data);
    (void)out.add_buffer(data.source, data.target, rewrite(data.production),
                         rewrite(data.consumption), graph.buffer_capacity(b),
                         data.initial_tokens);
  }
  return out;
}

TEST(TextRoundTrip, WriterBytesPinnedByDigest) {
  // write_chain over eight models of each generator class, with installed
  // capacities, varied response fractions and headroom, hashed together.
  // The corpus must carry every construct the writer renders: intervals,
  // multi-valued explicit sets, capacity=, delta=, and non-integer rho=
  // and period=.
  std::string corpus;
  for (const models::ModelClass model_class :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
        models::ModelClass::InteriorPinned}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      models::RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      spec.response_fraction = Rational(1 + seed % 3, 3);
      spec.capacity_headroom = static_cast<std::int64_t>(seed % 3);
      spec.source_constrained = seed % 2 == 0;
      const models::SyntheticModel model = models::make_random_model(spec);
      const std::string text =
          write_chain(with_explicit_sets(model.graph), model.constraints);
      // The returned text holds no spare capacity: callers keep many
      // documents alive at once.
      EXPECT_EQ(text.capacity(), text.size());
      corpus += text;
    }
  }
  const auto contains = [&corpus](const std::string& needle) {
    return corpus.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(contains("pi=[") || contains("gamma=["));
  EXPECT_TRUE(std::regex_search(corpus, std::regex(R"(=\{[0-9]+,[0-9]+,)")));
  EXPECT_TRUE(contains(" capacity="));
  EXPECT_TRUE(contains(" delta="));
  EXPECT_TRUE(contains(" rho=1/"));
  EXPECT_TRUE(contains(" rho=") && contains("/3000\n"));
  EXPECT_TRUE(contains(" period=1/"));
  // 64-bit FNV-1a of the corpus; a mismatch prints its size.
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char byte : corpus) {
    fnv = (fnv ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(fnv, 0x96703707a47d5f66ULL) << corpus.size() << " bytes";
}

TEST(TextRoundTrip, UnserializableActorNamesRejectedAtWriteTime) {
  // A name with whitespace / '=' / '#' / "->" would tokenize wrong on
  // reparse (or truncate as a comment); write_chain must throw, not emit
  // a document that silently means something else.
  const auto graph_with_name = [](const std::string& name) {
    VrdfGraph g;
    const ActorId a = g.add_actor(name, milliseconds(Rational(1)));
    const ActorId b = g.add_actor("ok", milliseconds(Rational(1)));
    (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
    return g;
  };
  for (const std::string bad :
       {"two words", "tab\tname", "a=b", "->", "a#b", ""}) {
    EXPECT_THROW(
        (void)write_chain(graph_with_name(bad), analysis::ConstraintSet{}),
        ContractError)
        << "name: '" << bad << "'";
  }
  // Benign punctuation still serializes.
  const std::string ok =
      write_chain(graph_with_name("dsp.core-1"), analysis::ConstraintSet{});
  EXPECT_NE(ok.find("dsp.core-1"), std::string::npos);
  const ChainDocument parsed = read_chain(ok);
  EXPECT_TRUE(parsed.graph.find_actor("dsp.core-1").has_value());
}

TEST(TextRoundTrip, WriterAndReaderAgreeOnWhitespace) {
  // Writer and reader share one whitespace set, the classic locale's: a
  // name write_chain accepts reparses as the same single token, and the
  // bytes it refuses are exactly that set plus '#' and '='.
  const std::string refused = std::string(" \t\n\v\f\r#=");
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const std::string name = std::string("a") + c + "b";
    VrdfGraph g;
    const ActorId a = g.add_actor(name, milliseconds(Rational(1)));
    const ActorId b = g.add_actor("ok", milliseconds(Rational(1)));
    (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
    std::string text;
    try {
      text = write_chain(g, analysis::ConstraintSet{});
    } catch (const ContractError&) {
      EXPECT_NE(refused.find(c), std::string::npos) << "byte " << byte;
      continue;
    }
    EXPECT_EQ(refused.find(c), std::string::npos) << "byte " << byte;
    const ChainDocument parsed = read_chain(text);
    ASSERT_EQ(parsed.graph.actor_count(), 2u) << "byte " << byte;
    EXPECT_EQ(parsed.graph.actor(ActorId(0)).name, name) << "byte " << byte;
  }
}

// ------------------------------------------------ parser rejections

/// The ModelError text read_chain throws for `text`, or "" if it accepts.
std::string rejection(const std::string& text) {
  try {
    (void)read_chain(text);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

const std::string kTwoActors =
    "vrdf-chain v1\n"
    "actor a rho=1/1000\n"
    "actor b rho=1/1000\n";

TEST(TextRoundTrip, EmptyRateSetItemsRejectedNamingTheLiteral) {
  // An empty item is an error wherever it sits, trailing included.
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={1,2,} gamma={1}\n"),
            "line 4: empty item in rate set '{1,2,}'");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={1} gamma=[1,2,]\n"),
            "line 4: empty item in rate set '[1,2,]'");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={1,,2} gamma={1}\n"),
            "line 4: empty item in rate set '{1,,2}'");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={,} gamma={1}\n"),
            "line 4: empty item in rate set '{,}'");
  // A malformed item ahead of the empty one is still named first.
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={x,} gamma={1}\n"),
            "line 4: malformed rate value 'x'");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={1,2} gamma=[1,2]\n"),
            "");
}

TEST(TextRoundTrip, RepeatedBufferAttributeRejected) {
  // Each attribute may appear once per buffer line.
  EXPECT_EQ(rejection(kTwoActors +
                      "buffer a -> b pi={1} gamma={2} pi={3}\n"),
            "line 4: duplicate attribute 'pi='");
  EXPECT_EQ(rejection(kTwoActors +
                      "buffer a -> b gamma={2} pi={1} gamma={2}\n"),
            "line 4: duplicate attribute 'gamma='");
  EXPECT_EQ(rejection(kTwoActors +
                      "buffer a -> b pi={1} gamma={2} capacity=4 "
                      "capacity=4\n"),
            "line 4: duplicate attribute 'capacity='");
  EXPECT_EQ(rejection(kTwoActors +
                      "buffer a -> b pi={1} delta=0 gamma={2} delta=1\n"),
            "line 4: duplicate attribute 'delta='");
}

TEST(TextRoundTrip, ConstructorContractsReportedOnTheirLine) {
  // What the graph and RateSet constructors would refuse is a parse error
  // on its line, and so is a name write_chain could not emit.
  EXPECT_EQ(rejection(kTwoActors + "actor a rho=1\n"),
            "line 4: duplicate actor 'a'");
  EXPECT_EQ(rejection(kTwoActors + "actor c rho=0\n"),
            "line 4: rho must be positive");
  EXPECT_EQ(rejection(kTwoActors + "actor c=d rho=1\n"),
            "line 4: actor name 'c=d' cannot be serialized (\"->\" or "
            "containing '=')");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={-1,2} gamma={1}\n"),
            "line 4: negative quantum in rate set '{-1,2}'");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi={1} gamma={0}\n"),
            "line 4: no positive quantum in rate set '{0}'");
  EXPECT_EQ(rejection(kTwoActors + "buffer a -> b pi=[3,1] gamma={1}\n"),
            "line 4: interval bounds out of order in rate set '[3,1]'");
}

}  // namespace
}  // namespace vrdf::io
