// In-tree fuzz of the chain text format: a deterministic byte/token
// mutator over write_chain corpora from all five model generators, with
// no external fuzzing engine.
//
// Properties, for every mutated input x:
//  * read_chain(x) either throws a ModelError whose message starts with
//    "line N: " (N a line of x) — or, for a document with no non-blank
//    line, the one document-level "empty document" error — or it accepts;
//  * when it accepts, w = write_chain(read_chain(x)) is a fixed point:
//    write_chain(read_chain(w)) == w;
//  * the parser agrees with a test-local copy of the stream-based
//    tokenizer it replaced (reference_read_chain below): the same accept /
//    reject decision, the same bytes when both accept, and the same
//    ModelError text when both reject.  Deliberate departures:
//      - "empty item in rate set" (the reference reads "{1,2,}" as
//        "{1,2}"), "duplicate attribute" (the reference keeps the last
//        pi=/gamma=/capacity=/delta=) and unserializable actor names
//        ('=' or "->", which write_chain refuses) reject inputs the
//        reference accepted or rejected no earlier;
//      - inputs the reference lets escape as an unnumbered ContractError
//        from the graph or RateSet constructors (repeated actor name,
//        non-positive rho, negative / all-zero quanta, reversed interval)
//        are line-numbered ModelErrors on the same line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/types.hpp"
#include "io/text_format.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace vrdf::io {
namespace {

using dataflow::RateSet;

// ------------------------------------------------ reference tokenizer
//
// A stream-based (istringstream, std::getline, std::stoll) read_chain,
// the reference the hand tokenizer is compared against.  A ContractError escaping the graph or
// RateSet constructors is tagged with its line so the differential check
// can require the new parser to report that same line.

struct ReferenceContractError {
  std::size_t line_no;
  std::string what;
};

[[noreturn]] void ref_error(std::size_t line_no, const std::string& message) {
  throw ModelError("line " + std::to_string(line_no) + ": " + message);
}

std::int64_t ref_int64(const std::string& text, std::size_t line_no,
                       const char* what) {
  std::size_t consumed = 0;
  try {
    const std::int64_t value = std::stoll(text, &consumed);
    if (consumed != text.size()) {
      ref_error(line_no, std::string("malformed ") + what + " '" + text +
                             "' (trailing characters)");
    }
    return value;
  } catch (const std::invalid_argument&) {
    ref_error(line_no, std::string("malformed ") + what + " '" + text + "'");
  } catch (const std::out_of_range&) {
    ref_error(line_no, std::string(what) + " '" + text + "' is out of range");
  }
}

Rational ref_rational(const std::string& text, std::size_t line_no,
                      const char* what) {
  try {
    return Rational::from_string(text);
  } catch (const OverflowError&) {
    ref_error(line_no, std::string(what) + " '" + text + "' is out of range");
  } catch (const Error&) {
    ref_error(line_no, std::string("malformed ") + what + " '" + text + "'");
  }
}

RateSet ref_rate_set(const std::string& text, std::size_t line_no) {
  if (text.size() < 3) {
    ref_error(line_no, "malformed rate set '" + text + "'");
  }
  const char open = text.front();
  const char close = text.back();
  const std::string body = text.substr(1, text.size() - 2);
  std::vector<std::int64_t> values;
  std::istringstream is(body);
  std::string item;
  while (std::getline(is, item, ',')) {
    values.push_back(ref_int64(item, line_no, "rate value"));
  }
  if (open == '{' && close == '}') {
    if (values.empty()) {
      ref_error(line_no, "empty rate set");
    }
    return RateSet::of(values);
  }
  if (open == '[' && close == ']') {
    if (values.size() != 2) {
      ref_error(line_no, "an interval needs exactly two bounds");
    }
    return RateSet::interval(values[0], values[1]);
  }
  ref_error(line_no, "rate sets are '{...}' or '[lo,hi]'");
}

std::vector<std::string> ref_split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    out.push_back(token);
  }
  return out;
}

std::optional<std::string> ref_key_value(const std::string& token,
                                         const std::string& key) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) == 0) {
    return token.substr(prefix.size());
  }
  return std::nullopt;
}

void ref_line(ChainDocument& doc, const std::vector<std::string>& tokens,
              std::size_t line_no) {
  if (tokens[0] == "actor") {
    if (tokens.size() != 3) {
      ref_error(line_no, "expected 'actor <name> rho=<seconds>'");
    }
    const auto rho = ref_key_value(tokens[2], "rho");
    if (!rho.has_value()) {
      ref_error(line_no, "missing rho=");
    }
    (void)doc.graph.add_actor(tokens[1],
                              Duration(ref_rational(*rho, line_no, "rho")));
  } else if (tokens[0] == "buffer") {
    if (tokens.size() < 6 || tokens[2] != "->") {
      ref_error(line_no,
                "expected 'buffer <p> -> <c> pi=<set> gamma=<set> "
                "[capacity=<n>] [delta=<n>]'");
    }
    const auto producer = doc.graph.find_actor(tokens[1]);
    const auto consumer = doc.graph.find_actor(tokens[3]);
    if (!producer.has_value() || !consumer.has_value()) {
      ref_error(line_no, "buffer references an unknown actor");
    }
    std::optional<RateSet> pi;
    std::optional<RateSet> gamma;
    std::int64_t capacity = 0;
    std::int64_t delta = 0;
    for (std::size_t i = 4; i < tokens.size(); ++i) {
      if (const auto v = ref_key_value(tokens[i], "pi")) {
        pi = ref_rate_set(*v, line_no);
      } else if (const auto g = ref_key_value(tokens[i], "gamma")) {
        gamma = ref_rate_set(*g, line_no);
      } else if (const auto c = ref_key_value(tokens[i], "capacity")) {
        capacity = ref_int64(*c, line_no, "capacity");
      } else if (const auto d = ref_key_value(tokens[i], "delta")) {
        delta = ref_int64(*d, line_no, "delta");
      } else {
        ref_error(line_no, "unknown attribute '" + tokens[i] + "'");
      }
    }
    if (!pi.has_value() || !gamma.has_value()) {
      ref_error(line_no, "buffer needs pi= and gamma=");
    }
    if (delta < 0 || capacity < 0 || (capacity != 0 && capacity < delta)) {
      ref_error(line_no, "capacity must cover delta (initial tokens)");
    }
    (void)doc.graph.add_buffer(*producer, *consumer, *pi, *gamma, capacity,
                               delta);
  } else if (tokens[0] == "constraint") {
    if (tokens.size() != 3) {
      ref_error(line_no, "expected 'constraint <actor> period=<seconds>'");
    }
    const auto actor = doc.graph.find_actor(tokens[1]);
    if (!actor.has_value()) {
      ref_error(line_no, "constraint references an unknown actor");
    }
    for (const analysis::ThroughputConstraint& existing : doc.constraints) {
      if (existing.actor == *actor) {
        ref_error(line_no,
                  "duplicate constraint for actor '" + tokens[1] + "'");
      }
    }
    const auto period = ref_key_value(tokens[2], "period");
    if (!period.has_value()) {
      ref_error(line_no, "missing period=");
    }
    doc.constraints.push_back(analysis::ThroughputConstraint{
        *actor, Duration(ref_rational(*period, line_no, "period"))});
  } else {
    ref_error(line_no, "unknown directive '" + tokens[0] + "'");
  }
}

ChainDocument reference_read_chain(const std::string& text) {
  ChainDocument doc;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    const std::vector<std::string> tokens = ref_split_ws(line);
    if (tokens.empty()) {
      continue;
    }
    if (!header_seen) {
      if (tokens.size() != 2 || tokens[0] != "vrdf-chain" ||
          tokens[1] != "v1") {
        ref_error(line_no, "expected header 'vrdf-chain v1'");
      }
      header_seen = true;
      continue;
    }
    try {
      ref_line(doc, tokens, line_no);
    } catch (const ContractError& error) {
      throw ReferenceContractError{line_no, error.what()};
    }
  }
  if (!header_seen) {
    throw ModelError("empty document: expected header 'vrdf-chain v1'");
  }
  return doc;
}

// ----------------------------------------------------------- outcomes

constexpr std::string_view kEmptyDocument =
    "empty document: expected header 'vrdf-chain v1'";

/// What one parser made of one input.
struct Outcome {
  enum class Kind { Accepted, ModelRejected, ContractRejected };
  Kind kind = Kind::Accepted;
  std::string text;        // canonical write_chain bytes, or the message
  std::size_t line_no = 0; // the rejecting line (0: document-level)
};

/// "line N: ..." -> N; 0 when the message carries no line prefix.
std::size_t line_of(const std::string& message) {
  if (message.rfind("line ", 0) != 0) {
    return 0;
  }
  std::size_t n = 0;
  std::size_t i = 5;
  while (i < message.size() && message[i] >= '0' && message[i] <= '9') {
    n = n * 10 + static_cast<std::size_t>(message[i] - '0');
    ++i;
  }
  return message.compare(i, 2, ": ") == 0 ? n : 0;
}

std::string body_of(const std::string& message) {
  const std::size_t colon = message.find(": ");
  return colon == std::string::npos ? message : message.substr(colon + 2);
}

bool starts_with_any(const std::string& body,
                     std::initializer_list<std::string_view> prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](std::string_view p) { return body.starts_with(p); });
}

// ------------------------------------------------------------ mutator

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += util::kGoldenGamma;
    return util::mix64(state_);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }

  std::string mutate(std::string text) {
    const std::size_t rounds = 1 + below(4);
    for (std::size_t r = 0; r < rounds; ++r) {
      text = below(2) == 0 ? mutate_bytes(std::move(text))
                           : mutate_tokens(std::move(text));
      if (text.size() > 4096) {
        text.resize(4096);
      }
    }
    return text;
  }

 private:
  char interesting_byte() {
    static constexpr std::string_view kBytes =
        "{}[],=-+#>/.\n \t\r\v\f0123456789abz";
    if (below(8) == 0) {
      return static_cast<char>(below(256));
    }
    return kBytes[below(kBytes.size())];
  }

  std::string mutate_bytes(std::string text) {
    const std::size_t at = below(text.size() + 1);
    switch (below(5)) {
      case 0:  // replace
        if (at < text.size()) {
          text[at] = interesting_byte();
        }
        break;
      case 1:  // insert
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    interesting_byte());
        break;
      case 2:  // delete a short span
        if (at < text.size()) {
          text.erase(at, 1 + below(4));
        }
        break;
      case 3: {  // duplicate a short span
        if (at < text.size()) {
          const std::string span = text.substr(at, 1 + below(12));
          text.insert(below(text.size() + 1), span);
        }
        break;
      }
      default:  // truncate
        text.resize(at);
        break;
    }
    return text;
  }

  std::string mutate_tokens(std::string text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
      lines.push_back(line);
    }
    if (lines.empty()) {
      return "vrdf-chain v1\n" + std::string(kTokenList[below(std::size(kTokenList))]);
    }
    const std::size_t l = below(lines.size());
    switch (below(6)) {
      case 0:  // duplicate a line
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(below(
                                         lines.size() + 1)),
                     lines[l]);
        break;
      case 1:  // delete a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(l));
        break;
      case 2:  // swap two lines
        std::swap(lines[l], lines[below(lines.size())]);
        break;
      default: {  // replace, insert, delete or duplicate one token
        std::vector<std::string> tokens;
        std::istringstream ts(lines[l]);
        for (std::string token; ts >> token;) {
          tokens.push_back(token);
        }
        const std::size_t t = below(tokens.size() + 1);
        const std::string pick(kTokenList[below(std::size(kTokenList))]);
        switch (below(4)) {
          case 0:
            if (t < tokens.size()) {
              tokens[t] = pick;
            }
            break;
          case 1:
            tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                          pick);
            break;
          case 2:
            if (t < tokens.size()) {
              tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
            }
            break;
          default:
            if (t < tokens.size()) {
              tokens.push_back(tokens[t]);
            }
            break;
        }
        std::string joined;
        for (const std::string& token : tokens) {
          joined += (joined.empty() ? "" : " ") + token;
        }
        lines[l] = joined;
        break;
      }
    }
    std::string out;
    for (const std::string& line : lines) {
      out += line + '\n';
    }
    return out;
  }

  static constexpr std::string_view kTokenList[] = {
      "actor", "buffer", "constraint", "->", "vrdf-chain", "v1", "#",
      "rho=1/1000", "rho=0", "rho=-1", "rho=1/0", "rho=0.5", "rho=1.",
      "rho=9223372036854775808", "rho=-9223372036854775808.5",
      "period=3/125", "period=0", "pi={1}",
      "pi={1,2,}", "pi={,}", "pi={1,,2}", "pi=[1,2,]", "pi=[3,1]",
      "pi={0}", "pi={-1,2}", "pi=[0,0]", "pi=[1,9223372036854775807]",
      "gamma={2,3}", "gamma=[0,4]", "gamma=", "gamma={+2}", "gamma={2x}",
      "capacity=7", "capacity=-1", "capacity=99999999999999999999",
      "capacity=+-3", "pi={+1,-+2}",
      "delta=1", "delta=2", "pi=", "x=1", "a=b", "name", "=",
      "pi={1,2}", "gamma={1}", "capacity=0",
  };

  std::uint64_t state_;
};

// ------------------------------------------------------------- corpus

std::vector<std::string> corpus() {
  const models::ModelClass classes[] = {
      models::ModelClass::Chain, models::ModelClass::ForkJoin,
      models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
      models::ModelClass::InteriorPinned};
  std::vector<std::string> docs;
  for (const models::ModelClass model_class : classes) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      models::RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      const models::SyntheticModel model = models::make_random_model(spec);
      docs.push_back(write_chain(model.graph, model.constraints));
    }
  }
  return docs;
}

// ------------------------------------------------------------- checks

Outcome run_new(const std::string& input) {
  try {
    const ChainDocument doc = read_chain(input);
    return {Outcome::Kind::Accepted,
            write_chain(doc.graph, doc.constraints), 0};
  } catch (const ModelError& error) {
    return {Outcome::Kind::ModelRejected, error.what(), line_of(error.what())};
  }
}

Outcome run_reference(const std::string& input) {
  try {
    const ChainDocument doc = reference_read_chain(input);
    // A name write_chain refuses: the reference accepted the document.
    try {
      return {Outcome::Kind::Accepted,
              write_chain(doc.graph, doc.constraints), 0};
    } catch (const ContractError&) {
      return {Outcome::Kind::Accepted, "(unwritable)", 0};
    }
  } catch (const ModelError& error) {
    return {Outcome::Kind::ModelRejected, error.what(), line_of(error.what())};
  } catch (const ReferenceContractError& error) {
    return {Outcome::Kind::ContractRejected, error.what, error.line_no};
  }
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
  int fixed = 0;    // new rejections of inputs the reference let through
  int wrapped = 0;  // reference ContractErrors now line-numbered
};

void check_one(const std::string& input, Tally& tally) {
  SCOPED_TRACE("input:\n" + input);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(input.begin(), input.end(), '\n')) +
      1;
  Outcome fresh;
  try {
    fresh = run_new(input);
  } catch (const std::exception& error) {
    FAIL() << "read_chain/write_chain escaped with a non-ModelError: "
           << error.what();
  }
  const Outcome ref = run_reference(input);

  if (fresh.kind == Outcome::Kind::Accepted) {
    ++tally.accepted;
    // Fixed point: the canonical bytes reparse to themselves.
    const ChainDocument again = read_chain(fresh.text);
    ASSERT_EQ(write_chain(again.graph, again.constraints), fresh.text);
    // The reference agrees byte for byte.
    ASSERT_EQ(ref.kind, Outcome::Kind::Accepted) << ref.text;
    ASSERT_EQ(ref.text, fresh.text);
    return;
  }

  ++tally.rejected;
  if (fresh.line_no == 0) {
    ASSERT_EQ(fresh.text, kEmptyDocument);
  } else {
    ASSERT_LE(fresh.line_no, lines) << fresh.text;
  }
  const std::string body = body_of(fresh.text);
  if (starts_with_any(body, {"empty item in rate set",
                             "duplicate attribute", "actor name '"})) {
    // A bug fix: the reference accepted, or failed no earlier.
    ++tally.fixed;
    if (ref.kind != Outcome::Kind::Accepted) {
      ASSERT_GE(ref.line_no, fresh.line_no) << ref.text;
    }
    return;
  }
  if (ref.kind == Outcome::Kind::ContractRejected) {
    ++tally.wrapped;
    ASSERT_EQ(ref.line_no, fresh.line_no) << ref.text << "\nvs " << fresh.text;
    ASSERT_TRUE(starts_with_any(
        body, {"duplicate actor '", "rho must be positive",
               "negative quantum in rate set",
               "no positive quantum in rate set",
               "interval bounds out of order in rate set"}))
        << fresh.text;
    return;
  }
  ASSERT_EQ(ref.kind, Outcome::Kind::ModelRejected) << ref.text;
  ASSERT_EQ(ref.text, fresh.text);
}

TEST(TextFuzz, MutatedCorporaRoundTripOrFailOnANumberedLine) {
  const std::vector<std::string> docs = corpus();
  ASSERT_EQ(docs.size(), 10u);
  Mutator mutator(20240517);
  Tally tally;
  constexpr int kMutations = 100000;
  for (int i = 0; i < kMutations; ++i) {
    const std::string& seed_doc = docs[mutator.below(docs.size())];
    check_one(mutator.mutate(seed_doc), tally);
    if (HasFatalFailure()) {
      return;  // one minimal report, not a cascade
    }
  }
  // The mutator reached every outcome class, including both fixes.
  EXPECT_GT(tally.accepted, 1000);
  EXPECT_GT(tally.rejected, 10000);
  EXPECT_GT(tally.fixed, 100);
  EXPECT_GT(tally.wrapped, 100);
}

TEST(TextFuzz, CorpusDocumentsAreFixedPoints) {
  for (const std::string& doc : corpus()) {
    Tally tally;
    check_one(doc, tally);
    EXPECT_EQ(tally.accepted, 1);
  }
}

}  // namespace
}  // namespace vrdf::io
