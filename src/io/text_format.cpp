#include "io/text_format.hpp"

#include <algorithm>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rational.hpp"

namespace vrdf::io {

namespace {

using dataflow::RateSet;

[[noreturn]] void parse_error(std::size_t line_no, const std::string& message) {
  throw ModelError("line " + std::to_string(line_no) + ": " + message);
}

/// The whitespace set of the classic locale: the reader tokenizes on it
/// and the writer refuses names containing it, whatever the process
/// locale.
[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Checked base-10 integer with std::stoll's grammar (see
/// parse_integer): rejects non-numeric text, trailing garbage ("12abc")
/// and values outside int64 with a line-numbered diagnostic instead of
/// silently truncating the garbage suffix.
std::int64_t parse_int64(std::string_view text, std::size_t line_no,
                         const char* what) {
  std::int64_t value = 0;
  const auto [end, ec] = parse_integer(text, value);
  if (ec == std::errc::result_out_of_range) {
    parse_error(line_no,
                std::string(what) + " '" + std::string(text) +
                    "' is out of range");
  }
  if (ec != std::errc()) {
    parse_error(line_no, std::string("malformed ") + what + " '" +
                             std::string(text) + "'");
  }
  if (end != text.data() + text.size()) {
    parse_error(line_no, std::string("malformed ") + what + " '" +
                             std::string(text) + "' (trailing characters)");
  }
  return value;
}

/// Checked Rational::from_string: converts its ContractError /
/// OverflowError into a line-numbered parse diagnostic.
Rational parse_rational(std::string_view text, std::size_t line_no,
                        const char* what) {
  try {
    return Rational::from_string(text);
  } catch (const OverflowError&) {
    parse_error(line_no, std::string(what) + " '" + std::string(text) +
                             "' is out of range");
  } catch (const Error&) {
    parse_error(line_no, std::string("malformed ") + what + " '" +
                             std::string(text) + "'");
  }
}

/// "{a,b,...}" or "[lo,hi]", its items parsed into `values` (a buffer
/// the caller reuses).  Every comma-separated item must be a number: an
/// empty one ("{1,,2}", "{1,2,}") is rejected, as is a set RateSet would
/// refuse (a negative quantum, no positive quantum, an interval with
/// hi < lo).
RateSet parse_rate_set(std::string_view text, std::size_t line_no,
                       std::vector<std::int64_t>& values) {
  const auto fail = [&](const std::string& why) {
    parse_error(line_no, why + " '" + std::string(text) + "'");
  };
  if (text.size() < 3) {
    fail("malformed rate set");
  }
  const char open = text.front();
  const char close = text.back();
  const std::string_view body = text.substr(1, text.size() - 2);
  values.clear();
  for (std::size_t start = 0;;) {
    const std::size_t comma = body.find(',', start);
    const std::string_view item = body.substr(
        start, comma == std::string_view::npos ? comma : comma - start);
    if (item.empty()) {
      fail("empty item in rate set");
    }
    values.push_back(parse_int64(item, line_no, "rate value"));
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  const bool explicit_set = open == '{' && close == '}';
  if (!explicit_set && !(open == '[' && close == ']')) {
    parse_error(line_no, "rate sets are '{...}' or '[lo,hi]'");
  }
  if (!explicit_set && values.size() != 2) {
    parse_error(line_no, "an interval needs exactly two bounds");
  }
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  if (*lo < 0) {
    fail("negative quantum in rate set");
  }
  if (!explicit_set && values[1] < values[0]) {
    fail("interval bounds out of order in rate set");
  }
  if (*hi == 0) {
    fail("no positive quantum in rate set");
  }
  if (!explicit_set) {
    return RateSet::interval(values[0], values[1]);
  }
  return values.size() == 1 ? RateSet::singleton(values[0])
                            : RateSet::of(values);
}

/// Splits `line` on whitespace into views of the line buffer.
void split_ws(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
}

/// "key=value" accessor; returns empty when the token has another key.
std::optional<std::string_view> key_value(std::string_view token,
                                          std::string_view key) {
  if (token.size() > key.size() && token.starts_with(key) &&
      token[key.size()] == '=') {
    return token.substr(key.size() + 1);
  }
  return std::nullopt;
}

/// Sets one buffer attribute; a second occurrence on the same line is an
/// error, since neither value can be the one the author meant.
template <typename T>
void set_once(std::optional<T>& slot, T value, std::string_view key,
              std::size_t line_no) {
  if (slot.has_value()) {
    parse_error(line_no, "duplicate attribute '" + std::string(key) + "='");
  }
  slot = std::move(value);
}

}  // namespace

std::string write_chain(const dataflow::VrdfGraph& graph,
                        const analysis::ConstraintSet& constraints) {
  for (const dataflow::EdgeId e : graph.edges()) {
    VRDF_REQUIRE(graph.edge(e).paired.is_valid(),
                 "write_chain only serializes buffer-paired graphs");
  }
  // The format tokenizes on whitespace, strips '#' comments and keys
  // buffer endpoints on the literal "->" token, so a name containing any
  // of those would serialize into a document that reparses wrong (or off
  // by one token).  Reject at write time instead of emitting garbage.
  std::size_t name_bytes = 0;
  for (const dataflow::ActorId a : graph.actors()) {
    const std::string& name = graph.actor(a).name;
    const bool bad = name.empty() || name == "->" ||
                     name.find_first_of("#=") != std::string::npos ||
                     std::any_of(name.begin(), name.end(), is_space);
    VRDF_REQUIRE(!bad, "write_chain: actor name '" + name +
                           "' cannot be serialized (empty, \"->\", or "
                           "containing whitespace, '=' or '#')");
    name_bytes += name.size();
  }
  // Room for a typical document; the text is trimmed to its length at the
  // end, so callers that keep many documents hold no spare capacity.
  std::string out;
  out.reserve(16 + 3 * name_bytes + 32 * graph.actor_count() +
              64 * graph.buffers().size() + 32 * constraints.size());
  out += "vrdf-chain v1\n";
  for (const dataflow::ActorId a : graph.actors()) {
    const dataflow::Actor& actor = graph.actor(a);
    out += "actor ";
    out += actor.name;
    out += " rho=";
    actor.response_time.seconds().append_to(out);
    out += '\n';
  }
  for (const dataflow::BufferEdges& b : graph.buffers()) {
    const dataflow::Edge& data = graph.edge(b.data);
    out += "buffer ";
    out += graph.actor(data.source).name;
    out += " -> ";
    out += graph.actor(data.target).name;
    out += " pi=";
    data.production.append_to(out);
    out += " gamma=";
    data.consumption.append_to(out);
    // capacity= is the *total* container count (free + occupied by
    // initial data tokens); delta= carries the initial tokens of cyclic
    // back-edges so cyclic models round-trip.
    if (const std::int64_t capacity = graph.buffer_capacity(b);
        capacity != 0) {
      out += " capacity=";
      append_integer(out, capacity);
    }
    if (data.initial_tokens != 0) {
      out += " delta=";
      append_integer(out, data.initial_tokens);
    }
    out += '\n';
  }
  for (const analysis::ThroughputConstraint& c : constraints) {
    out += "constraint ";
    out += graph.actor(c.actor).name;
    out += " period=";
    c.period.seconds().append_to(out);
    out += '\n';
  }
  out.shrink_to_fit();
  return out;
}

ChainDocument read_chain(const std::string& text) {
  ChainDocument doc;
  std::vector<std::string_view> tokens;
  std::vector<std::int64_t> rate_values;
  std::size_t line_no = 0;
  bool header_seen = false;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t newline = text.find('\n', begin);
    const std::size_t end =
        newline == std::string::npos ? text.size() : newline;
    std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    split_ws(line, tokens);
    if (tokens.empty()) {
      continue;
    }
    if (!header_seen) {
      if (tokens.size() != 2 || tokens[0] != "vrdf-chain" || tokens[1] != "v1") {
        parse_error(line_no, "expected header 'vrdf-chain v1'");
      }
      header_seen = true;
      continue;
    }
    if (tokens[0] == "actor") {
      if (tokens.size() != 3) {
        parse_error(line_no, "expected 'actor <name> rho=<seconds>'");
      }
      const auto rho = key_value(tokens[2], "rho");
      if (!rho.has_value()) {
        parse_error(line_no, "missing rho=");
      }
      const Duration response_time(parse_rational(*rho, line_no, "rho"));
      // The names write_chain refuses would not survive a round trip.
      if (tokens[1] == "->" || tokens[1].find('=') != std::string_view::npos) {
        parse_error(line_no, "actor name '" + std::string(tokens[1]) +
                                 "' cannot be serialized (\"->\" or "
                                 "containing '=')");
      }
      if (!response_time.is_positive()) {
        parse_error(line_no, "rho must be positive");
      }
      // The name is non-empty and rho positive, so the one contract
      // add_actor can still refuse is a taken name; its own index lookup
      // is the only one.
      try {
        (void)doc.graph.add_actor(std::string(tokens[1]), response_time);
      } catch (const ContractError&) {
        parse_error(line_no,
                    "duplicate actor '" + std::string(tokens[1]) + "'");
      }
    } else if (tokens[0] == "buffer") {
      if (tokens.size() < 6 || tokens[2] != "->") {
        parse_error(line_no,
                    "expected 'buffer <p> -> <c> pi=<set> gamma=<set> "
                    "[capacity=<n>] [delta=<n>]'");
      }
      const auto producer = doc.graph.find_actor(tokens[1]);
      const auto consumer = doc.graph.find_actor(tokens[3]);
      if (!producer.has_value() || !consumer.has_value()) {
        parse_error(line_no, "buffer references an unknown actor");
      }
      std::optional<RateSet> pi;
      std::optional<RateSet> gamma;
      std::optional<std::int64_t> capacity;
      std::optional<std::int64_t> delta;
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        if (const auto v = key_value(tokens[i], "pi")) {
          set_once(pi, parse_rate_set(*v, line_no, rate_values), "pi",
                   line_no);
        } else if (const auto g = key_value(tokens[i], "gamma")) {
          set_once(gamma, parse_rate_set(*g, line_no, rate_values), "gamma",
                   line_no);
        } else if (const auto c = key_value(tokens[i], "capacity")) {
          set_once(capacity, parse_int64(*c, line_no, "capacity"), "capacity",
                   line_no);
        } else if (const auto d = key_value(tokens[i], "delta")) {
          set_once(delta, parse_int64(*d, line_no, "delta"), "delta",
                   line_no);
        } else {
          parse_error(line_no,
                      "unknown attribute '" + std::string(tokens[i]) + "'");
        }
      }
      if (!pi.has_value() || !gamma.has_value()) {
        parse_error(line_no, "buffer needs pi= and gamma=");
      }
      const std::int64_t total = capacity.value_or(0);
      const std::int64_t tokens_at_start = delta.value_or(0);
      if (tokens_at_start < 0 || total < 0 ||
          (total != 0 && total < tokens_at_start)) {
        parse_error(line_no, "capacity must cover delta (initial tokens)");
      }
      (void)doc.graph.add_buffer(*producer, *consumer, std::move(*pi),
                                 std::move(*gamma), total, tokens_at_start);
    } else if (tokens[0] == "constraint") {
      if (tokens.size() != 3) {
        parse_error(line_no, "expected 'constraint <actor> period=<seconds>'");
      }
      const auto actor = doc.graph.find_actor(tokens[1]);
      if (!actor.has_value()) {
        parse_error(line_no, "constraint references an unknown actor");
      }
      for (const analysis::ThroughputConstraint& existing : doc.constraints) {
        if (existing.actor == *actor) {
          parse_error(line_no, "duplicate constraint for actor '" +
                                   std::string(tokens[1]) + "'");
        }
      }
      const auto period = key_value(tokens[2], "period");
      if (!period.has_value()) {
        parse_error(line_no, "missing period=");
      }
      doc.constraints.push_back(analysis::ThroughputConstraint{
          *actor, Duration(parse_rational(*period, line_no, "period"))});
    } else {
      parse_error(line_no,
                  "unknown directive '" + std::string(tokens[0]) + "'");
    }
  }
  if (!header_seen) {
    throw ModelError("empty document: expected header 'vrdf-chain v1'");
  }
  return doc;
}

}  // namespace vrdf::io
