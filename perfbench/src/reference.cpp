#include "reference.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "bench.hpp"

namespace bench {

namespace {

constexpr int kActors = 512;

// Runs allocate from kArenas fixed arenas in turn, so each run touches the
// same memory in the same order as the run kArenas before it, and its time
// depends on the host alone.  Together the arenas exceed one core's L2, so
// like a request of the workloads each run finds its data in the shared
// cache, where the other tenants' load shows.  Only the benchmark's caller
// thread runs the kernel.
constexpr std::size_t kArenas = 16;
constexpr std::size_t kArenaBytes = 1 << 19;
alignas(64) std::byte g_arenas[kArenas][kArenaBytes];
std::size_t g_next_arena = 0;
volatile std::uint64_t g_sink = 0;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void append(std::pmr::string& text, std::uint64_t value, char separator) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  text.append(buf, end);
  text.push_back(separator);
}

const char* parse(const char* p, const char* end, std::int64_t& value) {
  return std::from_chars(p, end, value).ptr + 1;  // skip the separator
}

std::uint64_t kernel() {
  std::pmr::monotonic_buffer_resource arena(g_arenas[g_next_arena], kArenaBytes,
                                            std::pmr::null_memory_resource());
  g_next_arena = (g_next_arena + 1) % kArenas;
  // A model-like text: one line per actor with a rate and a successor.
  std::pmr::string text(&arena);
  text.reserve(static_cast<std::size_t>(kActors) * 32);
  std::uint64_t h = 1;
  for (int i = 0; i < kActors; ++i) {
    h = mix(h + static_cast<std::uint64_t>(i));
    text.push_back('a');
    append(text, static_cast<std::uint64_t>(i), ' ');
    append(text, h % 997 + 1, '/');
    append(text, (h >> 16) % 991 + 1, ' ');
    append(text, (h >> 32) % kActors, '\n');
  }

  struct Record {
    std::int64_t num = 0;
    std::int64_t den = 1;
    std::int64_t next = 0;
  };
  std::pmr::map<std::pmr::string, Record> records(&arena);
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const char* space = std::find(p, end, ' ');
    std::pmr::string name(p, space, &arena);
    Record record;
    p = parse(space + 1, end, record.num);
    p = parse(p, end, record.den);
    p = parse(p, end, record.next);
    records.emplace(std::move(name), record);
  }

  // Exact sum of the rates, reduced by gcd after every step.
  std::pmr::vector<std::pmr::vector<int>> successors(kActors, &arena);
  __int128 num = 0;
  __int128 den = 1;
  for (const auto& [name, record] : records) {
    std::int64_t from = 0;
    std::from_chars(name.data() + 1, name.data() + name.size(), from);
    successors[static_cast<std::size_t>(from)].push_back(
        static_cast<int>(record.next));
    const __int128 n = num * record.den + record.num * den;
    const __int128 d = den * record.den;
    __int128 a = n < 0 ? -n : n;
    __int128 b = d;
    while (b != 0) {
      const __int128 t = a % b;
      a = b;
      b = t;
    }
    num = n / a;
    den = d / a;
    if (den > (static_cast<__int128>(1) << 80)) {
      num %= 1000003;
      den = 1;
    }
  }

  // Breadth-first walk from every tenth actor.
  std::uint64_t reached = 0;
  std::pmr::vector<char> seen(kActors, 0, &arena);
  std::pmr::vector<int> queue(&arena);
  for (int root = 0; root < kActors; root += 10) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(1, root);
    seen[static_cast<std::size_t>(root)] = 1;
    for (std::size_t q = 0; q < queue.size(); ++q) {
      for (const int v : successors[static_cast<std::size_t>(queue[q])]) {
        if (seen[static_cast<std::size_t>(v)] == 0) {
          seen[static_cast<std::size_t>(v)] = 1;
          queue.push_back(v);
        }
      }
    }
    reached += queue.size();
  }
  return static_cast<std::uint64_t>(num) ^ reached;
}

}  // namespace

double reference_us() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    g_sink = g_sink + kernel();
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    best = rep == 0 ? us : std::min(best, us);
  }
  return best;
}

double reference_burst_us() {
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    samples.push_back(reference_us());
  }
  return median(samples);
}

}  // namespace bench
