// Canonical-serialization file: tools/lint_determinism.py rules R1–R3
// apply (no unordered containers, no ambient randomness, no float
// formatting on the canonical byte path).
#include "sim/sweep.hpp"

#include <chrono>
#include <future>

#include "util/thread_pool.hpp"

namespace vrdf::sim {

double run_sweep(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& work) {
  const auto started = std::chrono::steady_clock::now();
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      work(i);
    }
  } else {
    util::ThreadPool pool(threads);
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(pool.submit([&work, i] { work(i); }));
    }
    for (std::future<void>& future : futures) {
      future.get();  // propagate the first worker exception, if any
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  return elapsed.count();
}

std::string escape_detail(const std::string& detail) {
  std::string out;
  out.reserve(detail.size());
  for (const char c : detail) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_detail(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      ++i;
      out += escaped[i] == 'n' ? '\n' : escaped[i];
    } else {
      out += escaped[i];
    }
  }
  return out;
}

}  // namespace vrdf::sim
