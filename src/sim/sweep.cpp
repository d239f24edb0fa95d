// Canonical-serialization file: tools/lint_determinism.py rules R1–R3
// apply (no unordered containers, no ambient randomness, no float
// formatting on the canonical byte path).
#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace vrdf::sim {

double run_sweep(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& work) {
  const auto started = std::chrono::steady_clock::now();
  // Self-scheduling: every worker, the caller included, claims the next
  // index from one counter.  Claims are made in index order, so when an
  // item fails every lower index has already been claimed and runs to
  // the end; the lowest failure is therefore the same at any thread
  // count.  Declared before `helpers`, so they outlive every worker even
  // when a later thread fails to start.
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::size_t failed_index = count;
  std::exception_ptr failure;
  const auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        work(i);
      } catch (...) {
        next = count;  // the first failure stops further claims
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (i < failed_index) {
          failed_index = i;
          failure = std::current_exception();
        }
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    const std::size_t workers = std::min(threads, count);
    for (std::size_t t = 1; t < workers; ++t) {
      helpers.emplace_back(drain);
    }
    drain();
  }  // joins every helper
  if (failure) {
    std::rethrow_exception(failure);
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
