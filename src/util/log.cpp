#include "util/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace vrdf::log {

namespace {
std::atomic<Level> g_level{Level::Warning};

// Serializes the final write only.  Each LineBuilder accumulates its line
// in a thread-local ostringstream, so sweep workers never contend while
// formatting; the mutex guards the single flush to stderr per event and
// keeps concurrent lines from interleaving mid-line.  Single-threaded
// output is byte-identical to the pre-lock implementation.
std::mutex g_emit_mutex;
}  // namespace

void set_level(Level level) { g_level.store(level, std::memory_order_relaxed); }

Level level() { return g_level.load(std::memory_order_relaxed); }

const char* level_name(Level lvl) {
  switch (lvl) {
    case Level::Trace: return "TRACE";
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO";
    case Level::Warning: return "WARN";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF";
  }
  return "?";
}

void emit(Level lvl, const std::string& message) {
  if (lvl < level()) {
    return;
  }
  // Assemble the whole line first so the locked region is one write.
  std::string line;
  line.reserve(message.size() + 16);
  line += "[vrdf ";
  line += level_name(lvl);
  line += "] ";
  line += message;
  line += '\n';
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << line;
}

}  // namespace vrdf::log
