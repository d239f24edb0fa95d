// Minimal leveled logger.
//
// The library is a set of analysis algorithms, so logging is sparse and
// opt-in: default level is Warning, benches raise it to Info for progress
// lines.  No timestamps/threads — output must be diffable in tests.
//
// Thread-safety: each VRDF_LOG statement buffers its whole line privately
// (the LineBuilder's stream lives on the emitting thread's stack) and
// emit() flushes it atomically as one write, so lines from concurrent
// sweep workers never interleave mid-line.  Line *order* across threads is
// whatever the race produced — deterministic passes that need diffable
// output must log from one thread, as the single-threaded paths do.
#pragma once

#include <sstream>
#include <string>

namespace vrdf::log {

enum class Level { Trace = 0, Debug = 1, Info = 2, Warning = 3, Error = 4, Off = 5 };

/// Global threshold; messages below it are discarded.
void set_level(Level level);
[[nodiscard]] Level level();

/// Emits one line to stderr when `level >= level()`.
void emit(Level level, const std::string& message);

[[nodiscard]] const char* level_name(Level level);

namespace detail {
class LineBuilder {
public:
  explicit LineBuilder(Level level) : level_(level) {}
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;
  ~LineBuilder() { emit(level_, os_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

private:
  Level level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace vrdf::log

#define VRDF_LOG(lvl)                                    \
  if (::vrdf::log::Level::lvl < ::vrdf::log::level()) {  \
  } else                                                 \
    ::vrdf::log::detail::LineBuilder(::vrdf::log::Level::lvl)
