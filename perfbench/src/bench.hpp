// Shared infrastructure of the benchmark program: the monotonic clock, the
// in-memory span recorder, percentile helpers and the per-run record every
// workload fills in.
//
// Spans are recorded only from the benchmark's own code, around each public
// library call it makes; the library itself is never instrumented.  With
// tracing off every span is a single predictable branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "reference.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Value at quantile q in [0, 1] of `values` (linear interpolation); 0 for
/// an empty sample.  Sorts a copy.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// FNV-1a over a byte string — the determinism digests of reports and
/// annotated models.
[[nodiscard]] std::uint64_t digest(const std::string& text,
                                   std::uint64_t seed = 1469598103934665603ULL);

/// Records spans in memory.  A span names a stage; stage spans opened
/// while a request span is open become its children.  Spans opened with no
/// request open (attribution probes, set-up) stand alone.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    /// Index of the enclosing request span, or kNone.
    std::uint32_t parent = kNone;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;

  bool enabled = false;

  /// Opens a span and returns its handle (kNone when disabled).
  std::uint32_t open(const char* name);
  void close(std::uint32_t handle);

  /// Request spans: stages opened between begin_request and end_request
  /// are recorded as its children, and the request span runs from the
  /// first stage's start to the last stage's end (the two share clock
  /// reads, so benchmark glue between stages is what the stage sum misses).
  std::uint32_t begin_request(const char* name);
  void end_request(std::uint32_t handle);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every closed span with this name, in record order.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Per request span: sum of its children's durations over its own
  /// duration (1.0 when the stages tile the request exactly).
  [[nodiscard]] std::vector<double> stage_coverage() const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;
  /// Per-stage table: count, total, p50, p99 and self time.
  [[nodiscard]] std::string summary_text() const;

 private:
  std::uint32_t intern_(const char* name);

  std::vector<std::string> names_;
  // Transparent comparator: lookups by const char* allocate nothing.
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<std::pair<const char*, std::uint32_t>> by_pointer_;
  std::vector<Span> spans_;
  std::uint32_t open_request_ = kNone;
  bool request_started_ = false;
};

/// RAII stage span.
class Stage {
 public:
  Stage(Tracer& tracer, const char* name)
      : tracer_(tracer), handle_(tracer.enabled ? tracer.open(name) : Tracer::kNone) {}
  ~Stage() {
    if (handle_ != Tracer::kNone) {
      tracer_.close(handle_);
    }
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct RunRecord {
  /// Sample storage is reserved and touched when the record is made, before
  /// set-up allocates anything.  So the peak RSS neither grows with the
  /// number of requests a run completes (a faster library must not read as
  /// one that uses more memory) nor depends on whether the buffer lands in
  /// memory that set-up freed.
  RunRecord() {
    constexpr std::size_t kPrefaultedSamples = std::size_t{1} << 19;
    samples.resize(kPrefaultedSamples);
    samples.clear();
  }

  /// Requests attempted in the measured loop, and those whose output was
  /// missing or wrong.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Units of work completed, when a request carries several (sweep items);
  /// 0 means one unit per request.
  std::uint64_t work = 0;
  /// Correctness gates outside the measured loop that did not hold.
  std::vector<std::string> gate_failures;
  /// Wall seconds of the measured loop (checkpoints excluded).
  double measured_s = 0.0;
  /// Peak resident memory (MB) of set-up and the measured loop.
  double peak_rss_mb = 0.0;
  /// Untraced requests of the measured loop: when each finished (seconds
  /// of measured time), its latency and the units of work it completed.
  struct Sample {
    float at_s = 0.0F;
    float latency_us = 0.0F;
    std::uint32_t work = 1;
  };
  std::vector<Sample> samples;
  /// Reference kernel times taken between requests (see reference.hpp):
  /// when each was taken (seconds of measured time) and its µs.
  struct Reference {
    double at_s = 0.0;
    double us = 0.0;
  };
  std::vector<Reference> reference;
  /// Set-up durations (s), one per repetition, and the reference kernel's
  /// time (µs) taken right after each.
  std::vector<double> setup_s;
  std::vector<double> setup_reference_us;
  /// Per-layer metrics (traced runs).
  std::map<std::string, Metric> layers;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void fail_gate(const std::string& what) { gate_failures.push_back(what); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  /// Expected MP3 capacities d1, d2, d3 (Sec 5 of the paper).
  std::vector<std::int64_t> mp3_expect{6015, 3263, 882};
};

/// One request's verdict and latency, as measured by the workload around
/// exactly the library calls that make up the request.
struct Step {
  bool ok = true;
  double latency_us = 0.0;
};

/// A closed-loop workload: the next request starts when the previous one
/// returns.
struct Loop {
  std::function<Step(std::uint64_t)> request;
  /// Traced requests only: attribution probes run after the request,
  /// outside its span.
  std::function<void(std::uint64_t)> probe;
  /// Called after every `checkpoint_every` requests with the clock paused
  /// (correctness checkpoints outside the measured time).
  std::function<void(std::uint64_t)> checkpoint;
  std::uint64_t checkpoint_every = 0;
};

/// p50 latency of the untraced and the traced requests of a run.
struct LoopLatency {
  double untraced_p50_us = 0.0;
  double traced_p50_us = 0.0;
};

/// Runs one set-up repetition, times it, and takes a reference burst right
/// after it, outside the timing.
template <class SetUp>
void timed_setup(RunRecord& record, SetUp&& set_up) {
  const std::int64_t t0 = now_ns();
  set_up();
  record.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  record.setup_reference_us.push_back(reference_burst_us());
}

/// Host-speed-scaled median set-up time (s).
[[nodiscard]] double setup_seconds(const RunRecord& record);

/// Runs the loop for options.seconds and fills record.attempted / failed /
/// measured_s / samples (untraced requests only) / reference (one sample
/// per 20 ms of measured time, outside it).  In a traced run a
/// pseudo-random half of the requests is traced, with probes after each;
/// the difference of the two p50 latencies is the tracing overhead.
LoopLatency drive(const Options& options, Tracer& tracer, RunRecord& record,
                  const Loop& loop);

/// The end-to-end figures of an untraced run.  Each is a median over equal
/// time windows of the run, so a short burst of interference on the host
/// moves one window, not the result: ops_per_s and latency_p50_us over 5
/// windows, latency_p99_us over as many windows (1 to 5) as keep 1000
/// samples in each, so every window's p99 has 10 samples beyond it.  Each
/// request's latency is scaled to kReferenceNominalUs by the median of the
/// nine reference times taken nearest to it, and each window's rate by the
/// median of those factors over its requests (reference.hpp).
struct EndToEnd {
  double ops_per_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  /// The scaled per-window values behind each median, the unscaled ones,
  /// and each window's host slowdown (reference time / nominal), for the
  /// printed report.
  std::vector<double> ops_windows, p50_windows, p99_windows;
  std::vector<double> raw_ops_windows, raw_p50_windows, raw_p99_windows;
  std::vector<double> slowdown_windows;
};
[[nodiscard]] EndToEnd end_to_end(const RunRecord& record);

/// Records p50 (and optionally p99) of a stage's spans as per-layer metrics
/// `<span>_us` / `<span>_p99_us`.
void add_stage_metrics(RunRecord& record, const Tracer& tracer,
                       const std::string& span, bool with_p99 = false);

/// Tracing overhead and stage coverage metrics shared by all workloads.
void add_trace_metrics(RunRecord& record, const Tracer& tracer,
                       double untraced_p50_us, double traced_p50_us);

// Workloads.
void run_sizer(const Options& options, Tracer& tracer, RunRecord& record);
void run_margins(const Options& options, Tracer& tracer, RunRecord& record);
void run_admission(const Options& options, Tracer& tracer, RunRecord& record);
void run_sweep(const Options& options, Tracer& tracer, RunRecord& record);

}  // namespace bench
