#include "bench.hpp"

#include <sys/resource.h>

#include "util/seed_stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace bench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::uint64_t digest(const std::string& text, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint32_t Tracer::intern_(const char* name) {
  // Span names are string literals: a pointer hit skips the string compare.
  for (const auto& [pointer, id] : by_pointer_) {
    if (pointer == name) {
      return id;
    }
  }
  std::uint32_t id = 0;
  const auto it = ids_.find(std::string_view(name));
  if (it != ids_.end()) {
    id = it->second;
  } else {
    id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
  }
  by_pointer_.emplace_back(name, id);
  return id;
}

std::uint32_t Tracer::open(const char* name) {
  if (!enabled) {
    return kNone;
  }
  Span& span = spans_.emplace_back();
  span.name = intern_(name);
  span.parent = open_request_;
  span.start_ns = now_ns();  // last, so bookkeeping stays outside the span
  if (open_request_ != kNone && !request_started_) {
    // A request starts with its first stage (one clock read for both).
    spans_[open_request_].start_ns = span.start_ns;
    request_started_ = true;
  }
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t handle) {
  Span& span = spans_[handle];
  span.end_ns = now_ns();
  if (span.parent != kNone) {
    // ... and ends with its last one.
    spans_[span.parent].end_ns = span.end_ns;
  }
}

std::uint32_t Tracer::begin_request(const char* name) {
  if (!enabled) {
    return kNone;
  }
  open_request_ = kNone;
  if (spans_.capacity() < spans_.size() + 256) {
    // Grow before the request starts so no reallocation lands inside it.
    spans_.reserve(std::max<std::size_t>(1u << 16, 2 * spans_.size()));
  }
  const std::uint32_t handle = open(name);
  open_request_ = handle;
  request_started_ = false;
  return handle;
}

void Tracer::end_request(std::uint32_t handle) {
  if (handle == kNone) {
    return;
  }
  if (spans_[handle].end_ns == 0) {
    close(handle);  // a request with no stage
  }
  open_request_ = kNone;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) {
    return out;
  }
  for (const Span& span : spans_) {
    if (span.name == it->second && span.end_ns != 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

namespace {

/// Per span index: summed duration of its direct children (ns).
std::vector<std::int64_t> child_time(const std::vector<Tracer::Span>& spans) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Tracer::Span& span : spans) {
    if (span.parent != Tracer::kNone) {
      covered[span.parent] += span.end_ns - span.start_ns;
    }
  }
  return covered;
}

}  // namespace

std::vector<double> Tracer::stage_coverage() const {
  const std::vector<std::int64_t> covered = child_time(spans_);
  std::vector<bool> is_request(spans_.size(), false);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      is_request[span.parent] = true;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    if (is_request[i] && total > 0) {
      out.push_back(static_cast<double>(covered[i]) / static_cast<double>(total));
    }
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // Bound the file: the first spans carry every stage shape already.
  constexpr std::size_t kMaxEvents = 200000;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  const std::size_t count = std::min(spans_.size(), kMaxEvents);
  char buf[160];
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out << buf << "\"name\":\"" << names_[span.name] << "\",\"args\":{\"parent\":"
        << (span.parent == kNone ? -1 : static_cast<std::int64_t>(span.parent))
        << "}}" << (i + 1 < count ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::summary_text() const {
  const std::vector<std::int64_t> covered = child_time(spans_);
  struct Row {
    std::vector<double> us;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    Row& row = rows[names_[span.name]];
    row.us.push_back(us);
    row.total_us += us;
    row.self_us += us - static_cast<double>(covered[i]) / 1e3;
  }
  std::ostringstream os;
  char buf[200];
  std::snprintf(buf, sizeof buf, "%-28s %9s %14s %12s %12s %14s\n", "stage",
                "count", "total_us", "p50_us", "p99_us", "self_us");
  os << buf;
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof buf, "%-28s %9zu %14.1f %12.2f %12.2f %14.1f\n",
                  name.c_str(), row.us.size(), row.total_us,
                  quantile(row.us, 0.5), quantile(row.us, 0.99), row.self_us);
    os << buf;
  }
  return os.str();
}

LoopLatency drive(const Options& options, Tracer& tracer, RunRecord& record,
                  const Loop& loop) {
  constexpr std::int64_t kReferenceEveryNs = 20'000'000;
  std::vector<double> traced;
  const auto budget = static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t spent = 0;
  std::int64_t next_reference = 0;
  std::int64_t start = now_ns();
  for (std::uint64_t n = 0; spent < budget; ++n) {
    if (spent >= next_reference) {
      // Outside the measured time, like the checkpoints.
      next_reference += kReferenceEveryNs;
      record.reference.push_back({static_cast<double>(spent) / 1e9, reference_us()});
      start = now_ns();
    }
    const std::uint64_t work_before = record.work;
    // Traced runs trace a pseudo-random half of the requests, so traced
    // and untraced latencies sample the same inputs at the same time.
    tracer.enabled = options.trace && (vrdf::util::mix64(n) & 1u) != 0;
    const Step step = loop.request(n);
    ++record.attempted;
    record.failed += step.ok ? 0 : 1;
    const bool was_traced = tracer.enabled;
    if (was_traced && loop.probe) {
      loop.probe(n);
    }
    spent += now_ns() - start;
    if (was_traced) {
      traced.push_back(step.latency_us);
    } else {
      const std::uint64_t work = record.work - work_before;
      record.samples.push_back({static_cast<float>(static_cast<double>(spent) / 1e9),
                                static_cast<float>(step.latency_us),
                                static_cast<std::uint32_t>(work != 0 ? work : 1)});
    }
    if (loop.checkpoint_every != 0 && (n + 1) % loop.checkpoint_every == 0) {
      tracer.enabled = options.trace;
      loop.checkpoint(n);
    }
    start = now_ns();
  }
  tracer.enabled = false;
  record.measured_s = static_cast<double>(spent) / 1e9;
  // Read before the result processing below, whose buffers grow with the
  // number of requests.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  record.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  std::vector<double> untraced;
  for (const RunRecord::Sample& sample : record.samples) {
    untraced.push_back(sample.latency_us);
  }
  return LoopLatency{median(untraced), median(traced)};
}

double setup_seconds(const RunRecord& record) {
  std::vector<double> scaled;
  for (std::size_t k = 0; k < record.setup_s.size(); ++k) {
    scaled.push_back(record.setup_s[k] * kReferenceNominalUs /
                     record.setup_reference_us[k]);
  }
  return median(scaled);
}

EndToEnd end_to_end(const RunRecord& record) {
  EndToEnd out;
  const std::vector<RunRecord::Sample>& samples = record.samples;
  const std::vector<RunRecord::Reference>& refs = record.reference;
  if (samples.empty() || refs.empty() || !(record.measured_s > 0.0)) {
    return out;
  }
  // Host slowdown at each request: the median of the nine reference times
  // taken nearest to it (±80 ms), over the nominal.
  std::vector<double> slowdown(samples.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    while (next < refs.size() && refs[next].at_s < samples[i].at_s) {
      ++next;
    }
    const std::size_t lo = next >= 4 ? next - 4 : 0;
    const std::size_t hi = std::min(refs.size(), lo + 9);
    std::vector<double> near;
    for (std::size_t k = hi >= 9 ? hi - 9 : 0; k < hi; ++k) {
      near.push_back(refs[k].us);
    }
    slowdown[i] = median(near) / kReferenceNominalUs;
  }
  // Splits the requests into `windows` equal stretches of measured time.
  const auto split = [&](std::size_t windows) {
    std::vector<std::vector<std::size_t>> slices(windows);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto w = static_cast<std::size_t>(samples[i].at_s / record.measured_s *
                                              static_cast<double>(windows));
      slices[std::min(w, windows - 1)].push_back(i);
    }
    return slices;
  };
  const auto latencies = [&](const std::vector<std::size_t>& slice, bool scaled) {
    std::vector<double> us;
    for (const std::size_t i : slice) {
      us.push_back(samples[i].latency_us / (scaled ? slowdown[i] : 1.0));
    }
    return us;
  };

  constexpr std::size_t kWindows = 5;
  const double window_s = record.measured_s / static_cast<double>(kWindows);
  for (const std::vector<std::size_t>& slice : split(kWindows)) {
    if (slice.empty()) {
      continue;
    }
    double work = 0.0;
    std::vector<double> factors;
    for (const std::size_t i : slice) {
      work += static_cast<double>(samples[i].work);
      factors.push_back(slowdown[i]);
    }
    const double factor = median(factors);
    out.slowdown_windows.push_back(factor);
    out.raw_ops_windows.push_back(work / window_s);
    out.ops_windows.push_back(work / window_s * factor);
    out.raw_p50_windows.push_back(quantile(latencies(slice, false), 0.5));
    out.p50_windows.push_back(quantile(latencies(slice, true), 0.5));
  }
  const std::size_t tail_windows =
      std::clamp<std::size_t>(samples.size() / 1000, 1, kWindows);
  for (const std::vector<std::size_t>& slice : split(tail_windows)) {
    if (!slice.empty()) {
      out.raw_p99_windows.push_back(quantile(latencies(slice, false), 0.99));
      out.p99_windows.push_back(quantile(latencies(slice, true), 0.99));
    }
  }
  out.ops_per_s = median(out.ops_windows);
  out.latency_p50_us = median(out.p50_windows);
  out.latency_p99_us = median(out.p99_windows);
  return out;
}

void add_stage_metrics(RunRecord& record, const Tracer& tracer,
                       const std::string& span, bool with_p99) {
  const std::vector<double> us = tracer.durations_us(span);
  record.layers[span + "_us"] = {quantile(us, 0.5), "us"};
  if (with_p99) {
    record.layers[span + "_p99_us"] = {quantile(us, 0.99), "us"};
  }
}

void add_trace_metrics(RunRecord& record, const Tracer& tracer,
                       double untraced_p50_us, double traced_p50_us) {
  const std::vector<double> coverage = tracer.stage_coverage();
  std::size_t within = 0;
  double worst = coverage.empty() ? 0.0 : 1.0;
  for (const double c : coverage) {
    within += std::abs(1.0 - c) <= 0.05 ? 1 : 0;
    worst = std::min(worst, c);
  }
  record.layers["trace.requests"] = {static_cast<double>(coverage.size()),
                                     "count"};
  record.layers["trace.stage_sum_within_5pct"] = {
      coverage.empty() ? 0.0
                       : static_cast<double>(within) /
                             static_cast<double>(coverage.size()),
      "ratio"};
  record.layers["trace.stage_sum_min_ratio"] = {worst, "ratio"};
  record.layers["trace.spans"] = {static_cast<double>(tracer.spans().size()),
                                  "count"};
  record.layers["trace.overhead_us"] = {traced_p50_us - untraced_p50_us, "us"};
  record.layers["trace.overhead_pct"] = {
      untraced_p50_us > 0.0
          ? 100.0 * (traced_p50_us - untraced_p50_us) / untraced_p50_us
          : 0.0,
      "%"};
}

}  // namespace bench
