// admission: one long-lived admission session, a closed loop of single
// decisions from one caller.
//
//  * An AdmissionController serves a 256-actor gear chain (the first 32
//    buffers carry data-dependent rates, the rest are static), pinned at
//    its sink, with retune : admit : remove : set_period drawn 5 : 1 : 1 : 1.
//  * Beside it a certificate-gated DeploymentController serves 4 stream
//    chains fanned out from a shared root on 4 TDM processors, with
//    set_slot and admit/remove decisions.
//
// Every decision's parameters are derived from the session's current state
// so that the intended outcome is known in advance (a retune within the
// base pacing budget is admissible, one beyond the current pacing is not;
// an interior stream at its own pacing is flow-consistent, any other period
// conflicts; ...).  A decision whose outcome differs from the prediction is
// a wrong output.  Targets are drawn relative to fixed base values, so the
// session does not drift: both outcomes stay frequent in every decision
// kind for the whole run — except removal on the chain, which a chain
// always accepts while another stream remains (any single pin paces a
// whole chain); the deployment side supplies rejected removals.
//
// Outside the timed loop, checkpoints compare both engines' analyses field
// for field with a full compute_buffer_capacities recompute, and at the end
// a fresh session of the same seed replays the first decisions and must
// reach the same outcomes.
#include <algorithm>
#include <memory>
#include <random>
#include <set>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/deployment.hpp"
#include "analysis/snapshot.hpp"
#include "bench.hpp"
#include "sched/platform.hpp"
#include "taskgraph/task_graph.hpp"
#include "util/seed_stream.hpp"

namespace bench {

using namespace vrdf;

namespace {

constexpr std::size_t kActors = 256;
/// Buffers 0..kVariable-1 carry data-dependent rates; streams may only be
/// admitted downstream of them (a variable rate between two constraints is
/// rejected by the constraint-coupling rule).
constexpr std::size_t kVariable = 32;
constexpr std::size_t kMaxPins = 3;
constexpr std::int64_t kStreams = 4;
constexpr std::int64_t kTasksPerStream = 3;
constexpr std::size_t kProcessors = 4;

enum Kind {
  kRetune,
  kAdmit,
  kRemove,
  kSetPeriod,
  kSetSlot,
  kDepAdmit,
  kDepRemove,
  kKinds
};
const char* const kSpan[kKinds] = {
    "admission.retune",   "admission.admit",  "admission.remove",
    "admission.set_period", "deployment.set_slot", "deployment.admit",
    "deployment.remove"};

bool same_pair(const analysis::PairAnalysis& a, const analysis::PairAnalysis& b) {
  return a.producer == b.producer && a.consumer == b.consumer &&
         a.buffer.data == b.buffer.data && a.buffer.space == b.buffer.space &&
         a.pacing_basis == b.pacing_basis && a.bound_rate == b.bound_rate &&
         a.delta_producer == b.delta_producer &&
         a.delta_consumer == b.delta_consumer && a.delta_total == b.delta_total &&
         a.raw_tokens == b.raw_tokens && a.capacity == b.capacity &&
         a.determined_by == b.determined_by && a.is_static == b.is_static &&
         a.is_feedback == b.is_feedback && a.initial_tokens == b.initial_tokens &&
         a.required_initial_tokens == b.required_initial_tokens;
}

/// Field-for-field equality of two analyses.
bool same_analysis(const analysis::GraphAnalysis& a,
                   const analysis::GraphAnalysis& b) {
  if (a.admissible != b.admissible || a.diagnostics != b.diagnostics ||
      a.side != b.side || a.constraints.size() != b.constraints.size() ||
      a.constraint_is_sink_kind != b.constraint_is_sink_kind ||
      a.constraint_is_source_kind != b.constraint_is_source_kind ||
      a.is_chain != b.is_chain || a.is_cyclic != b.is_cyclic ||
      a.actors_in_order != b.actors_in_order || a.pacing != b.pacing ||
      a.leads != b.leads || a.pairs.size() != b.pairs.size() ||
      a.total_capacity != b.total_capacity || a.rounding != b.rounding) {
    return false;
  }
  for (std::size_t i = 0; i < a.constraints.size(); ++i) {
    if (a.constraints[i].actor != b.constraints[i].actor ||
        a.constraints[i].period != b.constraints[i].period) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    if (!same_pair(a.pairs[i], b.pairs[i])) {
      return false;
    }
  }
  return true;
}

bool matches_full_recompute(const analysis::IncrementalAnalysis& engine) {
  const analysis::GraphAnalysis full = analysis::compute_buffer_capacities(
      engine.snapshot(), engine.constraints(), engine.options(),
      engine.overlay());
  return same_analysis(full, engine.analysis());
}

/// The decision session: inputs generated from the seed, both controllers,
/// and the benchmark's mirror of the serviced state it derives targets from.
class Session {
 public:
  explicit Session(std::uint64_t seed) : rng_(util::derive_seed(seed, 11)) {
    build_chain(util::derive_seed(seed, 12));
    build_deployment(util::derive_seed(seed, 13));
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  struct Outcome {
    Kind kind = kRetune;
    bool expected = false;
    bool accepted = false;
    /// The outcome (and, for slot rejections, its reason) was predicted.
    bool ok = false;
    double latency_us = 0.0;
  };

  /// Draws the next decision, applies it, and updates the mirror.
  Outcome next(Tracer& tracer);

  [[nodiscard]] const analysis::AdmissionController& chain() const {
    return *chain_;
  }
  [[nodiscard]] const analysis::DeploymentController& deployment() const {
    return *deployment_;
  }

 private:
  void build_chain(std::uint64_t seed);
  void build_deployment(std::uint64_t seed);

  std::int64_t draw(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }
  bool coin() { return draw(0, 1) == 1; }
  /// φ(v) at the current sink period.
  Duration phi(std::size_t v) const { return phi0_[v] * tau_ratio_; }
  std::size_t free_interior_actor() {
    for (;;) {
      const auto v = static_cast<std::size_t>(
          draw(kVariable, static_cast<std::int64_t>(kActors) - 2));
      if (pins_.count(v) == 0) {
        return v;
      }
    }
  }

  std::mt19937_64 rng_;

  // Chain side.
  dataflow::VrdfGraph graph_;
  std::vector<dataflow::ActorId> actor_;
  std::vector<Duration> phi0_;
  Duration tau0_;
  std::unique_ptr<analysis::TopologySnapshot> snapshot_;
  std::unique_ptr<analysis::AdmissionController> chain_;
  /// ρ(v)/φ0(v) of the serviced state.
  std::vector<Rational> rho_ratio_;
  /// Current sink period over τ0.
  Rational tau_ratio_{1};
  std::set<std::size_t> pins_;

  // Deployment side.
  Duration wheel_;
  Duration stream_period_;
  std::vector<std::string> tasks_;
  std::vector<std::string> sinks_;
  std::unique_ptr<analysis::DeploymentController> deployment_;
  std::string dep_pin_;
};

void Session::build_chain(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  // Gear scheme: every buffer x→y pins π̌ = g(x) and γ̂ = g(y), so the
  // sink-mode pacing is φ(v) = g(v)·τ/g(sink) and stays exact over 256
  // actors.
  std::vector<std::int64_t> gear(kActors);
  for (std::int64_t& g : gear) {
    g = pick(1, 4);
  }
  tau0_ = milliseconds(Rational(10));
  for (std::size_t v = 0; v < kActors; ++v) {
    phi0_.push_back(tau0_ * Rational(gear[v], gear.back()));
    actor_.push_back(graph_.add_actor("a" + std::to_string(v),
                                      phi0_[v] * Rational(1, 2)));
    rho_ratio_.emplace_back(1, 2);
  }
  for (std::size_t i = 0; i + 1 < kActors; ++i) {
    const std::int64_t gx = gear[i];
    const std::int64_t gy = gear[i + 1];
    if (i < kVariable) {
      (void)graph_.add_buffer(actor_[i], actor_[i + 1],
                              dataflow::RateSet::interval(gx, gx + pick(1, 3)),
                              dataflow::RateSet::interval(pick(0, 1), gy));
    } else {
      (void)graph_.add_buffer(actor_[i], actor_[i + 1],
                              dataflow::RateSet::singleton(gx),
                              dataflow::RateSet::singleton(gy));
    }
  }
  snapshot_ = std::make_unique<analysis::TopologySnapshot>(graph_);
  chain_ = std::make_unique<analysis::AdmissionController>(
      *snapshot_,
      analysis::ConstraintSet{analysis::ThroughputConstraint{actor_.back(), tau0_}});
}

void Session::build_deployment(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  wheel_ = milliseconds(Rational(1));
  stream_period_ = milliseconds(Rational(2));
  const Duration slot = wheel_ * Rational(2, 16);
  taskgraph::TaskGraph tasks;
  sched::Platform platform;
  for (std::size_t p = 0; p < kProcessors; ++p) {
    (void)platform.add_processor("cpu" + std::to_string(p), wheel_);
  }
  const auto add_task = [&](const std::string& name) {
    const taskgraph::TaskId id = tasks.add_task(name, wheel_);
    const std::int64_t wcet =
        std::uniform_int_distribution<std::int64_t>(2, 12)(rng);
    platform.bind_task(name, tasks_.size() % kProcessors, slot,
                       wheel_ * Rational(wcet, 64));
    tasks_.push_back(name);
    return id;
  };
  const taskgraph::TaskId root = add_task("root");
  std::vector<analysis::DeploymentConstraint> streams;
  for (std::int64_t s = 0; s < kStreams; ++s) {
    taskgraph::TaskId previous = root;
    for (std::int64_t t = 0; t < kTasksPerStream; ++t) {
      const taskgraph::TaskId id =
          add_task("s" + std::to_string(s) + "t" + std::to_string(t));
      (void)tasks.add_buffer(previous, id, dataflow::RateSet::singleton(1),
                             dataflow::RateSet::singleton(1));
      previous = id;
    }
    sinks_.push_back(tasks_.back());
    streams.push_back({sinks_.back(), stream_period_});
  }
  analysis::DeploymentOptions options;
  options.certify = true;
  deployment_ = std::make_unique<analysis::DeploymentController>(
      tasks, std::move(platform), std::move(streams), options);
  deployment_->set_require_certificate(true);
}

Session::Outcome Session::next(Tracer& tracer) {
  Outcome out;
  // 5 : 1 : 1 : 1 on the chain, then one slot and one pin decision on the
  // deployment.
  const std::int64_t slot = draw(0, 9);
  out.kind = slot < 5    ? kRetune
             : slot == 5 ? kAdmit
             : slot == 6 ? kRemove
             : slot == 7 ? kSetPeriod
             : slot == 8 ? kSetSlot
                         : kDepAdmit;
  // 5 of 8 decisions aim at acceptance: both outcomes stay frequent, and
  // each kind's p50 falls inside one outcome's latency mode instead of on
  // the boundary between them (a gated acceptance costs ~10x a rejection).
  out.expected = draw(0, 7) < 5;
  if (out.kind == kRemove && pins_.empty()) {
    out.kind = kAdmit;  // nothing to stop yet: start a stream instead
    out.expected = true;
  }
  if (out.kind == kAdmit && out.expected && pins_.size() >= kMaxPins) {
    out.expected = false;
  }
  if (out.kind == kRemove) {
    out.expected = true;
  }
  if (out.kind == kDepAdmit && !dep_pin_.empty()) {
    out.kind = kDepRemove;
  }

  // Derive the decision's arguments (outside the timed section).
  std::size_t v = 0;
  Rational k;
  Duration value;
  std::string task;
  bool wheel_reject = false;  // set_slot: the intended rejection reason
  switch (out.kind) {
    case kRetune:
      v = static_cast<std::size_t>(draw(0, kActors - 1));
      k = out.expected ? Rational(draw(4, 16), 16) : Rational(draw(17, 32), 16);
      // Accepted retunes stay within the base budget φ0 ≤ φ; rejected ones
      // exceed the current pacing.
      value = out.expected ? phi0_[v] * k : phi(v) * k;
      break;
    case kSetPeriod:
      if (pins_.empty()) {
        Rational worst(0);
        for (const Rational& r : rho_ratio_) {
          worst = max(worst, r);
        }
        // Accepted: anywhere in [τ0, 2τ0] (every ρ ≤ φ0).  Rejected: below
        // the period the slowest actor's ρ still fits.
        k = out.expected ? Rational(draw(16, 32), 16)
                         : worst * Rational(draw(8, 15), 16);
      } else {
        // Several streams couple the period: only the current one is
        // flow-consistent.
        const std::int64_t off = draw(8, 15);
        k = out.expected ? tau_ratio_
                         : tau_ratio_ * Rational(coin() ? off : 32 - off, 16);
      }
      value = tau0_ * k;
      break;
    case kAdmit:
      if (!out.expected && coin()) {
        v = 0;  // a pinned data source couples the variable-rate prefix
        value = phi(0);
      } else {
        v = free_interior_actor();
        value = out.expected ? phi(v) : phi(v) * Rational(coin() ? 12 : 20, 16);
      }
      break;
    case kRemove: {
      auto it = pins_.begin();
      std::advance(it, draw(0, static_cast<std::int64_t>(pins_.size()) - 1));
      v = *it;
      break;
    }
    case kSetSlot: {
      task = tasks_[static_cast<std::size_t>(
          draw(0, static_cast<std::int64_t>(tasks_.size()) - 1))];
      const std::size_t proc = deployment_->platform().processor_of(task);
      Duration current;
      for (const auto& binding : deployment_->platform().bindings()) {
        if (binding.task == task) {
          current = binding.slot;
        }
      }
      const Duration slack = deployment_->platform().slack(proc);
      if (out.expected) {
        const Duration grown = wheel_ * Rational(3, 16);
        value = (coin() && grown - current <= slack) ? grown
                                                     : wheel_ * Rational(2, 16);
      } else {
        wheel_reject = coin();
        // A slot past the wheel's slack, or one so thin that κ needs four
        // wheel turns (> the 2 ms period).
        value = wheel_reject ? current + slack + wheel_ * Rational(1, 16)
                             : wheel_ * Rational(1, 128);
      }
      break;
    }
    case kDepAdmit:
      task = tasks_[static_cast<std::size_t>(
          draw(1, static_cast<std::int64_t>(tasks_.size()) - 1))];
      if (std::find(sinks_.begin(), sinks_.end(), task) != sinks_.end()) {
        task = tasks_[1];  // first task of stream 0, never a sink
      }
      value = out.expected ? stream_period_ : stream_period_ * Rational(3, 2);
      break;
    case kDepRemove:
      if (out.expected) {
        task = dep_pin_;
      } else {
        // Stopping a stream whose chain carries no other pin leaves that
        // chain unpaced.
        const std::string pinned_stream = dep_pin_.substr(0, dep_pin_.find('t'));
        do {
          task = sinks_[static_cast<std::size_t>(draw(0, kStreams - 1))];
        } while (task.substr(0, task.find('t')) == pinned_stream);
      }
      break;
    case kKinds:
      break;
  }

  bool reason_ok = true;
  const std::int64_t t0 = now_ns();
  const std::uint32_t req = tracer.begin_request("admission.decision");
  {
    Stage s(tracer, kSpan[out.kind]);
    switch (out.kind) {
      case kRetune:
        out.accepted = chain_->retune(actor_[v], value).accepted;
        break;
      case kAdmit:
        out.accepted =
            chain_->admit(analysis::ThroughputConstraint{actor_[v], value}).accepted;
        break;
      case kRemove:
        out.accepted = chain_->remove(actor_[v]).accepted;
        break;
      case kSetPeriod:
        out.accepted = chain_->set_period(actor_.back(), value).accepted;
        break;
      case kSetSlot: {
        const analysis::DeploymentDecision d = deployment_->set_slot(task, value);
        out.accepted = d.accepted;
        reason_ok = d.accepted || d.wheel_binding == wheel_reject;
        break;
      }
      case kDepAdmit:
        out.accepted = deployment_->admit(task, value).accepted;
        break;
      case kDepRemove:
        out.accepted = deployment_->remove(task).accepted;
        break;
      case kKinds:
        break;
    }
  }
  tracer.end_request(req);
  out.latency_us = static_cast<double>(now_ns() - t0) / 1e3;
  out.ok = out.accepted == out.expected && reason_ok;

  if (out.accepted) {
    switch (out.kind) {
      case kRetune:
        rho_ratio_[v] = k;
        break;
      case kAdmit:
        pins_.insert(v);
        break;
      case kRemove:
        pins_.erase(v);
        break;
      case kSetPeriod:
        tau_ratio_ = k;
        break;
      case kDepAdmit:
        dep_pin_ = task;
        break;
      case kDepRemove:
        dep_pin_.clear();
        break;
      case kSetSlot:
      case kKinds:
        break;
    }
  }
  return out;
}

/// Outcome bit string of the first decisions, for the replay gate.
constexpr std::size_t kReplay = 2000;

}  // namespace

void run_admission(const Options& options, Tracer& tracer, RunRecord& record) {
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < 25; ++rep) {
    timed_setup(record, [&] {
      session.reset();
      session = std::make_unique<Session>(options.seed);
    });
  }

  std::vector<char> outcomes;
  std::uint64_t counts[kKinds][2] = {};
  std::vector<double> cone;
  std::uint64_t mismatches = 0;

  Loop loop;
  loop.request = [&](std::uint64_t) {
    const Session::Outcome out = session->next(tracer);
    if (outcomes.size() < kReplay) {
      outcomes.push_back(static_cast<char>(out.kind * 2 + (out.accepted ? 1 : 0)));
    }
    counts[out.kind][out.accepted ? 0 : 1] += 1;
    if (tracer.enabled && out.kind == kRetune) {
      cone.push_back(static_cast<double>(
          session->chain().engine().stats().last_cone_actors));
    }
    return Step{out.ok, out.latency_us};
  };
  loop.checkpoint_every = 1000;
  loop.checkpoint = [&](std::uint64_t) {
    bool same = false;
    {
      Stage s(tracer, "admission.full_recompute");
      same = matches_full_recompute(session->chain().engine());
    }
    same = same && matches_full_recompute(session->deployment().engine());
    mismatches += same ? 0 : 1;
  };

  const LoopLatency latency = drive(options, tracer, record, loop);
  loop.checkpoint(0);
  if (mismatches != 0) {
    record.fail_gate(std::to_string(mismatches) +
                     " checkpoints where an incremental analysis differed from "
                     "its full recompute");
  }

  // Same seed, same decisions, same outcomes.
  Tracer off;
  Session replay(options.seed);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Session::Outcome out = replay.next(off);
    if (static_cast<char>(out.kind * 2 + (out.accepted ? 1 : 0)) != outcomes[i]) {
      record.fail_gate("replay of decision " + std::to_string(i) +
                       " reached a different outcome");
      break;
    }
  }

  std::string mix = "admission outcomes (accepted/rejected):";
  for (int kind = 0; kind < kKinds; ++kind) {
    mix += std::string(" ") + kSpan[kind] + "=" + std::to_string(counts[kind][0]) +
           "/" + std::to_string(counts[kind][1]);
  }
  record.notes.push_back(mix);
  if (!options.trace) {
    return;
  }

  for (int kind = 0; kind < kKinds; ++kind) {
    const std::string name = kSpan[kind];
    add_stage_metrics(record, tracer, name, kind != kDepRemove);
    record.layers[name + "_accepted"] = {static_cast<double>(counts[kind][0]),
                                         "count"};
    record.layers[name + "_rejected"] = {static_cast<double>(counts[kind][1]),
                                         "count"};
  }
  const analysis::InvalidationStats& stats = session->chain().engine().stats();
  const double pacing_base =
      static_cast<double>(stats.pacing_cache_hits + stats.pacing_recomputes);
  const double pairs_base =
      static_cast<double>(stats.pairs_reused + stats.pairs_recomputed);
  record.layers["incremental.pacing_hit_ratio"] = {
      pacing_base > 0 ? static_cast<double>(stats.pacing_cache_hits) / pacing_base
                      : 0.0,
      "ratio"};
  record.layers["incremental.pacing_queries"] = {pacing_base, "count"};
  record.layers["incremental.pairs_reused_ratio"] = {
      pairs_base > 0 ? static_cast<double>(stats.pairs_reused) / pairs_base : 0.0,
      "ratio"};
  record.layers["incremental.pairs_touched"] = {pairs_base, "count"};
  record.layers["incremental.cone_actors"] = {median(cone), "count"};
  add_stage_metrics(record, tracer, "admission.full_recompute");
  add_trace_metrics(record, tracer, latency.untraced_p50_us,
                    latency.traced_p50_us);
}

}  // namespace bench
