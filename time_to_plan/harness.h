// Measurement plumbing of the time-to-plan benchmark: sample statistics, the
// closed-loop request loop, the plan book that checks every served plan for
// exactness and executes it once on the simulated cluster, span self-time
// accounting over an obs::TraceSink, and the result/metric writer.
//
// Everything here talks to the library only through its public headers.
// Timings are real elapsed seconds on the steady clock, taken around public
// calls; no simulated-cost field of a ConfiguratorResult is ever added into
// one.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/evaluation.h"
#include "engine/config_service.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace ttp {

using namespace pipette;

// ---------------------------------------------------------------- statistics

/// A bag of measurements; percentiles by the nearest-rank rule.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  long n() const { return static_cast<long>(v_.size()); }
  bool empty() const { return v_.empty(); }
  double sum() const {
    double s = 0.0;
    for (double x : v_) s += x;
    return s;
  }
  /// Nearest-rank percentile, p in (0, 1].
  double pct(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(s.size())));
    return s[std::min(s.size(), std::max<std::size_t>(rank, 1)) - 1];
  }
  double median() const { return pct(0.5); }
  /// Samples strictly above the nearest-rank p-th percentile position.
  long beyond(double p) const {
    return n() - static_cast<long>(std::ceil(p * static_cast<double>(n())));
  }
  /// Geometric mean of positive samples (0 when empty).
  double geomean() const {
    if (v_.empty()) return 0.0;
    double s = 0.0;
    for (double x : v_) s += std::log(x);
    return std::exp(s / static_cast<double>(v_.size()));
  }

 private:
  std::vector<double> v_;
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// -------------------------------------------------------------- exactness

/// Same recommendation: winner, predicted latency, full preference order.
inline bool same_result(const core::ConfiguratorResult& a, const core::ConfiguratorResult& b) {
  if (a.found != b.found || !(a.best == b.best) || a.predicted_s != b.predicted_s) return false;
  if (a.ranking.size() != b.ranking.size()) return false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (!(a.ranking[i].cand == b.ranking[i].cand)) return false;
    if (a.ranking[i].predicted_s != b.ranking[i].predicted_s) return false;
  }
  return true;
}

/// Identity of a plan request: the fabric, the job, and (for a reconfigure)
/// the fabric the previous plan was made for.
struct PlanKey {
  std::uint64_t topo = 0;
  std::uint64_t job = 0;
  std::uint64_t prev_topo = 0;
  bool operator<(const PlanKey& o) const {
    return std::tie(topo, job, prev_topo) < std::tie(o.topo, o.job, o.prev_topo);
  }
};

inline PlanKey plan_key(const cluster::Topology& topo, const model::TrainingJob& job,
                        const cluster::Topology* prev = nullptr) {
  return {topo.fingerprint(), model::job_digest(job), prev ? prev->fingerprint() : 0};
}

/// Every plan the workload serves goes through here. The first plan for a key
/// (or a reference registered before the window) is executed once on the
/// simulated cluster; every later plan for the key must be bit-identical to it.
class PlanBook {
 public:
  struct Entry {
    core::ConfiguratorResult plan;
    core::ExecutedOutcome outcome;
  };

  /// Runs a plan on the simulated cluster, falling back down its ranking on OOM.
  static core::ExecutedOutcome execute(const cluster::Topology& topo,
                                       const model::TrainingJob& job,
                                       const core::ConfiguratorResult& plan) {
    return core::execute_with_oom_fallback(topo, job, plan, sim::SimOptions{});
  }

  /// Registers a reference plan (computed independently of the served path)
  /// with its execution outcome.
  void add_reference(const PlanKey& key, core::ConfiguratorResult plan,
                     core::ExecutedOutcome outcome) {
    book_.insert_or_assign(key, Entry{std::move(plan), std::move(outcome)});
  }

  /// Checks a served result against the book. Returns false when the request
  /// counts as failed: a non-ok status, or a plan whose top choice OOMs on
  /// its first execution. Mismatches against the book are recorded in
  /// mismatches() and make the run incorrect.
  bool check(const PlanKey& key, const cluster::Topology& topo, const model::TrainingJob& job,
             const engine::ServiceResult& sr) {
    if (!sr.ok()) return false;
    return check(key, topo, job, sr.result);
  }
  bool check(const PlanKey& key, const cluster::Topology& topo, const model::TrainingJob& job,
             const core::ConfiguratorResult& res) {
    if (!res.found) return false;
    auto it = book_.find(key);
    if (it == book_.end()) {
      it = book_.insert({key, Entry{res, execute(topo, job, res)}}).first;
    } else {
      ++compared_;
      if (!same_result(it->second.plan, res)) ++mismatches_;
    }
    return it->second.outcome.success && it->second.outcome.attempts == 1;
  }

  const Entry* find(const PlanKey& key) const {
    auto it = book_.find(key);
    return it == book_.end() ? nullptr : &it->second;
  }
  long compared() const { return compared_; }
  long mismatches() const { return mismatches_; }

 private:
  std::map<PlanKey, Entry> book_;
  long compared_ = 0;
  long mismatches_ = 0;
};

// --------------------------------------------------------- the load loop

/// One completed request of a closed loop.
struct Served {
  std::size_t job = 0;  ///< index into the caller's job list
  double latency_s = 0.0;
  engine::ServiceResult sr;
};

/// Closed loop on the calling thread: `clients` requests stay outstanding as
/// submit_request futures; each completion is timed (submit to ready) and
/// immediately replaced by the next job from `next` until it returns false.
/// Readiness is polled every 200 us: coarse enough that the polling thread barely
/// competes with the pool for a core, fine enough against latencies of tens
/// of milliseconds. Returns the loop's wall time.
template <typename Next, typename Done>
double closed_loop(engine::ConfigService& svc, const std::vector<cluster::Topology>& topos,
                   const std::vector<std::pair<int, model::TrainingJob>>& jobs, int clients,
                   Next next, Done done) {
  struct Slot {
    std::future<engine::ServiceResult> fut;
    double t0 = 0.0;
    std::size_t job = 0;
    bool live = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(clients));
  const double start = common::monotonic_s();
  auto launch = [&](Slot& s) {
    std::size_t j = 0;
    if (!next(&j)) return;
    const auto& [topo_i, job] = jobs[j];
    s.job = j;
    s.t0 = common::monotonic_s();
    s.fut = svc.submit_request(topos[static_cast<std::size_t>(topo_i)], job);
    s.live = true;
  };
  for (auto& s : slots) launch(s);
  for (;;) {
    bool any_live = false, progressed = false;
    for (auto& s : slots) {
      if (!s.live) continue;
      any_live = true;
      if (s.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      Served out;
      out.latency_s = common::monotonic_s() - s.t0;
      out.job = s.job;
      out.sr = s.fut.get();
      s.live = false;
      progressed = true;
      done(std::move(out));
      launch(s);
    }
    if (!any_live) break;
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return common::monotonic_s() - start;
}

// ---------------------------------------------------------------- tracing

/// One closed span of a sink: its thread, interval on the sink's clock, and
/// self time — its duration minus the durations of its direct children on
/// the same thread.
struct SpanInstance {
  std::string name;
  int tid = 0;
  double t0_us = 0.0;
  double t1_us = 0.0;
  double self_s = 0.0;
  double dur_s() const { return (t1_us - t0_us) * 1e-6; }
};

inline std::vector<SpanInstance> span_instances(const obs::TraceSink& sink) {
  struct Open {
    std::string name;
    double t0_us;
    double child_us = 0.0;
  };
  std::map<int, std::vector<Open>> stacks;
  std::vector<SpanInstance> out;
  for (const auto& ev : sink.events()) {
    auto& st = stacks[ev.tid];
    if (ev.ph == 'B') {
      st.push_back({ev.name, ev.ts_us});
    } else if (ev.ph == 'E' && !st.empty()) {
      const Open o = st.back();
      st.pop_back();
      const double dur_us = ev.ts_us - o.t0_us;
      if (!st.empty()) st.back().child_us += dur_us;
      out.push_back({o.name, ev.tid, o.t0_us, ev.ts_us, (dur_us - o.child_us) * 1e-6});
    }
  }
  return out;
}

/// Per-span-name totals.
struct SpanStats {
  long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  Samples self;  ///< per-instance self time
};

inline std::map<std::string, SpanStats> span_stats(const std::vector<SpanInstance>& spans) {
  std::map<std::string, SpanStats> out;
  for (const auto& sp : spans) {
    SpanStats& s = out[sp.name];
    ++s.count;
    s.total_s += sp.dur_s();
    s.self_s += sp.self_s;
    s.self.add(sp.self_s);
  }
  return out;
}

// ----------------------------------------------------------------- output

/// Ordered name -> (value, unit) list, written as the result line's metrics map.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  void write(obs::JsonWriter& w) const {
    w.begin_object();
    for (const auto& m : items_) {
      w.key(m.name);
      w.begin_object();
      w.key("value");
      w.value(m.value);
      w.key("unit");
      w.value(m.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace ttp
