// Time-to-plan benchmark: how long a user waits for a recommended plan on
// the four paths of the configuration service — cold (never-seen cluster),
// warm (known cluster), restart (service rebuilt from a snapshot directory)
// and reconfigure (cluster resize) — plus the drain before a planned restart,
// with every plan checked for exactness and executed on the simulated
// cluster. See README.md for the workloads and the metric definitions.
//
//   time_to_plan --workload cold_new_cluster|warm_fleet_stream|restart_elastic
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//                [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the measured window
// twice (untraced, then with an obs::TraceSink on every service plus the
// benchmark's own spans), times each layer's public function in isolation on
// the workload's inputs, and prints the per-layer metrics. The last stdout
// line is the result object; the line before it ("detail ...") carries the
// machine fingerprint, sample counts, checks and both metric sets.
#include <unistd.h>

#include <array>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>

#include "cluster/profiler.h"
#include "common/cli.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "common/stats.h"
#include "estimators/compute_profile.h"
#include "engine/thread_pool.h"
#include "estimators/latency_models.h"
#include "harness.h"
#include "model/gpt_zoo.h"
#include "persist/codecs.h"
#include "persist/store.h"
#include "search/mapping_search.h"

namespace fs = std::filesystem;
using namespace pipette;
using ttp::Samples;

namespace {

constexpr long kSaIters = 4000;    ///< SA iteration cap per chain
constexpr int kMlpIters = 9000;    ///< MLP training steps (the benches' fast profile)
constexpr int kClients = 4;        ///< outstanding requests of the warm loops
constexpr long kMinWarm = 200;     ///< warm samples needed for a p95 with 10 beyond it
constexpr int kSetups = 3;         ///< set-ups per run; setup_s is their median
constexpr int kColdSetups = 1001;  ///< ... for cold_new_cluster, whose set-up takes ~0.2 ms
constexpr int kColdCycles = 24;    ///< resize/warm/drain/restart cycles of the cold round
constexpr int kColdCycleWarm = 14; ///< warm requests per cold cycle (24 x 14 >= kMinWarm)
constexpr int kCycleWarm = 8;      ///< warm requests per warm_fleet / restart_elastic cycle
constexpr int kFleetCycles = 20;   ///< resize/drain/restart cycles after the warm stream
/// Each window does a fixed amount of work, sized from --seconds by these
/// nominal rates (about one second of work each on a 4-vCPU host), so a run's
/// request count, and with it its failure count, is a function of the
/// arguments alone and not of the machine's speed.
constexpr double kStreamPerSecond = 80.0;         ///< warm_fleet_stream requests
constexpr double kRestartCyclesPerSecond = 3.0;   ///< restart_elastic cycles

/// The benches' fast profile (bench::pipette_options without --full), pinned
/// here so the benchmark does not drift when the figure benches change, with
/// an iteration-capped SA budget: plans are then deterministic and
/// thread-count-invariant, so they are checked bit for bit. Successive
/// halving runs without its elimination slack, so a request's SA work is a
/// function of its candidate count rather than of which near-ties a fabric's
/// heterogeneity draw produces (with the default 3 % band the same job takes
/// 15k-33k iterations across fabric draws).
core::PipetteOptions plan_options() {
  core::PipetteOptions opt;
  opt.use_worker_dedication = true;
  opt.sa_top_k = 6;
  opt.sa.max_iters = kSaIters;
  opt.sa.time_limit_s = 1e9;
  opt.sa_halving.keep_slack = 0.0;
  opt.memory_training.hidden = {128, 128};
  opt.memory_training.train.iters = kMlpIters;
  opt.memory_training.soft_margin = 0.20;
  return opt;
}

cluster::Topology fabric(bool high, int nodes, std::uint64_t seed) {
  return cluster::Topology(high ? cluster::high_end_cluster(nodes)
                                : cluster::mid_range_cluster(nodes),
                           cluster::HeterogeneityOptions{}, seed);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return common::hash_combine(common::hash_combine(seed, a), b);
}

/// Hands out the indices of an n-job pool in seed-shuffled passes, each
/// index once per pass, so every job is served equally often. A random draw
/// would move the pool's mix, and with it the latency median, from run to run.
class Deck {
 public:
  Deck(std::size_t n, std::uint64_t seed) : order_(n), rng_(seed) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }
  std::size_t next() {
    if (pos_ == 0) rng_.shuffle(order_);
    const std::size_t j = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return j;
  }

 private:
  std::vector<std::size_t> order_;
  common::Rng rng_;
  std::size_t pos_ = 0;
};

bool is_high(const cluster::Topology& t) {
  return t.spec().gpu_memory_bytes > cluster::mid_range_cluster(1).gpu_memory_bytes;
}

model::TrainingJob weak_job(const cluster::Topology& topo, int batch = 512) {
  return {model::weak_scaled_model(topo.num_gpus(), is_high(topo)), batch};
}

/// Models served warm on a fabric, by tier.
const std::vector<model::TransformerConfig>& tier_models(bool high) {
  static const std::vector<model::TransformerConfig> mid = {model::gpt_774m(), model::gpt_1_1b(),
                                                            model::gpt_3_1b()};
  static const std::vector<model::TransformerConfig> hi = {model::gpt_2_2b(), model::gpt_8_1b(),
                                                           model::gpt_11_1b()};
  return high ? hi : mid;
}

/// The warm job pool of fabric `ti`: its tier's models x four batch sizes.
std::vector<std::pair<int, model::TrainingJob>> tier_pool(const cluster::Topology& topo, int ti) {
  std::vector<std::pair<int, model::TrainingJob>> jobs;
  for (const auto& m : tier_models(is_high(topo))) {
    for (int b : {128, 256, 512, 1024}) jobs.push_back({ti, {m, b}});
  }
  return jobs;
}

/// Which latency path a served request belongs to.
enum class Path { kCold, kWarm, kRestart, kReconfigure };

/// Everything one measured window produced.
struct Pass {
  Samples cold, warm, restart, reconf, drain;
  long warm_done = 0;
  double warm_wall_s = 0.0;
  long attempted = 0, failed = 0;
  /// Every request's own latency (submit to ready) and the count, for the
  /// queue-wait derivation against the service's request spans.
  Samples request_latency;
  // Per-request phase fields of the warm-path requests.
  Samples filter_s, score_s, sa_s, sa_cpu_s, sa_share;
  long sa_iters = 0, sa_rungs = 0, sa_saved = 0;
  /// Requests and SA iterations by path (indexed by Path): the work behind
  /// each latency, the same on every run of a seed.
  std::array<long, 4> path_n{}, path_sa_iters{};
  long shapes_profiled = 0, shapes_reused = 0, mem_reused = 0;
  engine::ClusterCacheStats cache;
  long records_written = 0, write_failures = 0;
  /// Closed-loop self-check: summed latencies never exceed wall x clients.
  bool latency_sum_ok = true;
  /// Services that must not have trained (warm / restarted), and how many did.
  long no_train_services = 0, unexpected_trainings = 0;
  double wall_s = 0.0;
};

void add_stats(engine::ClusterCacheStats& into, const engine::ClusterCacheStats& s) {
  into.lookups += s.lookups;
  into.hits += s.hits;
  into.profiles_run += s.profiles_run;
  into.trainings_run += s.trainings_run;
}

/// Ground truth for mem_mape_pct: a cold request's full-cluster plans with
/// their simulated peak memory, and (once served) the estimator it trained.
struct MemoryTruth {
  model::TrainingJob job;
  std::vector<parallel::TrainPlan> plans;
  std::vector<double> actual;
  std::shared_ptr<const estimators::MlpMemoryEstimator> est;
};

/// Every measurable (fits in GPU memory) plain plan of `job` on the whole
/// cluster — the Fig. 7 evaluation set.
MemoryTruth memory_truth(const cluster::Topology& topo, const model::TrainingJob& job) {
  MemoryTruth t;
  t.job = job;
  const auto& spec = topo.spec();
  for (const auto& pc : parallel::enumerate_parallel_configs(
           topo.num_gpus(), topo.gpus_per_node(), job.model.num_layers, {})) {
    for (int micro : parallel::micro_batch_options(job.global_batch, pc, {})) {
      const parallel::TrainPlan plan{pc, micro};
      const auto mem = sim::simulate_peak_memory(spec, job, plan, estimators::kMemoryUniverseSeed);
      if (mem.total_bytes > spec.gpu_memory_bytes) continue;
      t.plans.push_back(plan);
      t.actual.push_back(mem.total_bytes);
    }
  }
  return t;
}

/// A plan whose simulated iteration time enters plan_sim_iter_s.
struct QualityItem {
  ttp::PlanKey key;
  cluster::Topology topo;
  model::TrainingJob job;
};

/// One cold request: a never-seen cluster, its weak-scaled job, the size the
/// cluster is resized to, and whether the round's warm, resize, drain and
/// restart requests run on it.
struct ColdRequest {
  cluster::Topology topo;
  cluster::Topology resized;
  model::TrainingJob job;
  bool cycles = false;
};

/// The cold loop's round: every {mid-range, high-end} x {4, 8, 16}
/// class once, in a seed-shuffled order, each on its own seed-derived
/// 16-node fabric (smaller clusters are its first nodes; the resize grows
/// 4 -> 8 and 8 -> 12, or shrinks 16 -> 12). The warm, resize, drain and
/// restart requests run on the mid-range 8-node cluster only: spread over the
/// six classes, their medians would sit on the border between two of them.
std::vector<ColdRequest> cold_round(std::uint64_t seed) {
  const std::vector<std::pair<bool, int>> classes = {{false, 4}, {false, 8}, {false, 16},
                                                     {true, 4},  {true, 8},  {true, 16}};
  std::vector<int> order(classes.size());
  std::iota(order.begin(), order.end(), 0);
  common::Rng rng(derive(seed, 0xc01d));
  rng.shuffle(order);
  std::vector<ColdRequest> out;
  for (int ci : order) {
    const auto [high, nodes] = classes[static_cast<std::size_t>(ci)];
    const auto full = fabric(high, 16, derive(seed, 0, ci));
    const auto topo = nodes == 16 ? full : full.sub_cluster(nodes);
    out.push_back(
        {topo, full.sub_cluster(nodes == 4 ? 8 : 12), weak_job(topo), !high && nodes == 8});
  }
  return out;
}

class Bench {
 public:
  Bench(std::string workload, std::uint64_t seed, double seconds, bool trace, fs::path work,
        int threads)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        work_(std::move(work)),
        opt_(plan_options()),
        threads_(threads) {}

  int run(const std::string& trace_out);

 private:
  // --- services and the request primitives shared by every workload ---
  /// A service over `dir`, traced into sink_ during the traced pass.
  std::unique_ptr<engine::ConfigService> service(const fs::path& dir) const {
    engine::ConfigServiceOptions so;
    so.threads = threads_;
    so.pipette = opt_;
    so.trace = sink_;
    so.cache.snapshot_dir = dir.string();
    return std::make_unique<engine::ConfigService>(so);
  }

  /// Books one served request. A failure (non-ok status, or a top plan that
  /// OOMs on its first execution) is counted and tallied by request.
  void note(Pass& p, Path path, double latency, const engine::ServiceResult& sr, bool ok,
            const cluster::Topology& topo, const model::TrainingJob& job) {
    ++p.attempted;
    if (!ok) {
      ++p.failed;
      ++failures_[job.model.name + " batch " + std::to_string(job.global_batch) + " on " +
                  std::to_string(topo.num_gpus()) + " " + topo.spec().name + " GPUs: " +
                  engine::to_string(sr.status) + ", plan " + sr.result.best.str()];
    }
    p.request_latency.add(latency);
    const auto& r = sr.result;
    p.sa_iters += r.sa_iters;
    ++p.path_n[static_cast<std::size_t>(path)];
    p.path_sa_iters[static_cast<std::size_t>(path)] += r.sa_iters;
    p.sa_rungs += r.sa_rungs;
    p.sa_saved += r.sa_iters_saved;
    p.shapes_profiled += r.shapes_profiled;
    p.shapes_reused += r.shapes_reused;
    p.mem_reused += r.mem_est_reused;
    if (path == Path::kWarm) {
      p.filter_s.add(r.mem_est_wall_s);
      p.score_s.add(r.score_wall_s);
      p.sa_s.add(r.search_wall_s);
      p.sa_cpu_s.add(r.search_cpu_s);
      if (latency > 0.0) p.sa_share.add(r.search_wall_s / latency);
    }
  }

  /// One sequential request, timed submit-to-plan.
  engine::ServiceResult serve(Pass& p, Path path, engine::ConfigService& svc,
                              const cluster::Topology& topo, const model::TrainingJob& job,
                              double* latency_out = nullptr) {
    obs::Span span(sink_, path == Path::kCold ? "bench.cold_plan" : "bench.first_plan");
    const double t0 = common::monotonic_s();
    engine::ServiceResult sr = svc.submit_request(topo, job).get();
    const double lat = common::monotonic_s() - t0;
    note(p, path, lat, sr, book_.check(ttp::plan_key(topo, job), topo, job, sr), topo, job);
    if (latency_out) *latency_out = lat;
    return sr;
  }

  /// One elastic resize through the service's reconfigure(); returns its
  /// latency.
  double reconfigure(Pass& p, engine::ConfigService& svc, const cluster::Topology& from,
                     const cluster::Topology& to, const model::TrainingJob& job,
                     const core::ConfiguratorResult& prev) {
    obs::Span span(sink_, "bench.reconfigure");
    const double t0 = common::monotonic_s();
    engine::ServiceResult sr;
    try {
      sr.result = svc.reconfigure(to, job, prev).get();
    } catch (const std::exception& e) {
      sr.status = engine::ServiceStatus::kInternalError;
      sr.error = e.what();
    }
    const double lat = common::monotonic_s() - t0;
    note(p, Path::kReconfigure, lat, sr, book_.check(ttp::plan_key(to, job, &from), to, job, sr),
         to, job);
    return lat;
  }

  /// `count` requests over `jobs`, drawn from `deck`, with kClients outstanding.
  void warm_burst(Pass& p, engine::ConfigService& svc, const std::vector<cluster::Topology>& topos,
                  const std::vector<std::pair<int, model::TrainingJob>>& jobs, long count,
                  Deck& deck) {
    long launched = 0;
    double lat_sum = 0.0;
    obs::Span span(sink_, "bench.warm_loop");
    const double wall = ttp::closed_loop(
        svc, topos, jobs, kClients,
        [&](std::size_t* j) {
          if (launched >= count) return false;
          ++launched;
          *j = deck.next();
          return true;
        },
        [&](ttp::Served s) { record_warm(p, topos, jobs, s, &lat_sum); });
    p.warm_wall_s += wall;
    if (lat_sum > wall * kClients + 1e-6) p.latency_sum_ok = false;
  }

  void record_warm(Pass& p, const std::vector<cluster::Topology>& topos,
                   const std::vector<std::pair<int, model::TrainingJob>>& jobs,
                   const ttp::Served& s, double* lat_sum) {
    const auto& [ti, job] = jobs[s.job];
    const auto& topo = topos[static_cast<std::size_t>(ti)];
    p.warm.add(s.latency_s);
    ++p.warm_done;
    *lat_sum += s.latency_s;
    note(p, Path::kWarm, s.latency_s, s.sr, book_.check(ttp::plan_key(topo, job), topo, job, s.sr),
         topo, job);
  }

  /// A planned restart: a service constructed on a snapshot directory (it
  /// loads the snapshots) and its first plan, timed together.
  std::unique_ptr<engine::ConfigService> restart(Pass& p, const fs::path& dir,
                                                 const cluster::Topology& topo,
                                                 const model::TrainingJob& job,
                                                 core::ConfiguratorResult* first = nullptr) {
    obs::Span span(sink_, "bench.restart");
    const double t0 = common::monotonic_s();
    auto svc = service(dir);
    auto sr = serve(p, Path::kRestart, *svc, topo, job);
    p.restart.add(common::monotonic_s() - t0);
    if (first) *first = std::move(sr.result);
    return svc;
  }

  void drain(Pass& p, engine::ConfigService& svc) {
    const long before = svc.persisted_records();
    const long fail_before = svc.persist_failures();
    obs::Span span(sink_, "bench.drain");
    const double t0 = common::monotonic_s();
    svc.flush_snapshots();
    p.drain.add(common::monotonic_s() - t0);
    p.records_written += svc.persisted_records() - before;
    p.write_failures += svc.persist_failures() - fail_before;
  }

  /// Records a service's cache counters; `expect_no_training` services (warm
  /// or restarted) must have trained nothing.
  void retire(Pass& p, const engine::ConfigService& svc, bool expect_no_training) {
    const auto st = svc.cache_stats();
    add_stats(p.cache, st);
    if (expect_no_training) {
      ++p.no_train_services;
      p.unexpected_trainings += st.trainings_run;
    }
  }

  /// One reference plan to compute: a fresh 1-thread configurator under the
  /// estimator the service trained, configure() or (with `prev`) reconfigure().
  struct RefTask {
    ttp::PlanKey key;
    cluster::Topology topo;
    model::TrainingJob job;
    const core::ConfiguratorResult* prev = nullptr;
    std::shared_ptr<const estimators::MlpMemoryEstimator> est;
  };

  /// Computes and executes the references (each single-threaded, several at
  /// once) and registers them in the plan book.
  void add_references(const std::vector<RefTask>& tasks) {
    std::vector<core::ConfiguratorResult> plans(tasks.size());
    std::vector<core::ExecutedOutcome> outcomes(tasks.size());
    engine::ThreadPool pool(threads_);
    pool.parallel_for(static_cast<int>(tasks.size()), [&](int i) {
      const RefTask& t = tasks[static_cast<std::size_t>(i)];
      core::PipetteOptions o = opt_;
      o.memory = t.est;
      core::PipetteConfigurator cfg(o);
      auto& plan = plans[static_cast<std::size_t>(i)];
      plan = t.prev ? cfg.reconfigure(t.topo, t.job, *t.prev) : cfg.configure(t.topo, t.job);
      outcomes[static_cast<std::size_t>(i)] = ttp::PlanBook::execute(t.topo, t.job, plan);
    });
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      book_.add_reference(tasks[i].key, std::move(plans[i]), std::move(outcomes[i]));
    }
  }

  fs::path fresh_dir(const std::string& name) {
    const fs::path d = work_ / name;
    fs::remove_all(d);
    return d;
  }

  // --- workloads: set-up (repeated kSetups times), references, window ---
  void cold_setup();
  void cold_window(Pass& p, bool record_quality);
  /// Memory ground truth for the fleet's priming (cold) requests.
  void prime_inputs() {
    truth_.clear();
    for (const auto& topo : fleet_) truth_.push_back(memory_truth(topo, weak_job(topo)));
  }
  /// Primes a service on fleet_: first one fabric per tier, together — full
  /// cold requests (profile, memory dataset, training, search), timed into
  /// the cold_plan_s samples — then the rest of the fleet together.
  void prime(engine::ConfigService& svc);
  void warm_setup();
  void warm_prepare();
  void warm_window(Pass& p, double seconds);
  void restart_setup();
  void restart_prepare();
  void restart_window(Pass& p, double seconds);
  void setup();
  void prepare();
  /// One measured window; services built during it trace into `sink`.
  void window(Pass& p, double seconds, obs::TraceSink* sink, bool first);

  // --- per-layer probes (trace mode) ---
  void probes(ttp::Metrics& m, const Pass& traced);

  double plan_sim_iter_s() const;
  double mem_mape_pct() const;

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  fs::path work_;
  core::PipetteOptions opt_;
  int threads_;
  ttp::PlanBook book_;
  std::map<std::string, long> failures_;  ///< failed requests by description
  obs::TraceSink* sink_ = nullptr;  ///< the traced pass's sink, else null
  Samples setup_s_;
  Pass setup_pass_;  ///< requests served during set-up (cold samples)

  std::vector<QualityItem> quality_;
  std::vector<MemoryTruth> truth_;
  std::vector<ColdRequest> round_;  ///< cold_new_cluster's requests
  /// Layer-probe inputs: the workload's fabrics and primary jobs, and a
  /// snapshot directory it produced.
  std::vector<cluster::Topology> probe_topos_;
  std::vector<model::TrainingJob> probe_jobs_;
  fs::path probe_dir_;

  // warm_fleet_stream / restart_elastic state
  std::vector<cluster::Topology> fleet_;  ///< primed fabrics
  std::vector<cluster::Topology> grown_;  ///< resize target per fabric
  std::vector<std::pair<int, model::TrainingJob>> pool_;
  std::vector<core::ConfiguratorResult> primed_;  ///< cold plan per fabric
  std::unique_ptr<engine::ConfigService> live_;   ///< the long-lived service
  fs::path pristine_;  ///< post-priming snapshot directory the cycles copy
};

// ----------------------------------------------------- cold_new_cluster

void Bench::cold_setup() {
  // Nothing is primed: every measured request meets a never-seen cluster.
  // Set-up builds the round's inputs and their memory ground truth.
  round_ = cold_round(seed_);
  truth_.clear();
  for (const auto& r : round_) truth_.push_back(memory_truth(r.topo, r.job));
}

void Bench::cold_window(Pass& p, bool record_quality) {
  // One round, a fixed amount of work: its six trainings alone take longer
  // than the default --seconds.
  const auto& reqs = round_;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& [topo, resized, job, cycles] = reqs[i];
    const std::string name = "cold-" + std::to_string(i);
    fs::path dir = fresh_dir(name);
    auto svc = service(dir);
    double lat = 0.0;
    const auto cold = serve(p, Path::kCold, *svc, topo, job, &lat);
    p.cold.add(lat);
    if (record_quality && cold.ok()) {
      quality_.push_back({ttp::plan_key(topo, job), topo, job});
      truth_[i].est = cold.result.memory_estimator;
      probe_topos_.push_back(topo);
      probe_jobs_.push_back(job);
    }
    if (cycles) {
      // The cluster is now known: kColdCycles x (resize, requests of the
      // tier's job pool from 4 clients, drain, planned restart on a fresh
      // copy of the drained directory: no training, the cold plan again).
      // The pool is served evenly, so the warm median does not rest on
      // one job's plan for this seed's fabric; from the second cycle on,
      // every shape is cached and each drain writes the same caches.
      // Restarting on a copy, as restart_elastic does, keeps every drain a
      // write of new files: replacing a record an earlier drain fsynced
      // also pays the filesystem's discard of the old blocks, about 70 ms
      // per record on a discard-mounted virtual disk and too noisy to gate on.
      const std::vector<cluster::Topology> topos = {topo};
      const auto jobs = tier_pool(topo, 0);
      Deck deck(jobs.size(), derive(seed_, 0xb0257));
      for (int c = 0; c < kColdCycles; ++c) {
        if (cold.ok()) p.reconf.add(reconfigure(p, *svc, topo, resized, job, cold.result));
        warm_burst(p, *svc, topos, jobs, kColdCycleWarm, deck);
        drain(p, *svc);
        retire(p, *svc, c > 0);
        svc.reset();
        const fs::path copy = fresh_dir(name + "-" + std::to_string(c));
        fs::copy(dir, copy, fs::copy_options::recursive);
        fs::remove_all(dir);
        dir = copy;
        svc = restart(p, dir, topo, job);
      }
    }
    retire(p, *svc, cycles);
    svc.reset();
    if (!cycles) {
      fs::remove_all(dir);
    } else {
      if (!probe_dir_.empty() && probe_dir_ != dir) fs::remove_all(probe_dir_);
      probe_dir_ = dir;  // the persist probes load this directory
    }
  }
}

// ----------------------------------------------------- warm_fleet_stream

void Bench::prime(engine::ConfigService& svc) {
  primed_.assign(fleet_.size(), {});
  std::set<std::uint64_t> trained;
  std::vector<std::size_t> trainers, rest;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const auto digest = estimators::MlpMemoryEstimator::training_digest(fleet_[i].spec(),
                                                                        opt_.memory_training);
    (trained.insert(digest).second ? trainers : rest).push_back(i);
  }
  auto serve_all = [&](const std::vector<std::size_t>& idx, bool timed) {
    std::vector<std::future<engine::ServiceResult>> futs;
    const double t0 = common::monotonic_s();
    for (std::size_t i : idx) futs.push_back(svc.submit_request(fleet_[i], weak_job(fleet_[i])));
    for (std::size_t k = 0; k < idx.size(); ++k) {
      engine::ServiceResult sr = futs[k].get();
      if (timed) setup_pass_.cold.add(common::monotonic_s() - t0);
      ++setup_pass_.attempted;
      if (!sr.ok()) ++setup_pass_.failed;
      primed_[idx[k]] = std::move(sr.result);
    }
  };
  {
    obs::Span span(sink_, "bench.cold_plan");
    serve_all(trainers, true);
  }
  serve_all(rest, false);
}

void Bench::warm_setup() {
  // A small fleet over both tiers: an 8- and a 16-node slice of two 16-node
  // fabrics per tier, each resized to 12 nodes in the post-stream cycles.
  fleet_.clear();
  grown_.clear();
  for (std::uint64_t u = 0; u < 2; ++u) {
    for (bool high : {false, true}) {
      const auto full = fabric(high, 16, derive(seed_, 0xf1ee7, 2 * u + high));
      fleet_.push_back(full.sub_cluster(8));
      grown_.push_back(full.sub_cluster(12));
      fleet_.push_back(full);
      grown_.push_back(full.sub_cluster(12));
    }
  }
  prime_inputs();
  live_.reset();
  const fs::path dir = fresh_dir("warm-live");
  live_ = service(dir);
  probe_dir_ = dir;
  prime(*live_);
  // The post-priming snapshot the resize / drain / restart cycles start from.
  live_->flush_snapshots();
  pristine_ = fresh_dir("warm-pristine");
  fs::copy(dir, pristine_, fs::copy_options::recursive);
}

void Bench::warm_prepare() {
  // The set-up's cold plans, then a reference for every other pool job.
  std::vector<RefTask> refs;
  std::set<ttp::PlanKey> known;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const auto& topo = fleet_[i];
    const auto job = weak_job(topo);
    const auto key = ttp::plan_key(topo, job);
    book_.add_reference(key, primed_[i], ttp::PlanBook::execute(topo, job, primed_[i]));
    known.insert(key);
    quality_.push_back({key, topo, job});
    truth_[i].est = primed_[i].memory_estimator;
    probe_topos_.push_back(topo);
    probe_jobs_.push_back(job);
  }
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    for (const auto& entry : tier_pool(fleet_[i], static_cast<int>(i))) {
      const auto& job = entry.second;
      const auto key = ttp::plan_key(fleet_[i], job);
      pool_.push_back(entry);
      if (!known.insert(key).second) continue;
      refs.push_back({key, fleet_[i], job, nullptr, primed_[i].memory_estimator});
      quality_.push_back({key, fleet_[i], job});
    }
  }
  add_references(refs);
}

void Bench::warm_window(Pass& p, double seconds) {
  // The long-lived service was built without a sink; a traced pass serves
  // from a second service restarted on the same snapshots (no training).
  std::unique_ptr<engine::ConfigService> traced;
  engine::ConfigService* svc = live_.get();
  if (sink_) {
    live_->flush_snapshots();
    traced = service(probe_dir_);
    svc = traced.get();
  }
  const auto stats_before = svc->cache_stats();

  // Closed loop, kClients outstanding: alternately a job already served in
  // this window (a repeat) and the next never-served pool job while any are
  // left, in a seed-shuffled order.
  common::Rng rng(derive(seed_, 0x5a17, p.attempted));
  std::vector<std::size_t> order(pool_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<std::size_t> seen;
  std::size_t next_new = 0;
  long launched = 0;
  const long requests = std::max(kMinWarm + kClients, std::lround(seconds * kStreamPerSecond));
  double lat_sum = 0.0;
  auto loop_span = std::make_unique<obs::Span>(sink_, "bench.warm_loop");
  const double wall = ttp::closed_loop(
      *svc, fleet_, pool_, kClients,
      [&](std::size_t* j) {
        if (launched >= requests) return false;
        const bool repeat = (launched++ % 2 == 0 && !seen.empty()) || next_new >= order.size();
        if (repeat) {
          *j = seen[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(seen.size()) - 1))];
        } else {
          *j = order[next_new++];
          seen.push_back(*j);
        }
        return true;
      },
      [&](ttp::Served s) { record_warm(p, fleet_, pool_, s, &lat_sum); });
  loop_span.reset();
  p.warm_wall_s += wall;
  if (lat_sum > wall * kClients + 1e-6) p.latency_sum_ok = false;
  // Restart, resize, warm and drain cycles, each on a fresh copy of the
  // post-priming snapshot directory: flush_snapshots() rewrites every shape
  // cache in full, and the stream's caches make that an fsync-bound write of
  // about a megabyte whose time follows the disk, not the code. The cycles
  // all run on the first mid-range 8-node fabric: spread over two fabrics,
  // the restart and resize medians would sit on the border between them.
  constexpr std::size_t f = 0;
  const auto cycle_jobs = tier_pool(fleet_[f], static_cast<int>(f));
  Deck deck(cycle_jobs.size(), derive(seed_, 0xdec));
  for (int c = 0; c < kFleetCycles; ++c) {
    const auto job = weak_job(fleet_[f]);
    const fs::path dir = fresh_dir("warm-cycle");
    fs::copy(pristine_, dir, fs::copy_options::recursive);
    core::ConfiguratorResult first;
    auto again = restart(p, dir, fleet_[f], job, &first);
    if (first.found) p.reconf.add(reconfigure(p, *again, fleet_[f], grown_[f], job, first));
    warm_burst(p, *again, fleet_, cycle_jobs, kCycleWarm, deck);
    drain(p, *again);
    retire(p, *again, true);
    again.reset();
    fs::remove_all(dir);
  }
  const auto st = svc->cache_stats();
  engine::ClusterCacheStats delta;
  delta.lookups = st.lookups - stats_before.lookups;
  delta.hits = st.hits - stats_before.hits;
  delta.profiles_run = st.profiles_run - stats_before.profiles_run;
  delta.trainings_run = st.trainings_run - stats_before.trainings_run;
  add_stats(p.cache, delta);
  ++p.no_train_services;
  p.unexpected_trainings += delta.trainings_run;
}

// ----------------------------------------------------- restart_elastic

void Bench::restart_setup() {
  // Grow a mid-range fabric 8 -> 12 nodes and shrink a high-end one
  // 16 -> 12: both stay above the estimator's 4-node training clamp. Set-up
  // writes a pristine snapshot directory for them: both fabrics primed cold,
  // then drained.
  const auto mid = fabric(false, 16, derive(seed_, 0x8e5, 0));
  const auto high = fabric(true, 16, derive(seed_, 0x8e5, 1));
  fleet_ = {mid.sub_cluster(8), high};
  grown_ = {mid.sub_cluster(12), high.sub_cluster(12)};
  prime_inputs();
  const fs::path dir = fresh_dir("pristine");
  auto svc = service(dir);
  prime(*svc);
  svc->flush_snapshots();
  svc.reset();
  pristine_ = dir;
  probe_dir_ = dir;
}

void Bench::restart_prepare() {
  // First plans after a restart must equal the set-up's cold plans, resizes
  // a 1-thread configurator's reconfigure(), warm plans its configure().
  // Warm requests go to the mid-range fabric only: half on each fabric, the
  // warm median would sit on the border between the two.
  std::vector<RefTask> refs;
  std::set<ttp::PlanKey> known;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const auto& topo = fleet_[i];
    const auto job = weak_job(topo);
    const auto key = ttp::plan_key(topo, job);
    const auto grown_key = ttp::plan_key(grown_[i], job, &topo);
    book_.add_reference(key, primed_[i], ttp::PlanBook::execute(topo, job, primed_[i]));
    known.insert(key);
    refs.push_back({grown_key, grown_[i], job, &primed_[i], primed_[i].memory_estimator});
    quality_.push_back({key, topo, job});
    quality_.push_back({grown_key, grown_[i], job});
    truth_[i].est = primed_[i].memory_estimator;
    probe_topos_.push_back(topo);
    probe_jobs_.push_back(job);
  }
  pool_ = tier_pool(fleet_[0], 0);
  for (const auto& [ti, j] : pool_) {
    const auto k = ttp::plan_key(fleet_[0], j);
    if (!known.insert(k).second) continue;
    refs.push_back({k, fleet_[0], j, nullptr, primed_[0].memory_estimator});
  }
  add_references(refs);
}

void Bench::restart_window(Pass& p, double seconds) {
  Deck deck(pool_.size(), derive(seed_, 0x4e57, p.attempted));
  const long cycles = std::max((kMinWarm + kCycleWarm - 1) / kCycleWarm,
                               std::lround(seconds * kRestartCyclesPerSecond));
  for (long cycle = 0; cycle < cycles; ++cycle) {
    const fs::path dir = fresh_dir("cycle");
    fs::copy(pristine_, dir, fs::copy_options::recursive);
    // Construct on the copy (loads the snapshots) and serve the first
    // request per fabric; restart_plan_s runs to the first fabric's plan.
    std::vector<core::ConfiguratorResult> first(fleet_.size());
    auto svc = restart(p, dir, fleet_[0], weak_job(fleet_[0]), &first[0]);
    for (std::size_t f = 1; f < fleet_.size(); ++f) {
      first[f] = serve(p, Path::kRestart, *svc, fleet_[f], weak_job(fleet_[f])).result;
    }
    // One resize sample per cycle, the mean of its grow and its shrink: a
    // median over both kinds would sit on the border between them.
    double resize_sum = 0.0;
    int resized = 0;
    for (std::size_t f = 0; f < fleet_.size(); ++f) {
      if (!first[f].found) continue;
      resize_sum += reconfigure(p, *svc, fleet_[f], grown_[f], weak_job(fleet_[f]), first[f]);
      ++resized;
    }
    if (resized > 0) p.reconf.add(resize_sum / resized);
    warm_burst(p, *svc, fleet_, pool_, kCycleWarm, deck);
    drain(p, *svc);
    retire(p, *svc, true);
    svc.reset();
    fs::remove_all(dir);
  }
}

// ----------------------------------------------------- dispatch

void Bench::setup() {
  if (workload_ == "cold_new_cluster") {
    cold_setup();
  } else if (workload_ == "warm_fleet_stream") {
    warm_setup();
  } else {
    restart_setup();
  }
}

void Bench::prepare() {
  if (workload_ == "warm_fleet_stream") warm_prepare();
  if (workload_ == "restart_elastic") restart_prepare();
}

void Bench::window(Pass& p, double seconds, obs::TraceSink* sink, bool first) {
  sink_ = sink;
  const double t0 = common::monotonic_s();
  if (workload_ == "cold_new_cluster") {
    cold_window(p, first);
  } else if (workload_ == "warm_fleet_stream") {
    warm_window(p, seconds);
  } else {
    restart_window(p, seconds);
  }
  p.wall_s = common::monotonic_s() - t0;
}

// ----------------------------------------------------- quality guards

double Bench::plan_sim_iter_s() const {
  Samples t;
  for (const auto& q : quality_) {
    const auto* e = book_.find(q.key);
    if (e && e->outcome.success) t.add(e->outcome.run.time_s);
  }
  return t.geomean();
}

double Bench::mem_mape_pct() const {
  std::vector<double> est, actual;
  for (const auto& t : truth_) {
    if (!t.est) continue;
    for (std::size_t i = 0; i < t.plans.size(); ++i) {
      est.push_back(t.est->estimate_bytes(t.job, t.plans[i]));
      actual.push_back(t.actual[i]);
    }
  }
  return actual.empty() ? 0.0 : common::mape_percent(est, actual);
}

// ----------------------------------------------------- layer probes

/// Runs `fn` until at least `min_s` elapsed; returns (calls, seconds).
template <typename Fn>
std::pair<long, double> time_repeated(double min_s, Fn fn) {
  long calls = 0;
  const double t0 = common::monotonic_s();
  double el = 0.0;
  do {
    fn();
    ++calls;
    el = common::monotonic_s() - t0;
  } while (el < min_s);
  return {calls, el};
}

long dir_bytes(const fs::path& d) {
  long total = 0;
  for (const auto& e : fs::directory_iterator(d)) {
    if (e.is_regular_file()) total += static_cast<long>(e.file_size());
  }
  return total;
}

void Bench::probes(ttp::Metrics& m, const Pass& tp) {
  // cluster: the profiling run per fabric. Its real cost is tiny; sim_s is
  // the modelled Table II cost and is never added into a timing.
  Samples prof_wall, prof_meas, prof_sim;
  std::vector<cluster::ProfileResult> profiles;
  for (const auto& topo : probe_topos_) {
    obs::Span span(sink_, "bench.probe.profile_network");
    const double t0 = common::monotonic_s();
    profiles.push_back(cluster::profile_network(topo, opt_.profile));
    prof_wall.add(common::monotonic_s() - t0);
    prof_meas.add(profiles.back().num_measurements);
    prof_sim.add(profiles.back().wall_time_s);
  }
  m.set("cluster.profile.calls", static_cast<double>(prof_wall.n()), "count");
  m.set("cluster.profile.wall_s", prof_wall.median(), "s");
  m.set("cluster.profile.measurements", prof_meas.median(), "count");
  m.set("cluster.profile.sim_s", prof_sim.median(), "s_sim");

  // sim + mlp: train_for_cluster at 0 steps (dataset generation only) and at
  // the full step count, once per distinct training digest.
  Samples rows, ds_wall, fit_wall;
  std::map<std::uint64_t, std::shared_ptr<const estimators::MlpMemoryEstimator>> trained;
  for (const auto& topo : probe_topos_) {
    const auto digest =
        estimators::MlpMemoryEstimator::training_digest(topo.spec(), opt_.memory_training);
    if (trained.count(digest)) continue;
    estimators::MlpMemoryOptions mo0 = opt_.memory_training;
    mo0.train.iters = 0;
    double t0 = common::monotonic_s();
    {
      obs::Span span(sink_, "bench.probe.memory_dataset");
      const auto e0 = estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(), mo0);
      rows.add(e0.dataset_size());
    }
    const double w0 = common::monotonic_s() - t0;
    t0 = common::monotonic_s();
    {
      obs::Span span(sink_, "bench.probe.mlp_train");
      trained[digest] = std::make_shared<const estimators::MlpMemoryEstimator>(
          estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(),
                                                            opt_.memory_training));
    }
    const double wn = common::monotonic_s() - t0;
    ds_wall.add(w0);
    fit_wall.add(wn - w0);
  }
  m.set("sim.memory_dataset.rows", rows.median(), "count");
  m.set("sim.memory_dataset.wall_s", ds_wall.median(), "s");
  m.set("mlp.fit.wall_s", fit_wall.median(), "s");
  m.set("mlp.fit.steps", kMlpIters, "count");
  m.set("mlp.fit.steps_per_s", kMlpIters / fit_wall.median(), "1/s");
  m.set("mlp.fit.share", 0.0, "ratio");  // from the trace, in run()

  // estimators: memory-filter inferences and compute-shape profiling over
  // each primary job's full-cluster base plans.
  long inferences = 0, shapes = 0;
  double inf_s = 0.0, shape_s = 0.0;
  for (std::size_t i = 0; i < probe_topos_.size(); ++i) {
    const auto& topo = probe_topos_[i];
    const auto& job = probe_jobs_[i];
    const auto& est = trained.at(
        estimators::MlpMemoryEstimator::training_digest(topo.spec(), opt_.memory_training));
    const auto plans = parallel::enumerate_base_plans(topo.num_gpus(), topo.gpus_per_node(),
                                                      job.model.num_layers, job.global_batch,
                                                      opt_.constraints);
    {
      obs::Span span(sink_, "bench.probe.estimate_bytes");
      double sink_bytes = 0.0;
      const auto [calls, el] = time_repeated(0.02, [&] {
        for (const auto& plan : plans) sink_bytes += est->estimate_bytes(job, plan);
      });
      inferences += calls * static_cast<long>(plans.size());
      inf_s += el;
      if (!(sink_bytes > 0.0)) throw std::runtime_error("estimate_bytes returned no bytes");
    }
    std::map<estimators::ComputeShapeKey, std::size_t> distinct;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      distinct.emplace(estimators::ComputeShapeKey::of(job, plans[k]), k);
    }
    obs::Span span(sink_, "bench.probe.profile_compute");
    const double t0 = common::monotonic_s();
    for (const auto& [key, k] : distinct) {
      (void)estimators::profile_compute(topo, job, plans[k], opt_.compute_profile);
    }
    shape_s += common::monotonic_s() - t0;
    shapes += static_cast<long>(distinct.size());
  }
  m.set("estimators.mem_filter.wall_s", tp.filter_s.median(), "s");
  m.set("estimators.mem_filter.inferences", static_cast<double>(inferences), "count");
  m.set("estimators.mem_filter.inferences_per_s", inferences / inf_s, "1/s");
  m.set("estimators.mem_filter.reused", static_cast<double>(tp.mem_reused), "count");
  m.set("estimators.score.wall_s", tp.score_s.median(), "s");
  m.set("estimators.score.shapes_profiled", static_cast<double>(tp.shapes_profiled), "count");
  m.set("estimators.score.shapes_reused", static_cast<double>(tp.shapes_reused), "count");
  m.set("estimators.score.probe_shapes", static_cast<double>(shapes), "count");
  m.set("estimators.score.shapes_per_s", shapes / shape_s, "1/s");

  // search: one single-chain optimize_mapping per winning plan, from the
  // Megatron default placement, at the workload's iteration cap.
  long sa_iters = 0;
  double sa_wall = 0.0;
  for (const auto& q : quality_) {
    const auto* e = book_.find(q.key);
    if (!e || !e->plan.found) continue;
    const auto& best = e->plan.best;
    const auto prof = cluster::profile_network(q.topo, opt_.profile);
    const estimators::PipetteLatencyModel lm(
        q.job, best, estimators::profile_compute(q.topo, q.job, best, opt_.compute_profile),
        &prof.bw, estimators::LinkConstants::from_spec(q.topo.spec()));
    auto mapping = parallel::Mapping::megatron_default(best.pc);
    obs::Span span(sink_, "bench.probe.optimize_mapping");
    const double t0 = common::monotonic_s();
    const auto r = search::optimize_mapping(mapping, lm, q.topo.gpus_per_node(), opt_.sa, opt_.moves);
    sa_wall += common::monotonic_s() - t0;
    sa_iters += r.iters;
  }
  m.set("search.sa.wall_s", tp.sa_s.median(), "s");
  m.set("search.sa.cpu_s", tp.sa_cpu_s.median(), "s");
  m.set("search.sa.iters", static_cast<double>(tp.sa_iters), "count");
  m.set("search.sa.rungs", static_cast<double>(tp.sa_rungs), "count");
  m.set("search.sa.iters_saved", static_cast<double>(tp.sa_saved), "count");
  m.set("search.sa.probe_iters", static_cast<double>(sa_iters), "count");
  m.set("search.sa.decided_per_s", sa_wall > 0.0 ? sa_iters / sa_wall : 0.0, "1/s");
  m.set("search.sa.share", tp.sa_share.median(), "ratio");

  // persist: load the workload's snapshot directory; write records.
  persist::LoadSinks none;
  none.profile = [](std::uint64_t, std::shared_ptr<const cluster::ProfileResult>) {};
  none.memory = [](std::uint64_t, std::shared_ptr<const estimators::MlpMemoryEstimator>) {};
  none.compute = [](std::uint64_t, std::shared_ptr<estimators::ComputeProfileCache>) {};
  Samples load_wall;
  int records = 0;
  for (int r = 0; r < 5; ++r) {
    obs::Span span(sink_, "bench.probe.load_directory");
    const double t0 = common::monotonic_s();
    records = persist::load_directory(probe_dir_.string(), none).loaded();
    load_wall.add(common::monotonic_s() - t0);
  }
  const double mb = static_cast<double>(dir_bytes(probe_dir_)) / 1e6;
  m.set("persist.load.wall_s", load_wall.median(), "s");
  m.set("persist.load.records", records, "count");
  m.set("persist.load.mb", mb, "MB");
  m.set("persist.load.mb_per_s", mb / load_wall.median(), "MB/s");
  m.set("persist.flush.wall_s", tp.drain.median(), "s");
  m.set("persist.flush.records_written", static_cast<double>(tp.records_written), "count");
  m.set("persist.flush.write_failures", static_cast<double>(tp.write_failures), "count");
  const fs::path wdir = fresh_dir("probe-write");
  const auto payload = persist::encode_profile(profiles.front());
  constexpr int kWrites = 8;
  {
    obs::Span span(sink_, "bench.probe.write_record");
    const double t0 = common::monotonic_s();
    for (int r = 0; r < kWrites; ++r) {
      persist::write_record(wdir.string(), persist::RecordKind::kProfile,
                            static_cast<std::uint64_t>(r), payload);
    }
    const double el = common::monotonic_s() - t0;
    m.set("persist.write.records", kWrites, "count");
    m.set("persist.write.records_per_s", kWrites / el, "1/s");
  }
  {
    // The same records again: replacing a file an earlier write fsynced is
    // what every drain after the first pays on a long-lived directory.
    obs::Span span(sink_, "bench.probe.rewrite_record");
    const double t0 = common::monotonic_s();
    for (int r = 0; r < kWrites; ++r) {
      persist::write_record(wdir.string(), persist::RecordKind::kProfile,
                            static_cast<std::uint64_t>(r), payload);
    }
    m.set("persist.rewrite.records_per_s", kWrites / (common::monotonic_s() - t0), "1/s");
  }
  fs::remove_all(wdir);
}

// ----------------------------------------------------- the run

void write_fingerprint(obs::JsonWriter& w) {
  w.begin_object();
  w.key("nproc");
  w.value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("compiler");
#if defined(__VERSION__)
  w.value(__VERSION__);
#else
  w.value("unknown");
#endif
#if defined(__AVX2__)
  w.key("isa");
  w.value("avx2");
  w.key("pipette_avx2");
  w.value(true);
#else
  w.key("isa");
  w.value("sse2");
  w.key("pipette_avx2");
  w.value(false);
#endif
  w.end_object();
}

void timing_detail(obs::JsonWriter& w, const char* name, const Samples& s) {
  w.key(name);
  w.begin_object();
  w.key("n");
  w.value(s.n());
  w.key("p25");
  w.value(s.pct(0.25));
  w.key("p50");
  w.value(s.median());
  w.key("p75");
  w.value(s.pct(0.75));
  // The highest percentile with at least ten samples beyond it.
  for (double p : {0.99, 0.95, 0.90, 0.75}) {
    if (s.beyond(p) >= 10) {
      w.key("p" + std::to_string(static_cast<int>(p * 100)));
      w.value(s.pct(p));
      break;
    }
  }
  w.end_object();
}

int Bench::run(const std::string& trace_out) {
  fs::create_directories(work_);
  const int setups = workload_ == "cold_new_cluster" ? kColdSetups : kSetups;
  for (int i = 0; i < setups; ++i) {
    const double t0 = common::monotonic_s();
    setup();
    setup_s_.add(common::monotonic_s() - t0);
  }
  const double t_prep = common::monotonic_s();
  prepare();
  std::cout << "references prepared in " << common::monotonic_s() - t_prep << " s\n";

  Pass plain;
  const double pass_s = trace_ ? seconds_ / 2 : seconds_;
  window(plain, pass_s, nullptr, true);
  const double mape = mem_mape_pct();
  const double sim_iter = plan_sim_iter_s();

  Samples cold = plain.cold;
  cold.append(setup_pass_.cold);
  ttp::Metrics e2e;
  e2e.set("cold_plan_s.p50", cold.median(), "s");
  e2e.set("warm_plan_s.p50", plain.warm.median(), "s");
  e2e.set("warm_plan_s.p95", plain.warm.pct(0.95), "s");
  e2e.set("warm_plans_per_s", plain.warm_done / plain.warm_wall_s, "1/s");
  e2e.set("restart_plan_s.p50", plain.restart.median(), "s");
  e2e.set("reconfigure_s.p50", plain.reconf.median(), "s");
  e2e.set("drain_s.p50", plain.drain.median(), "s");
  e2e.set("plan_sim_iter_s", sim_iter, "s");
  e2e.set("mem_mape_pct", mape, "%");
  e2e.set("peak_rss_mb", ttp::peak_rss_mb(), "MB");
  e2e.set("setup_s", setup_s_.median(), "s");

  ttp::Metrics layers;
  Pass traced;
  if (trace_) {
    obs::TraceSink sink;
    if (workload_ != "cold_new_cluster") {
      // The set-ups ran untraced; prime once more, traced, on a throwaway
      // service so the trace holds cold requests too.
      sink_ = &sink;
      auto svc = service(fresh_dir("traced-prime"));
      prime(*svc);
      sink_ = nullptr;
    }
    sink.instant("bench.traced_pass");
    window(traced, pass_s, &sink, false);
    probes(layers, traced);
    sink_ = nullptr;
    const auto spans = ttp::span_instances(sink);
    const auto stats = ttp::span_stats(spans);
    // Request spans of the traced pass only (not the traced priming).
    double pass_t0_us = 0.0;
    for (const auto& ev : sink.events()) {
      if (ev.name == "bench.traced_pass") pass_t0_us = ev.ts_us;
    }
    std::vector<ttp::SpanInstance> pass_spans;
    for (const auto& sp : spans) {
      if (sp.t0_us >= pass_t0_us) pass_spans.push_back(sp);
    }
    const auto pass_stats = ttp::span_stats(pass_spans);
    const auto req = pass_stats.find("request");
    const double span_total = req == pass_stats.end() ? 0.0 : req->second.total_s;
    const long span_n = req == pass_stats.end() ? 0 : req->second.count;
    layers.set("engine.queue_wait_s",
               span_n > 0 ? (traced.request_latency.sum() - span_total) / span_n : 0.0, "s");
    layers.set("engine.cache_hits", traced.cache.hits, "count");
    layers.set("engine.cache_lookups", traced.cache.lookups, "count");
    layers.set("engine.trainings_run", traced.cache.trainings_run, "count");
    layers.set("engine.profiles_run", traced.cache.profiles_run, "count");
    layers.set("core.self_s", req == pass_stats.end() ? 0.0 : req->second.self.median(), "s");

    // MLP share of a cold request: the service's request span inside a
    // bench.cold_plan span has no child for the cluster cache's profile /
    // dataset / training work, so its self time minus the probed profile and
    // dataset times is the training, against the span's own duration.
    Samples fit_share;
    const double untrained = layers.get("sim.memory_dataset.wall_s") +
                             layers.get("cluster.profile.wall_s");
    for (const auto& cold : spans) {
      if (cold.name != "bench.cold_plan") continue;
      for (const auto& r : spans) {
        if (r.name == "request" && r.t0_us >= cold.t0_us && r.t1_us <= cold.t1_us) {
          fit_share.add((r.self_s - untrained) / r.dur_s());
        }
      }
    }
    layers.set("mlp.fit.share", fit_share.median(), "ratio");
    // Tracing overhead on warm requests, the path that emits the most spans
    // per second: traced pass against the untraced one.
    layers.set("obs.trace_overhead_frac", traced.warm.median() / plain.warm.median() - 1.0,
               "ratio");
    std::cout << "span self time (traced pass + probes):\n";
    for (const auto& [name, st] : stats) {
      std::cout << "  " << name << ": n=" << st.count << " total=" << st.total_s
                << " s self=" << st.self_s << " s\n";
    }
    if (!trace_out.empty()) sink.write_json(trace_out);
  }

  // Checks: each failing one makes the run incorrect.
  std::vector<std::pair<std::string, bool>> checks;
  auto pass_checks = [&](const std::string& tag, const Pass& p) {
    checks.push_back({tag + ".latency_sum_within_wall_x_clients", p.latency_sum_ok});
    checks.push_back({tag + ".no_training_on_warm_or_restarted_services",
                      p.no_train_services > 0 && p.unexpected_trainings == 0});
    checks.push_back({tag + ".warm_samples_for_p95", p.warm.beyond(0.95) >= 10});
    checks.push_back({tag + ".timings_within_pass_wall",
                      p.request_latency.sum() <= p.wall_s * kClients + 1e-6});
  };
  pass_checks("plain", plain);
  if (trace_) pass_checks("traced", traced);
  checks.push_back({"plans_identical_to_reference_or_first_served", book_.mismatches() == 0});
  checks.push_back({"plans_compared", book_.compared() > 0});
  checks.push_back({"quality_set_executed", sim_iter > 0.0});
  checks.push_back({"mape_computed", mape > 0.0});
  bool correct = true;
  for (const auto& [name, ok] : checks) correct = correct && ok;

  const long attempted = setup_pass_.attempted + plain.attempted + traced.attempted;
  const long failed = setup_pass_.failed + plain.failed + traced.failed;

  std::cout << "workload " << workload_ << " seed " << seed_ << ": cold n=" << cold.n()
            << " warm n=" << plain.warm.n() << " restart n=" << plain.restart.n()
            << " reconfigure n=" << plain.reconf.n() << " drain n=" << plain.drain.n()
            << " compared=" << book_.compared() << " mismatches=" << book_.mismatches()
            << " attempted=" << attempted << " failed=" << failed << "\n";
  for (const auto& [name, ok] : checks) {
    if (!ok) std::cout << "CHECK FAILED: " << name << "\n";
  }
  for (const auto& [what, n] : failures_) std::cout << "failed x" << n << ": " << what << "\n";

  obs::JsonWriter d;
  d.begin_object();
  d.key("workload");
  d.value(workload_);
  d.key("seed");
  d.value(static_cast<long>(seed_));
  d.key("seconds");
  d.value(seconds_);
  d.key("trace");
  d.value(trace_);
  d.key("threads");
  d.value(threads_);
  d.key("sa_max_iters");
  d.value(kSaIters);
  d.key("machine");
  write_fingerprint(d);
  d.key("timings");
  d.begin_object();
  timing_detail(d, "cold_plan_s", cold);
  timing_detail(d, "warm_plan_s", plain.warm);
  timing_detail(d, "restart_plan_s", plain.restart);
  timing_detail(d, "reconfigure_s", plain.reconf);
  timing_detail(d, "drain_s", plain.drain);
  timing_detail(d, "setup_s", setup_s_);
  d.end_object();
  d.key("work");  // the untraced pass's requests and SA iterations by path
  d.begin_object();
  const char* path_names[] = {"cold", "warm", "restart", "reconfigure"};
  for (std::size_t i = 0; i < plain.path_n.size(); ++i) {
    d.key(path_names[i]);
    d.begin_object();
    d.key("requests");
    d.value(plain.path_n[i]);
    d.key("sa_iters");
    d.value(plain.path_sa_iters[i]);
    d.end_object();
  }
  d.end_object();
  d.key("checks");
  d.begin_object();
  for (const auto& [name, ok] : checks) {
    d.key(name);
    d.value(ok);
  }
  d.end_object();
  d.key("end_to_end");
  e2e.write(d);
  if (trace_) {
    d.key("per_layer");
    layers.write(d);
  }
  d.end_object();
  std::cout << "detail " << d.str() << "\n";

  obs::JsonWriter r;
  r.begin_object();
  r.key("correct");
  r.value(correct);
  r.key("attempted");
  r.value(attempted);
  r.key("failed");
  r.value(failed);
  r.key("metrics");
  (trace_ ? layers : e2e).write(r);
  r.end_object();
  std::cout << r.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const std::string workload = cli.get_string("workload", "");
  const std::set<std::string> known = {"cold_new_cluster", "warm_fleet_stream", "restart_elastic"};
  if (!known.count(workload) || !cli.has("seed") || !cli.has("work-dir")) {
    std::cerr << "usage: time_to_plan --workload cold_new_cluster|warm_fleet_stream|"
                 "restart_elastic --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE]\n";
    return 2;
  }
  const fs::path work = fs::path(cli.get_string("work-dir", "")) /
                        (workload + "-" + std::to_string(::getpid()));
  int rc = 1;
  try {
    const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    Bench b(workload, static_cast<std::uint64_t>(cli.get_int("seed", 0)),
            cli.get_double("seconds", 10.0), cli.get_int("trace", 0) != 0, work,
            std::min(kClients, nproc));
    rc = b.run(cli.get_string("trace-out", ""));
  } catch (const std::exception& e) {
    std::cerr << "time_to_plan: " << e.what() << "\n";
    rc = 1;
  }
  fs::remove_all(work);
  return rc;
}
