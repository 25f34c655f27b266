// Workload service_fleet: a ScenarioService with nproc-1 workers and one
// OpenMP thread per instance, hosting 8 quiet gas balls of 2,000 particles.
// No surrogate, so no pool threads. One closed-loop client thread sends ROI
// queries round-robin, with a random think time before each request, and,
// every kCloneEvery-th request, a clone -> start -> archive cycle.
//
// The fairness quantum is one step, not the library default of 4. At 4 a
// query waits for a free worker and, when its instance is leased, for the
// rest of that 4-step slice: its latency spreads over 0-190 ms (two modes
// with round-robin targets), and the p50 of a run moved by more than the
// 0.25 bound of BENCHMARK.json between runs (IQR/median 0.26 over ten). At
// one step the wait is at most one step of the instance, and the p50 holds.
//
// Why: hosting overhead, the fairness quantum and snapshot-codec writes
// beside ROI reads dominate; each instance's physics is small. Idle layers:
// the surrogate pool, ml, comm, core.distributed, stellar (no stars, no
// cooling) and galaxy (gas balls, not a galaxy IC).
//
// Step latency here is what an instance's owner sees: the wall time between
// the starts of consecutive steps of one instance (the step hook), so the
// wait for the next lease counts.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "gravity/gravity.hpp"
#include "io/serialize.hpp"
#include "service/scenario_service.hpp"
#include "sph/kernels.hpp"
#include "sph/sph.hpp"
#include "trace.hpp"
#include "util/omp.hpp"
#include "util/rng.hpp"
#include "voxel/voxel.hpp"

namespace perfbench {
namespace {

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::service::InstanceId;
using asura::service::ScenarioService;

constexpr int kInstances = 8;
constexpr int kParticles = 2000;
constexpr int kCloneEvery = 16;  // every 16th client request is a clone cycle
constexpr long kCloneSteps = 4;
constexpr int kSetups = 3;
constexpr long kFarTarget = 1L << 40;
constexpr double kThinkUs = 10000.0;  // client think time, uniform in [0, 10 ms)
constexpr double kSliceS = 2.5;       // host steal is measured per slice of a window

/// Quiet, slowly contracting gas ball (the bench_scenario_service fleet
/// style), one realization per (seed, instance).
std::vector<Particle> fleetIc(std::uint64_t seed, int i) {
  asura::util::Pcg32 rng(seed * 7919 + static_cast<std::uint64_t>(i), 0xBE7C);
  std::vector<Particle> parts;
  parts.reserve(kParticles);
  const double radius = 5.0 + 0.2 * i;
  for (int k = 0; k < kParticles; ++k) {
    Particle p;
    p.id = static_cast<std::uint64_t>(k + 1);
    p.type = asura::fdps::Species::Gas;
    for (;;) {
      const double x = 2.0 * rng.uniform() - 1.0;
      const double y = 2.0 * rng.uniform() - 1.0;
      const double z = 2.0 * rng.uniform() - 1.0;
      if (x * x + y * y + z * z <= 1.0) {
        p.pos = {radius * x, radius * y, radius * z};
        break;
      }
    }
    p.vel = {-0.02 * p.pos.x, -0.02 * p.pos.y, -0.02 * p.pos.z};
    p.mass = 1.0;
    p.u = 120.0;
    p.h = 1.5;
    parts.push_back(p);
  }
  return parts;
}

SimulationConfig fleetConfig(std::uint64_t seed) {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  cfg.seed = seed;
  return cfg;
}

asura::voxel::RoiSpec roiSpec() {
  asura::voxel::RoiSpec spec;
  spec.center = {0.0, 0.0, 0.0};
  spec.box_size = 12.0;
  spec.grid_n = 16;
  return spec;
}

struct Fleet {
  /// Step-start times per instance, written by the step hooks. Declared
  /// before svc so it outlives the workers that run the hooks.
  std::vector<std::vector<double>> stamps;
  std::unique_ptr<ScenarioService> svc;
  std::vector<InstanceId> ids;
};

/// One closed-loop client window. The step, query and throughput figures
/// cover only its kept slices (see Client::run); the rest cover all of it.
struct Window {
  std::vector<double> step_ms, query_ms;  ///< kept slices
  double kept_s = 0.0;                    ///< summed duration of the kept slices
  double fleet_steps = 0.0;               ///< steps inside the kept slices
  std::vector<double> clone_ms;
  double wall_s = 0.0;
  double snapshots = 0.0;
  int slices = 0, kept_slices = 0;
  double steal_frac = 0.0;  ///< median host steal share of the kept slices
  bool comparable = true;   ///< every kept slice ran under kStealLimit
};

class Client {
 public:
  Client(Fleet& fleet, Report& rep, std::uint64_t seed)
      : fleet_(fleet), rep_(rep), rng_(seed, 0xC11E) {
    fleet_.stamps.assign(kInstances, {});
    for (int i = 0; i < kInstances; ++i) {
      auto* stamps = &fleet_.stamps[static_cast<std::size_t>(i)];
      fleet_.svc->setStepHook(fleet_.ids[static_cast<std::size_t>(i)],
                              [stamps](Simulation&, long) { stamps->push_back(nowUs()); });
    }
  }

  /// Run every instance and drive the closed loop; the fleet is paused
  /// again on return. Host steal is measured per kSliceS slice, and the
  /// window runs on under the windowDone rule until `seconds` worth of
  /// slices ran under kStealLimit; the slices keepRepeats picks are
  /// reported.
  Window run(double seconds) {
    Window w;
    auto& svc = *fleet_.svc;
    double snaps0 = 0.0;
    for (InstanceId id : fleet_.ids) snaps0 += static_cast<double>(svc.info(id).snapshots);
    std::vector<double> cuts{nowUs()};  // slice boundaries
    std::vector<double> steal;          // per slice
    int clean = 0;                      // slices under kStealLimit
    CpuClock cpu = CpuClock::read();
    const int want = std::max(1, static_cast<int>(std::lround(seconds / kSliceS)));
    std::vector<std::pair<double, double>> queries;  // (start, ms)
    clone_steps_.clear();
    for (InstanceId id : fleet_.ids) call("service.start", [&] { svc.start(id, kFarTarget); });
    const auto spec = roiSpec();
    for (long n = 0;; ++n) {
      if (nowUs() - cuts.back() >= 1e6 * kSliceS) {
        const CpuClock now = CpuClock::read();
        steal.push_back(stealShare(cpu, now));
        cpu = now;
        cuts.push_back(nowUs());
        clean += steal.back() <= kStealLimit;
        if (windowDone(static_cast<int>(steal.size()), clean, want,
                       1e-6 * (cuts.back() - cuts.front()), seconds)) {
          break;
        }
      }
      // Think time: without it the closed loop phase-locks onto the
      // workers' slices and the query latency depends on that phase.
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(rng_.uniform(0.0, kThinkUs))));
      if (n % kCloneEvery == kCloneEvery - 1) {
        cloneCycle(w);
      } else {
        const InstanceId id = fleet_.ids[static_cast<std::size_t>(next_query_++ % kInstances)];
        const double q0 = nowUs();
        call("service.queryRoi", [&] { (void)svc.queryRoi(id, spec); });
        queries.push_back({q0, 1e-3 * (nowUs() - q0)});
      }
    }
    const double t_start = cuts.front(), t_end = cuts.back();
    w.wall_s = 1e-6 * (t_end - t_start);
    if (clone_ != 0) {
      archiveClone(t_end - 1.0);  // its last steps count into the last slice
    }
    for (InstanceId id : fleet_.ids) call("service.pause", [&] { svc.pause(id); });

    w.slices = static_cast<int>(steal.size());
    const auto keep = keepRepeats(steal, static_cast<std::size_t>(want));
    std::vector<double> kept_steal;
    for (std::size_t k = 0; k < steal.size(); ++k) {
      if (!keep[k]) continue;
      w.kept_s += 1e-6 * (cuts[k + 1] - cuts[k]);
      kept_steal.push_back(steal[k]);
      w.comparable = w.comparable && steal[k] <= kStealLimit;
    }
    w.kept_slices = static_cast<int>(kept_steal.size());
    w.steal_frac = median(kept_steal);
    // Whether time t falls into a kept slice.
    const auto kept = [&](double t) {
      if (t < t_start || t >= t_end) return false;
      const auto k = std::upper_bound(cuts.begin(), cuts.end(), t) - cuts.begin() - 1;
      return static_cast<bool>(keep[static_cast<std::size_t>(k)]);
    };
    for (const auto& [t, ms] : queries) {
      if (kept(t)) w.query_ms.push_back(ms);
    }
    for (const auto& [t, steps] : clone_steps_) {
      if (kept(t)) w.fleet_steps += steps;
    }
    for (auto& s : fleet_.stamps) {
      double prev = -1.0;
      for (double t : s) {
        if (t < t_start || t >= t_end) continue;
        if (kept(t)) {
          w.fleet_steps += 1.0;
          if (prev >= 0.0) w.step_ms.push_back(1e-3 * (t - prev));
        }
        prev = t;
      }
      s.clear();
    }
    for (InstanceId id : fleet_.ids) w.snapshots += static_cast<double>(svc.info(id).snapshots);
    w.snapshots -= snaps0;
    return w;
  }

 private:
  template <class F>
  void call(const char* what, F&& f) {
    Span span(what);
    ++rep_.attempted;
    try {
      f();
    } catch (const std::exception& e) {
      rep_.fail(1, std::string(what) + " threw: " + e.what());
    }
  }

  /// Archive the running clone; its steps are counted at time t.
  void archiveClone(double t) {
    const auto info = fleet_.svc->info(clone_);
    clone_steps_.push_back({t, static_cast<double>(info.step - clone_start_)});
    call("service.archive", [&] { fleet_.svc->archive(clone_); });
    clone_ = 0;
  }

  void cloneCycle(Window& w) {
    auto& svc = *fleet_.svc;
    if (clone_ != 0) archiveClone(nowUs());
    const InstanceId src = fleet_.ids[static_cast<std::size_t>(next_clone_++ % kInstances)];
    const double c0 = nowUs();
    call("service.clone", [&] { clone_ = svc.clone(src, "clone-" + std::to_string(next_clone_)); });
    w.clone_ms.push_back(1e-3 * (nowUs() - c0));
    if (clone_ == 0) return;
    clone_start_ = svc.info(clone_).step;
    call("service.start", [&] { svc.start(clone_, clone_start_ + kCloneSteps); });
  }

  Fleet& fleet_;
  Report& rep_;
  asura::util::Pcg32 rng_;  ///< think times
  long next_query_ = 0, next_clone_ = 0;
  InstanceId clone_ = 0;
  long clone_start_ = 0;
  std::vector<std::pair<double, double>> clone_steps_;  ///< (archive time, steps)
};

Fleet setUp(std::uint64_t seed, int workers) {
  Span span("workload.setup");
  asura::service::ServiceConfig scfg;
  scfg.n_workers = workers;
  scfg.omp_threads_per_instance = 1;
  scfg.step_budget = 1;  // see the top of this file; snapshot_interval stays at 8
  Fleet f;
  f.svc = std::make_unique<ScenarioService>(scfg);
  for (int i = 0; i < kInstances; ++i) {
    f.ids.push_back(f.svc->create(
        {"fleet-" + std::to_string(i), fleetIc(seed, i), fleetConfig(seed), nullptr}));
  }
  for (InstanceId id : f.ids) f.svc->start(id, 1);  // warm-up step
  f.svc->waitIdle();
  return f;
}

}  // namespace

Report runServiceFleet(const Options& opt) {
  Report rep;
  rep.idle = {"core.pool", "ml", "voxel.deposit_ms", "voxel.sample_ms", "comm",
              "core.distributed", "stellar", "galaxy", "core.omp_speedup"};
  auto& tracer = Tracer::instance();
  const int workers = std::max(1, hostThreads() - 1);
  rep.info.push_back({"service_workers", std::to_string(workers)});
  rep.info.push_back({"omp_threads_per_instance", "1"});
  rep.info.push_back({"client_threads", "1"});
  tracer.nameThread("client");

  tracer.setEnabled(opt.trace);
  std::vector<double> setup_s;
  Fleet fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet = Fleet{};  // tear the previous service down first
    const double t0 = nowUs();
    fleet = setUp(opt.seed, workers);
    setup_s.push_back(1e-6 * (nowUs() - t0));
  }
  Client client(fleet, rep, opt.seed);

  tracer.setEnabled(false);
  const Window base = client.run(opt.trace ? 0.5 * opt.seconds : opt.seconds);
  reportEndToEnd(rep, kParticles * base.fleet_steps, base.kept_s, base.step_ms, base.step_ms,
                 base.query_ms, base.query_ms, setup_s);
  rep.info.push_back({"slices", std::to_string(base.slices)});
  rep.info.push_back({"slices_kept", std::to_string(base.kept_slices)});
  rep.info.push_back({"steal_frac", std::to_string(base.steal_frac)});
  rep.info.push_back({"comparable", base.comparable ? "true" : "false"});
  rep.info.push_back({"particles", std::to_string(kParticles * kInstances)});

  Window traced;
  if (opt.trace) {
    tracer.setEnabled(true);
    {
      Span span("window");
      traced = client.run(0.5 * opt.seconds);
    }
    tracer.setEnabled(false);
  }

  // Correctness, outside the window. Every instance's final snapshot
  // restores to a state that conserves count, mass and ids exactly; one
  // instance (chosen by seed) must be bitwise equal to an unhosted rerun.
  auto& svc = *fleet.svc;
  std::vector<double> snapshot_bytes;
  double rollbacks = 0.0;
  const int checked = static_cast<int>(opt.seed % kInstances);
  std::vector<char> hosted;
  long hosted_step = 0;
  for (int i = 0; i < kInstances; ++i) {
    const InstanceId id = fleet.ids[static_cast<std::size_t>(i)];
    const auto snap = svc.latestSnapshot(id);
    rollbacks += static_cast<double>(svc.info(id).rollbacks);
    if (!snap.bytes) {
      rep.fail(1, "instance " + std::to_string(i) + " has no snapshot");
      continue;
    }
    snapshot_bytes.push_back(static_cast<double>(snap.bytes->size()));
    const auto ic = fleetIc(opt.seed, i);
    Simulation restored(ic, fleetConfig(opt.seed));
    asura::io::ByteReader r(snap.bytes->data(), snap.bytes->size());
    restored.restoreState(r);
    const auto cons = conservation(restored.particles());
    if (!(cons == conservation(ic)) || !cons.finite) {
      rep.fail(1, "instance " + std::to_string(i) + " lost particles, mass or ids");
    }
    if (i == checked) {
      hosted = *snap.bytes;
      hosted_step = snap.step;
    }
  }
  std::vector<double> step_lat;
  for (InstanceId id : fleet.ids) {
    const auto l = svc.stepLatenciesMs(id);
    step_lat.insert(step_lat.end(), l.begin(), l.end());
  }
  fleet.svc.reset();  // stop the workers before the rerun

  asura::util::ompSetThreads(workers);
  const auto ic = fleetIc(opt.seed, checked);
  Simulation solo(ic, fleetConfig(opt.seed));
  Tally tally;
  PhaseProbe probe;
  if (opt.trace) solo.setProgressReporter(probe.reporter());
  double rerun_ms = 0.0;
  {
    Span span("rerun.unhosted");
    const double t0 = nowUs();
    for (long s = 0; s < hosted_step; ++s) tally.add(solo.step());
    rerun_ms = 1e-3 * (nowUs() - t0);
  }
  solo.setProgressReporter({});
  asura::io::ByteWriter w;
  solo.serializeState(w);
  rep.attempted += 1;
  if (w.take() != hosted) {
    rep.fail(1, "hosted instance " + std::to_string(checked) +
                    " diverged from its unhosted rerun at step " + std::to_string(hosted_step));
  }
  if (!opt.trace) {
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    return rep;
  }

  // Single-layer replays on the rerun's final state (bitwise the hosted one).
  tracer.setEnabled(true);
  const asura::sph::Kernel kernel{};
  double roi_ms;
  {
    Span s("replay.roi");
    roi_ms = medianMs(
        5, [&] { (void)asura::voxel::projectRoi(solo.particles(), roiSpec(), {}, kernel); });
  }
  reportForceReplays(rep, solo.particles(), solo.config());
  tracer.setEnabled(false);

  // The physics layers of this workload are read from the unhosted rerun
  // of the checked instance (the same steps, bitwise).
  const double steps = std::max(1.0, static_cast<double>(tally.steps));
  const Timers t = Timers::read(solo.timers());
  rep.layer("core.integrate_ms", probe.integrate_ms / steps, "ms");
  rep.layer("core.sync_ms", probe.sync_ms / steps, "ms");
  rep.layer("core.unattributed_ms", (rerun_ms - probe.integrate_ms - probe.sync_ms) / steps, "ms");
  rep.layer("fdps.tree_build_ms", 1e3 * t.tree_build / steps, "ms");
  rep.layer("gravity.walk_cpu_ms", 1e3 * t.walk_cpu / steps, "ms");
  rep.layer("gravity.kernel_cpu_ms", 1e3 * t.kernel_cpu / steps, "ms");
  rep.layer("kernels.gflops_per_core",
            t.kernel_cpu > 0 ? 1e-9 * (tally.grav_flops + tally.sph_flops) / t.kernel_cpu : 0.0,
            "GFLOP/s");
  rep.layer("core.substeps_per_step", tally.substeps / steps, "count");
  rep.layer("core.force_evals_per_step", tally.force_evals / steps, "count");
  rep.layer("core.limiter_wakes_per_step", tally.limiter_wakes / steps, "count");
  rep.layer("fdps.tree_builds_per_step", tally.tree_builds / steps, "count");
  rep.layer("fdps.tree_refreshes_per_step", tally.tree_refreshes / steps, "count");
  rep.layer("gravity.interactions_per_step", tally.grav_interactions / steps, "count");
  rep.layer("sph.density_interactions_per_step", tally.dens_interactions / steps, "count");
  rep.layer("sph.force_interactions_per_step", tally.force_interactions / steps, "count");
  rep.layer("sph.max_newton_iters", tally.max_newton, "count");
  rep.layer("service.step_ms_p50", median(step_lat), "ms");
  rep.layer("service.query_wait_ms", median(traced.query_ms) - roi_ms, "ms");
  rep.layer("service.clone_ms", median(traced.clone_ms), "ms");
  rep.layer("service.rollbacks", rollbacks, "count");
  rep.layer("io.snapshot_bytes", median(snapshot_bytes), "B");
  rep.layer("io.snapshots_per_s", traced.snapshots / traced.wall_s, "1/s");
  rep.layer("voxel.roi_ms", roi_ms, "ms");
  rep.layer("trace.overhead_ms", median(traced.step_ms) - median(base.step_ms), "ms");
  rep.e2e("peak_rss_mb", peakRssMb(), "MB");
  return rep;
}

}  // namespace perfbench
