// Workload mw_mini_sn: the paper's scheme at P=1 — a fixed global step with
// SN regions inferred by the U-Net surrogate on the pool.
//
// Why: tree build, gravity and SPH kernels and surrogate inference do most
// of the work here, and the pool's inference competes with integration for
// cores, so a change in either shows. Idle layers: comm and
// core.distributed (one rank), service and io.
//
// IC: the MW-mini galaxy at the examples/quickstart counts plus spaced
// star-by-star gas clumps (~1 Msun particles), each with one SN progenitor.
// The progenitors fire on staggered steps of an episode; every region comes
// back return_interval steps later, inside the same episode. The timed
// window replays whole episodes from a snapshot taken after set-up, so every
// run measures the same steps however fast the program is.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "common.hpp"
#include "core/pool.hpp"
#include "core/surrogate.hpp"
#include "galaxy/galaxy.hpp"
#include "gravity/gravity.hpp"
#include "io/serialize.hpp"
#include "ml/layers.hpp"
#include "ml/unet.hpp"
#include "sph/kernels.hpp"
#include "sph/sph.hpp"
#include "tests/ic_fixtures.hpp"
#include "trace.hpp"
#include "util/omp.hpp"
#include "util/rng.hpp"
#include "voxel/voxel.hpp"

namespace perfbench {
namespace {

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::util::Vec3d;

constexpr int kClumps = 24;
constexpr int kClumpParticles = 400;
constexpr double kClumpRadius = 3.0;  // pc: 400 Msun in a 3 pc ball
constexpr double kDt = 0.002;         // Myr: the paper's 2,000 yr global step
constexpr long kReturn = 4;           // steps until a prediction comes back
// One progenitor fires per step on steps 1..kClumps of an episode, and the
// last prediction returns on its final step.
constexpr int kEpisode = kClumps + static_cast<int>(kReturn);
constexpr int kQueriesPerStep = 4;
constexpr int kSetups = 5;
constexpr int kRepeats = 3;  // episodes an untraced window aims at (best-of-3 per step)
constexpr double kRoiBox = 60.0;  // pc
constexpr int kRoiGrid = 16;

const asura::ml::UNetConfig kNet{8, 8, 8};
asura::voxel::VoxelParams voxelParams() {
  asura::voxel::VoxelParams v;
  v.grid_n = 32;
  return v;
}

/// Zero the output convolution: with the backend's residual
/// parametrization the untrained network then predicts "no change" (the
/// deposited state, Gibbs-resampled) instead of random-weight noise that
/// would heat and scatter the regions. The forward pass costs the same.
void zeroHead(asura::ml::UNet3D& net) {
  auto params = net.parameters();
  params[params.size() - 2].first->fill(0.0f);  // out_ weights
  params[params.size() - 1].first->fill(0.0f);  // out_ bias
}

struct Ic {
  std::vector<Particle> parts;
  std::vector<Vec3d> clump_centers;
};

Ic makeIc(std::uint64_t seed) {
  Ic ic;
  const auto model = asura::galaxy::GalaxyModel::milkyWayMini();
  asura::galaxy::IcCounts counts;
  counts.n_dm = 10000;
  counts.n_star = 6000;
  counts.n_gas = 6000;
  counts.seed = seed;
  ic.parts = asura::galaxy::generateGalaxy(model, counts);

  asura::util::Pcg32 rng(seed ^ 0xC1A9ull);
  const double rho = kClumpParticles / (4.0 / 3.0 * 3.14159265358979 * kClumpRadius *
                                        kClumpRadius * kClumpRadius);
  for (int c = 0; c < kClumps; ++c) {
    // Clumps on a ring band of the disc, spaced far beyond the 60 pc SN box.
    const double r = 400.0 + 1000.0 * (c + 0.5) / kClumps;
    const double phi = 2.39996323 * c + rng.uniform(-0.1, 0.1);
    const Vec3d center{r * std::cos(phi), r * std::sin(phi), 0.0};
    const double vc = model.vCirc(r);
    const Vec3d vel{-vc * std::sin(phi), vc * std::cos(phi), 0.0};
    auto ball = asura::testing::gasBall(kClumpParticles, kClumpRadius, rho,
                                        seed * 131 + static_cast<std::uint64_t>(c));
    for (auto& p : ball) {
      p.id += 10'000'000ull + 1000ull * static_cast<std::uint64_t>(c);
      p.pos += center;
      p.vel = vel;
      ic.parts.push_back(p);
    }
    Particle star;
    star.id = 20'000'000ull + static_cast<std::uint64_t>(c);
    star.type = asura::fdps::Species::Star;
    star.mass = 20.0;
    star.star_mass = 20.0;
    star.pos = center;
    star.vel = vel;
    star.eps = 0.5;
    // Fires inside step 1 + c: step 0 is the warm-up.
    star.t_sn = (1.0 + c + 0.5) * kDt;
    ic.parts.push_back(star);
    ic.clump_centers.push_back(center);
  }
  return ic;
}

SimulationConfig makeConfig(std::uint64_t seed) {
  SimulationConfig cfg;
  cfg.dt_global = kDt;
  cfg.use_surrogate = true;
  cfg.n_pool_nodes = 1;
  cfg.return_interval = kReturn;
  cfg.surrogate_horizon = static_cast<double>(kReturn) * kDt;
  cfg.sph.n_ngb = 32;
  cfg.gravity.theta = 0.6;
  cfg.enable_star_formation = false;  // keeps every episode's work identical
  cfg.enable_cooling = true;
  cfg.seed = seed;
  return cfg;
}

struct Instance {
  Ic ic;
  Conservation ic_cons;
  std::shared_ptr<PinnedBackend> backend;
  std::unique_ptr<Simulation> sim;
  std::vector<char> snapshot;  ///< state after the warm-up step
  double setup_s = 0.0, ic_s = 0.0;
};

Instance setUp(std::uint64_t seed) {
  Span span("workload.setup");
  Instance in;
  const double t0 = nowUs();
  in.ic = makeIc(seed);
  in.ic_s = 1e-6 * (nowUs() - t0);
  in.ic_cons = conservation(in.ic.parts);
  auto unet = std::make_shared<asura::core::UNetSurrogateBackend>(
      kNet, voxelParams(), 60.0, seed);
  zeroHead(unet->network());
  in.backend = std::make_shared<PinnedBackend>(unet, 1);
  in.sim = std::make_unique<Simulation>(in.ic.parts, makeConfig(seed), in.backend);
  in.sim->step();  // warm-up: first tree builds, allocator and pool thread
  asura::io::ByteWriter w;
  in.sim->serializeState(w);
  in.snapshot = w.take();
  in.setup_s = 1e-6 * (nowUs() - t0);
  return in;
}

void restore(Instance& in) {
  (void)in.sim->pool()->snapshotResults();  // drain jobs still in flight
  asura::io::ByteReader r(in.snapshot.data(), in.snapshot.size());
  in.sim->restoreState(r);
}

struct Window {
  std::vector<double> step_ms, query_ms;
  std::vector<double> episode_steal;  ///< host steal share of each episode
  double step_s = 0.0;  ///< summed step wall time
  int episodes = 0, clean_episodes = 0;
  int want = 0;  ///< episodes the window aimed at
  Tally tally;
  Timers timers;
  double pool_busy_s = 0.0, pool_batches = 0.0, pool_jobs = 0.0;
  double jobs_completed = 0.0, jobs_fallback = 0.0;
};

/// Run whole episodes under the windowDone rule (aiming at `min_episodes`
/// repeats). `max_steps` > 0 stops early (the OMP=1 comparison window).
Window runWindow(Instance& in, double seconds, Report& rep, int min_episodes,
                 int max_steps = 0) {
  Window w;
  w.want = min_episodes;
  Simulation& sim = *in.sim;
  const Timers timers0 = Timers::read(sim.timers());
  const double busy0 = in.backend->busySeconds();
  const double batches0 = static_cast<double>(in.backend->batches());
  const double jobs0 = static_cast<double>(in.backend->jobs());
  const double completed0 = static_cast<double>(sim.pool()->jobsCompleted());
  const double fallback0 = static_cast<double>(sim.pool()->jobsFallback());
  const asura::sph::Kernel kernel{};
  const auto vparams = voxelParams();
  std::uint64_t episode_hash = 0;
  const double t_start = nowUs();
  for (;;) {
    restore(in);
    Tally ep;
    int c = 0;
    const CpuClock cpu0 = CpuClock::read();
    for (int k = 0; k < kEpisode; ++k) {
      if (max_steps > 0 && static_cast<int>(w.step_ms.size()) >= max_steps) break;
      const double t0 = nowUs();
      try {
        Span step_span("step");
        const auto st = sim.step();
        ep.add(st);
        w.tally.add(st);
      } catch (const std::exception& e) {
        rep.attempted += 1;
        rep.fail(1, std::string("step threw: ") + e.what());
        return w;
      }
      const double ms = 1e-3 * (nowUs() - t0);
      w.step_ms.push_back(ms);
      w.step_s += 1e-3 * ms;
      for (int q = 0; q < kQueriesPerStep; ++q, ++c) {
        Span query_span("query.roi");
        asura::voxel::RoiSpec spec;
        spec.center = in.ic.clump_centers[static_cast<std::size_t>(c % kClumps)];
        spec.box_size = kRoiBox;
        spec.grid_n = kRoiGrid;
        const double q0 = nowUs();
        const auto grid = asura::voxel::projectRoi(sim.particles(), spec, vparams, kernel);
        w.query_ms.push_back(1e-3 * (nowUs() - q0));
        rep.attempted += 1;
        if (grid.rho.size() != static_cast<std::size_t>(kRoiGrid * kRoiGrid * kRoiGrid)) {
          rep.fail(1, "ROI query returned a malformed grid");
        }
      }
    }
    if (max_steps > 0) break;
    const double steal = stealShare(cpu0, CpuClock::read());
    w.episode_steal.push_back(steal);
    w.clean_episodes += steal <= kStealLimit;
    // Correctness, outside the timed steps: exact conservation, every job
    // delivered and none degraded, and the episode bitwise equal to the
    // first one replayed from the same snapshot.
    rep.attempted += ep.steps + static_cast<long>(ep.regions_sent);
    const auto cons = conservation(sim.particles());
    if (!(cons == in.ic_cons) || !cons.finite) {
      rep.fail(ep.steps, "particle count/mass/id-sum not conserved or non-finite state");
    }
    const long undelivered = static_cast<long>(ep.regions_sent - ep.regions_received);
    if (undelivered != 0) {
      rep.fail(std::abs(undelivered), "surrogate jobs not delivered inside the episode");
    }
    if (ep.fallbacks > 0) {
      rep.fail(static_cast<long>(ep.fallbacks), "surrogate jobs degraded to the fallback");
    }
    const std::uint64_t h = stateHash(sim.particles(), sim.particles().size());
    if (w.episodes == 0) {
      episode_hash = h;
    } else if (h != episode_hash) {
      rep.fail(ep.steps, "replayed episode diverged from the first one");
    }
    ++w.episodes;
    const double elapsed = 1e-6 * (nowUs() - t_start);
    if (windowDone(w.episodes, w.clean_episodes, min_episodes, elapsed, seconds)) break;
  }
  w.timers = Timers::read(sim.timers()) - timers0;
  w.pool_busy_s = in.backend->busySeconds() - busy0;
  w.pool_batches = static_cast<double>(in.backend->batches()) - batches0;
  w.pool_jobs = static_cast<double>(in.backend->jobs()) - jobs0;
  w.jobs_completed = static_cast<double>(sim.pool()->jobsCompleted()) - completed0;
  w.jobs_fallback = static_cast<double>(sim.pool()->jobsFallback()) - fallback0;
  return w;
}

}  // namespace

Report runMwMiniSn(const Options& opt) {
  Report rep;
  rep.idle = {"service", "io"};
  auto& tracer = Tracer::instance();
  const int width = std::max(1, hostThreads() - 1);
  asura::util::ompSetThreads(width);
  rep.info.push_back({"omp_threads_main", std::to_string(width)});
  rep.info.push_back({"pool_workers", "1"});
  rep.info.push_back({"omp_threads_pool_worker", "1"});

  if (opt.counts_only) {
    Instance in = setUp(opt.seed);
    Window w = runWindow(in, 0.0, rep, 1);
    rep.counts = {
        {"steps", static_cast<std::uint64_t>(w.tally.steps)},
        {"gravity_interactions", static_cast<std::uint64_t>(w.tally.grav_interactions)},
        {"sph_interactions",
         static_cast<std::uint64_t>(w.tally.dens_interactions + w.tally.force_interactions)},
        {"regions_sent", static_cast<std::uint64_t>(w.tally.regions_sent)},
        {"regions_received", static_cast<std::uint64_t>(w.tally.regions_received)},
        {"tree_builds", static_cast<std::uint64_t>(w.tally.tree_builds)},
        {"state_hash", stateHash(in.sim->particles(), in.sim->particles().size())},
    };
    return rep;
  }

  // Set-up, several times: the reported set-up time is the median.
  tracer.setEnabled(opt.trace);
  std::vector<double> setup_s, ic_s;
  Instance in;
  for (int i = 0; i < kSetups; ++i) {
    in = Instance{};  // release the previous instance first
    in = setUp(opt.seed);
    setup_s.push_back(in.setup_s);
    ic_s.push_back(in.ic_s);
  }
  const double n_particles = static_cast<double>(in.ic.parts.size());

  // Untraced window: the end-to-end metrics (or, in a traced run, the
  // baseline the tracing overhead is measured against).
  tracer.setEnabled(false);
  const Window base = opt.trace ? runWindow(in, 0.5 * opt.seconds, rep, 2)
                                : runWindow(in, opt.seconds, rep, kRepeats);
  reportReplayedEndToEnd(rep, n_particles, base.step_ms, kEpisode, base.query_ms,
                         kEpisode * kQueriesPerStep, base.episode_steal,
                         static_cast<std::size_t>(base.want), setup_s);
  rep.info.push_back({"episodes", std::to_string(base.episodes)});
  rep.info.push_back({"particles", std::to_string(in.ic.parts.size())});
  if (!opt.trace) {
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    return rep;
  }

  // Traced window: spans plus the per-layer counters.
  PhaseProbe probe;
  in.sim->setProgressReporter(probe.reporter());
  in.backend->captureFirst(8);
  tracer.setEnabled(true);
  tracer.nameThread("main");
  Window w;
  {
    Span span("window");
    w = runWindow(in, 0.5 * opt.seconds, rep, 2);
  }
  tracer.setEnabled(false);
  in.sim->setProgressReporter({});
  const double steps = static_cast<double>(w.step_ms.size());
  const double step_sum_ms = 1e3 * w.step_s;

  // Thread scaling: the first steps of an episode at one OpenMP thread
  // against the same steps of the untraced window at full width.
  constexpr int kScalingSteps = 6;
  asura::util::ompSetThreads(1);
  const Window serial = runWindow(in, 0.0, rep, 1, kScalingSteps);
  const auto wide = bestOfRepeats(base.step_ms, kEpisode);
  asura::util::ompSetThreads(width);
  double wide_ms = 0.0, serial_ms = 0.0;
  for (int k = 0; k < kScalingSteps && k < static_cast<int>(serial.step_ms.size()); ++k) {
    serial_ms += serial.step_ms[static_cast<std::size_t>(k)];
    wide_ms += wide[static_cast<std::size_t>(k)];
  }

  // Replays of single layers on a copy of the end-of-window state.
  tracer.setEnabled(true);
  reportForceReplays(rep, in.sim->particles(), in.sim->config());
  // Surrogate pipeline stages per region, replayed on captured regions at
  // the pool worker's width of one thread.
  const auto regions = in.backend->captured();
  std::vector<double> dep_ms, fwd_ms, smp_ms;
  asura::util::ompSetThreads(1);
  {
    Span s("replay.surrogate");
    asura::ml::InferenceModeScope inference;
    asura::ml::UNet3D net(kNet);
    zeroHead(net);
    const auto vparams = voxelParams();
    const asura::sph::Kernel kernel{};
    asura::util::Pcg32 rng(opt.seed);
    for (const auto& rq : regions) {
      double t0 = nowUs();
      const auto grid = asura::voxel::depositParticles(rq.region, rq.sn_pos, 60.0, vparams, kernel);
      const auto enc = asura::voxel::encodeGrid(grid, vparams);
      dep_ms.push_back(1e-3 * (nowUs() - t0));
      t0 = nowUs();
      auto y = net.forward(enc);
      fwd_ms.push_back(1e-3 * (nowUs() - t0));
      for (std::size_t i = 0; i < y.numel(); ++i) y[i] += enc[i];
      t0 = nowUs();
      const auto out = asura::voxel::decodeGrid(y, 60.0, grid.origin, vparams);
      (void)asura::voxel::gridToParticles(out, rq.region, vparams, rng);
      smp_ms.push_back(1e-3 * (nowUs() - t0));
    }
  }
  asura::util::ompSetThreads(width);
  tracer.setEnabled(false);

  const auto& t = w.timers;
  const double flops = w.tally.grav_flops + w.tally.sph_flops;
  rep.layer("core.integrate_ms", probe.integrate_ms / steps, "ms");
  rep.layer("core.sync_ms", probe.sync_ms / steps, "ms");
  rep.layer("core.unattributed_ms",
            (step_sum_ms - probe.integrate_ms - probe.sync_ms) / steps, "ms");
  rep.layer("core.substeps_per_step", w.tally.substeps / steps, "count");
  rep.layer("core.force_evals_per_step", w.tally.force_evals / steps, "count");
  rep.layer("core.limiter_wakes_per_step", w.tally.limiter_wakes / steps, "count");
  rep.layer("core.omp_speedup", wide_ms > 0 ? serial_ms / wide_ms : 0.0, "ratio");
  rep.layer("core.pool.regions_per_step", w.tally.regions_sent / steps, "count");
  rep.layer("core.pool.predict_busy_ms", 1e3 * w.pool_busy_s / steps, "ms");
  rep.layer("core.pool.jobs_per_batch",
            w.pool_batches > 0 ? w.pool_jobs / w.pool_batches : 0.0, "count");
  rep.layer("core.pool.receive_wait_ms", 1e3 * t.receive / steps, "ms");
  rep.layer("core.pool.fallback_frac",
            w.jobs_completed > 0 ? w.jobs_fallback / w.jobs_completed : 0.0, "ratio");
  rep.layer("voxel.deposit_ms", median(dep_ms), "ms");
  rep.layer("ml.forward_ms", median(fwd_ms), "ms");
  rep.layer("voxel.sample_ms", median(smp_ms), "ms");
  rep.layer("fdps.tree_build_ms", 1e3 * t.tree_build / steps, "ms");
  rep.layer("fdps.tree_builds_per_step", w.tally.tree_builds / steps, "count");
  rep.layer("fdps.tree_refreshes_per_step", w.tally.tree_refreshes / steps, "count");
  rep.layer("gravity.interactions_per_step", w.tally.grav_interactions / steps, "count");
  rep.layer("gravity.walk_cpu_ms", 1e3 * t.walk_cpu / steps, "ms");
  rep.layer("gravity.kernel_cpu_ms", 1e3 * t.kernel_cpu / steps, "ms");
  rep.layer("sph.density_interactions_per_step", w.tally.dens_interactions / steps, "count");
  rep.layer("sph.force_interactions_per_step", w.tally.force_interactions / steps, "count");
  rep.layer("sph.max_newton_iters", w.tally.max_newton, "count");
  rep.layer("kernels.gflops_per_core",
            t.kernel_cpu > 0 ? 1e-9 * flops / t.kernel_cpu : 0.0, "GFLOP/s");
  rep.layer("stellar.sn_per_step", w.tally.sn / steps, "count");
  rep.layer("stellar.feedback_cooling_ms", 1e3 * t.feedback_cooling / steps, "ms");
  rep.layer("voxel.roi_ms", median(w.query_ms), "ms");
  rep.layer("galaxy.ic_s", median(ic_s), "s");
  rep.layer("trace.overhead_ms",
            median(bestOfRepeats(w.step_ms, kEpisode)) - median(wide), "ms");
  rep.e2e("peak_rss_mb", peakRssMb(), "MB");
  return rep;
}

}  // namespace perfbench
