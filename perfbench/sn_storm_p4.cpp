// Workload sn_storm_p4: the SN-storm fixture (tests/ic_fixtures.hpp) on 4
// in-process ranks with one OpenMP thread each — hierarchical rungs with
// the Saitoh–Makino limiter, weighted Morton decomposition with maintain(),
// and direct feedback.
//
// Why: exchange, LET/ghost caching, rebalancing and the sub-step cadence
// dominate. Idle layers: the surrogate pool, ml and service.
//
// A run sets up kRealizations independent storms (seed-derived); each
// one's step 0 (set-up) fires its first progenitor, and an episode is the
// next kEpisode steps, during which the remaining ones fire. The timed
// window replays whole rounds (one episode of every realization) from the
// per-rank snapshots taken after set-up, so a run averages over
// kRealizations x kSn explosions instead of hanging on where a few landed.

#include <algorithm>
#include <memory>
#include <mutex>

#include "comm/comm.hpp"
#include "common.hpp"
#include "core/distributed.hpp"
#include "gravity/gravity.hpp"
#include "io/serialize.hpp"
#include "sph/kernels.hpp"
#include "sph/sph.hpp"
#include "tests/ic_fixtures.hpp"
#include "trace.hpp"
#include "util/omp.hpp"
#include "voxel/voxel.hpp"

namespace perfbench {
namespace {

using asura::comm::Comm;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;

constexpr int kRanks = 4;
constexpr int kParticles = 6000;
constexpr int kSn = 8;
constexpr int kEpisode = kSn;  // steps 1..8: progenitors 1..7 fire, one quiet step
constexpr int kQueriesPerStep = 4;
constexpr int kRealizations = 4;  // also the number of set-ups per run
constexpr int kRepeats = 2;       // rounds a window aims at (best-of-2 per step)

SimulationConfig stormConfig(std::uint64_t seed) {
  SimulationConfig cfg;
  cfg.use_surrogate = false;  // direct feedback
  cfg.enable_star_formation = false;
  cfg.enable_cooling = true;
  cfg.hierarchical_timestep = true;
  cfg.timestep_limiter = true;
  cfg.max_rung = 6;
  cfg.dt_global = 0.005;  // one progenitor per step (t_sn spacing 5e-3)
  cfg.seed = seed;
  return cfg;
}

asura::core::DistributedConfig engineConfig() {
  asura::core::DistributedConfig d;
  d.skin = 1.0;
  d.weighted_decomposition = true;
  d.decompose_interval = 0;  // decompose once, maintain() thereafter
  d.imbalance_threshold = 1.1;
  return d;
}

/// What each rank hands back; rank 0's entries hold the collective view.
struct RankOut {
  std::vector<asura::core::StepStats> stats;  ///< every tallied step
  Timers timers;
  PhaseProbe probe;
  std::vector<Particle> final_locals;
};

struct Window {
  std::vector<double> step_ms, query_ms;  ///< rank 0's view
  std::vector<double> round_steal;        ///< host steal share of each round
  double step_s = 0.0;
  int episodes = 0, clean_rounds = 0;
  double bytes = 0.0, messages = 0.0;
};

struct Shared {
  explicit Shared(asura::comm::Cluster& c) : cluster(c), ranks(kRanks) {}
  asura::comm::Cluster& cluster;
  std::vector<RankOut> ranks;
  std::vector<std::vector<Particle>> exchange;  ///< per-rank locals for checks
  std::mutex mu;
  std::vector<double> setup_s;
  std::vector<Conservation> ic_cons;     ///< per realization
  std::vector<std::uint64_t> first_hash;  ///< per realization, 0 = not run yet
};

/// One rank's whole run: set-ups, then the windows the options ask for.
class RankRun {
 public:
  RankRun(Comm& comm, Shared& sh, const Options& opt, Report& rep)
      : comm_(comm), sh_(sh), opt_(opt), rep_(rep), out_(sh.ranks[comm.rank()]) {}

  void setUp() {
    for (int i = 0; i < kRealizations; ++i) {
      sim_.reset();
      comm_.barrier();
      Span span("workload.setup");
      const double t0 = nowUs();
      const std::uint64_t seed = opt_.seed * kRealizations + static_cast<std::uint64_t>(i);
      const auto ic = asura::testing::snStormIc(kParticles, seed, kSn);
      sim_ = std::make_unique<Simulation>(
          asura::core::blockPartition(ic, comm_.rank(), kRanks), stormConfig(opt_.seed));
      sim_->attachDistributed(
          std::make_unique<asura::core::DistributedEngine>(comm_, engineConfig()));
      sim_->step();  // warm-up: decomposition, first exchanges, progenitor 0
      asura::io::ByteWriter w;
      sim_->serializeState(w);
      snapshots_.push_back(w.take());
      comm_.barrier();
      if (rank0()) {
        sh_.setup_s.push_back(1e-6 * (nowUs() - t0));
        sh_.ic_cons.push_back(conservation(ic));
        sh_.first_hash.push_back(0);
        n_particles_ = ic.size();
      }
    }
  }

  /// Whole rounds under the windowDone rule (aiming at `min_rounds`).
  Window run(double seconds, bool tally, int min_rounds) {
    Window w;
    const Timers timers0 = Timers::read(sim_->timers());
    const asura::sph::Kernel kernel{};
    asura::voxel::RoiSpec roi;
    roi.center = {4.0, 4.0, 4.0};  // the clump
    roi.box_size = 6.0;
    roi.grid_n = 16;
    const double t_start = nowUs();
    CpuClock round_start = CpuClock::read();
    for (;;) {
      const int real = w.episodes % kRealizations;
      const auto& snapshot = snapshots_[static_cast<std::size_t>(real)];
      asura::io::ByteReader r(snapshot.data(), snapshot.size());
      sim_->restoreState(r);
      comm_.barrier();
      const auto traffic0 = sh_.cluster.traffic();
      comm_.barrier();
      Tally ep;
      for (int k = 0; k < kEpisode; ++k) {
        const double t0 = nowUs();
        {
          Span span("step");
          const auto st = sim_->step();
          ep.add(st);
          if (tally) out_.stats.push_back(st);
        }
        const double ms = 1e-3 * (nowUs() - t0);
        for (int q = 0; q < kQueriesPerStep; ++q) {
          comm_.barrier();
          const double q0 = nowUs();
          {
            Span span("query.roi");
            const std::span<const Particle> locals(sim_->particles().data(), sim_->nLocal());
            (void)asura::voxel::projectRoi(locals, roi, {}, kernel);
          }
          comm_.barrier();
          if (rank0()) {
            w.query_ms.push_back(1e-3 * (nowUs() - q0));
            ++rep_.attempted;
          }
        }
        if (rank0()) {
          w.step_ms.push_back(ms);
          w.step_s += 1e-3 * ms;
        }
      }
      comm_.barrier();
      const auto traffic1 = sh_.cluster.traffic();
      if (rank0()) {
        w.bytes += static_cast<double>(traffic1.bytes - traffic0.bytes);
        w.messages += static_cast<double>(traffic1.messages - traffic0.messages);
      }
      checkEpisode(ep, real);
      if (++w.episodes % kRealizations != 0) continue;
      const CpuClock now = CpuClock::read();
      const double steal = stealShare(round_start, now);
      round_start = now;
      w.round_steal.push_back(steal);
      w.clean_rounds += steal <= kStealLimit;
      const double elapsed = 1e-6 * (nowUs() - t_start);
      const bool done = windowDone(w.episodes / kRealizations, w.clean_rounds, min_rounds,
                                   elapsed, seconds);
      const double stop = comm_.allreduce(rank0() && done ? 1.0 : 0.0, asura::comm::Op::Max);
      if (stop > 0.0) break;
    }
    if (tally) out_.timers = Timers::read(sim_->timers()) - timers0;
    return w;
  }

  void traceOn() {
    sim_->setProgressReporter(out_.probe.reporter());
    Tracer::instance().nameThread("rank " + std::to_string(comm_.rank()));
  }
  void traceOff() { sim_->setProgressReporter({}); }

  void keepFinalState() {
    out_.final_locals.assign(sim_->particles().begin(),
                             sim_->particles().begin() + static_cast<long>(sim_->nLocal()));
  }

  [[nodiscard]] std::size_t particles() const { return n_particles_; }

 private:
  [[nodiscard]] bool rank0() const { return comm_.rank() == 0; }

  /// Exact conservation over all ranks, and every replayed episode bitwise
  /// equal to the first one of its realization (checked on the id-sorted
  /// global state).
  void checkEpisode(const Tally& ep, int real) {
    {
      std::lock_guard<std::mutex> lock(sh_.mu);
      sh_.exchange.resize(kRanks);
      sh_.exchange[static_cast<std::size_t>(comm_.rank())].assign(
          sim_->particles().begin(), sim_->particles().begin() + static_cast<long>(sim_->nLocal()));
    }
    comm_.barrier();
    if (rank0()) {
      std::vector<Particle> all;
      for (const auto& part : sh_.exchange) all.insert(all.end(), part.begin(), part.end());
      const auto cons = conservation(all);
      std::sort(all.begin(), all.end(),
                [](const Particle& a, const Particle& b) { return a.id < b.id; });
      const std::uint64_t h = stateHash(all, all.size());
      rep_.attempted += ep.steps;
      auto& first = sh_.first_hash[static_cast<std::size_t>(real)];
      if (!(cons == sh_.ic_cons[static_cast<std::size_t>(real)]) || !cons.finite) {
        rep_.fail(ep.steps, "particle count/mass/id-sum not conserved or non-finite state");
      }
      if (first == 0) {
        first = h;
      } else if (h != first) {
        rep_.fail(ep.steps, "replayed episode diverged from the first one");
      }
    }
    comm_.barrier();
  }

  Comm& comm_;
  Shared& sh_;
  const Options& opt_;
  Report& rep_;
  RankOut& out_;
  std::unique_ptr<Simulation> sim_;
  std::vector<std::vector<char>> snapshots_;  ///< per realization
  std::size_t n_particles_ = 0;
};

}  // namespace

Report runSnStormP4(const Options& opt) {
  Report rep;
  rep.idle = {"core.pool", "ml", "voxel.deposit_ms", "voxel.sample_ms", "service", "io",
              "galaxy", "core.omp_speedup"};
  auto& tracer = Tracer::instance();
  rep.info.push_back({"ranks", std::to_string(kRanks)});
  rep.info.push_back({"omp_threads_per_rank", "1"});
  asura::comm::Cluster cluster(kRanks);
  Shared sh(cluster);
  Window base, traced;
  std::size_t n_particles = 0;
  cluster.run([&](Comm& comm) {
    asura::util::ompSetThreads(1);
    RankRun run(comm, sh, opt, rep);
    tracer.setEnabled(opt.trace && !opt.counts_only);
    run.setUp();
    comm.barrier();
    tracer.setEnabled(false);
    const bool counts = opt.counts_only;
    if (comm.rank() == 0) n_particles = run.particles();
    if (!opt.layers_only) {
      const double seconds = counts ? 0.0 : (opt.trace ? 0.5 * opt.seconds : opt.seconds);
      Window w = run.run(seconds, counts, counts ? 1 : kRepeats);
      if (comm.rank() == 0) base = w;
    }
    if (opt.trace && !counts) {
      run.traceOn();
      comm.barrier();
      if (comm.rank() == 0) tracer.setEnabled(true);
      comm.barrier();
      Window t;
      {
        Span span("window");
        t = run.run(0.5 * opt.seconds, true, opt.layers_only ? 1 : 2);
      }
      comm.barrier();
      if (comm.rank() == 0) {
        tracer.setEnabled(false);
        traced = t;
      }
      run.traceOff();
    }
    run.keepFinalState();
  });

  const auto& r0 = sh.ranks[0];
  std::vector<Particle> state;  // end-of-run global state, id order
  for (const auto& r : sh.ranks) {
    state.insert(state.end(), r.final_locals.begin(), r.final_locals.end());
  }
  std::sort(state.begin(), state.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  // Cross-rank sums of the tallied steps, and rank 0's own (its view of
  // the collective decisions).
  Tally sum, t0;
  for (const auto& r : sh.ranks) {
    for (const auto& st : r.stats) sum.add(st);
  }
  for (const auto& st : r0.stats) t0.add(st);
  if (opt.counts_only) {
    rep.counts = {
        {"steps", static_cast<std::uint64_t>(t0.steps)},
        {"gravity_interactions", static_cast<std::uint64_t>(sum.grav_interactions)},
        {"sph_interactions",
         static_cast<std::uint64_t>(sum.dens_interactions + sum.force_interactions)},
        {"comm_bytes", static_cast<std::uint64_t>(base.bytes)},
        {"comm_messages", static_cast<std::uint64_t>(base.messages)},
        {"substeps", static_cast<std::uint64_t>(t0.substeps)},
        {"limiter_wakes", static_cast<std::uint64_t>(sum.limiter_wakes)},
        {"state_hash", stateHash(state, state.size())},
    };
    return rep;
  }

  constexpr std::size_t kPositions = kRealizations * kEpisode;
  rep.info.push_back({"realizations", std::to_string(kRealizations)});
  rep.info.push_back({"particles", std::to_string(n_particles)});
  if (!opt.layers_only) {
    reportReplayedEndToEnd(rep, static_cast<double>(n_particles), base.step_ms, kPositions,
                           base.query_ms, kPositions * kQueriesPerStep, base.round_steal,
                           kRepeats, sh.setup_s);
    rep.info.push_back({"episodes", std::to_string(base.episodes)});
  }
  if (!opt.trace) {
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    return rep;
  }

  // Cross-rank combination: thread-summed CPU categories and per-rank work
  // add up; wall-clock categories take the slowest rank; collective
  // decisions are read from rank 0.
  double walk_cpu = 0, kernel_cpu = 0, tree_build = 0, exchange = 0, feedback = 0;
  for (const auto& r : sh.ranks) {
    walk_cpu += r.timers.walk_cpu;
    kernel_cpu += r.timers.kernel_cpu;
    tree_build = std::max(tree_build, r.timers.tree_build);
    exchange = std::max(exchange, r.timers.exchange);
    feedback = std::max(feedback, r.timers.feedback_cooling);
  }
  const double work_s = sum.work_seconds / kRanks;
  const double steps = static_cast<double>(traced.step_ms.size());
  const double step_sum_ms = 1e3 * traced.step_s;

  // Single-layer replays on the gathered end-of-window state, at the
  // workload's per-rank width of one thread.
  tracer.setEnabled(true);
  asura::util::ompSetThreads(1);
  reportForceReplays(rep, state, stormConfig(opt.seed));
  tracer.setEnabled(false);

  rep.layer("core.integrate_ms", r0.probe.integrate_ms / steps, "ms");
  rep.layer("core.sync_ms", r0.probe.sync_ms / steps, "ms");
  rep.layer("core.unattributed_ms",
            (step_sum_ms - r0.probe.integrate_ms - r0.probe.sync_ms) / steps, "ms");
  rep.layer("core.substeps_per_step", t0.substeps / steps, "count");
  rep.layer("core.force_evals_per_step", sum.force_evals / steps, "count");
  rep.layer("core.limiter_wakes_per_step", sum.limiter_wakes / steps, "count");
  rep.layer("fdps.tree_build_ms", 1e3 * tree_build / steps, "ms");
  rep.layer("fdps.tree_builds_per_step", sum.tree_builds / steps, "count");
  rep.layer("fdps.tree_refreshes_per_step", sum.tree_refreshes / steps, "count");
  rep.layer("gravity.interactions_per_step", sum.grav_interactions / steps, "count");
  rep.layer("gravity.walk_cpu_ms", 1e3 * walk_cpu / steps, "ms");
  rep.layer("gravity.kernel_cpu_ms", 1e3 * kernel_cpu / steps, "ms");
  rep.layer("sph.density_interactions_per_step", sum.dens_interactions / steps, "count");
  rep.layer("sph.force_interactions_per_step", sum.force_interactions / steps, "count");
  rep.layer("sph.max_newton_iters", sum.max_newton, "count");
  rep.layer("kernels.gflops_per_core",
            kernel_cpu > 0 ? 1e-9 * (sum.grav_flops + sum.sph_flops) / kernel_cpu : 0.0,
            "GFLOP/s");
  rep.layer("comm.bytes_per_step", traced.bytes / steps, "B");
  rep.layer("comm.messages_per_step", traced.messages / steps, "count");
  rep.layer("comm.exchange_ms", 1e3 * exchange / steps, "ms");
  rep.layer("comm.wait_frac", step_sum_ms > 0 ? 1.0 - 1e3 * work_s / step_sum_ms : 0.0, "ratio");
  rep.layer("core.distributed.let_exchanges_per_step", t0.let_exchanges / steps, "count");
  rep.layer("core.distributed.ghost_exchanges_per_step", t0.ghost_exchanges / steps, "count");
  rep.layer("core.distributed.value_refreshes_per_step", t0.value_refreshes / steps, "count");
  rep.layer("core.distributed.migrated_per_step", t0.migrated / steps, "count");
  rep.layer("core.distributed.rebalances", t0.rebalances, "count");
  rep.layer("core.distributed.reach_retries", t0.reach_retries, "count");
  rep.layer("core.distributed.eval_imbalance", t0.eval_imbalance / steps, "ratio");
  rep.layer("core.distributed.work_imbalance", t0.work_imbalance / steps, "ratio");
  rep.layer("stellar.sn_per_step", t0.sn / steps, "count");
  rep.layer("stellar.feedback_cooling_ms", 1e3 * feedback / steps, "ms");
  // Rank 0's view of the collective ROI projection (each rank projects its
  // locals between two barriers).
  rep.layer("voxel.roi_ms", median(traced.query_ms), "ms");
  if (opt.layers_only) return rep;
  rep.layer("trace.overhead_ms",
            median(bestOfRepeats(traced.step_ms, kPositions)) -
                median(bestOfRepeats(base.step_ms, kPositions)),
            "ms");
  rep.e2e("peak_rss_mb", peakRssMb(), "MB");
  return rep;
}

}  // namespace perfbench
