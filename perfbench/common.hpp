#pragma once
/// \file common.hpp
/// \brief Shared pieces of the end-to-end benchmark: options, the report
/// every workload fills in, sample statistics, the per-window tally of
/// StepStats counters, the progress-phase probe and the pinned surrogate
/// wrapper backend.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "fdps/particle.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Determinism self-test mode: run one fixed-length episode (no timed
  /// window) and report only the exact work counts.
  bool counts_only = false;
  /// Traced run without the untraced end-to-end window: the per-layer
  /// section another workload's traced run appends.
  bool layers_only = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  std::vector<Metric> end_to_end;  ///< measured with tracing off
  std::vector<Metric> per_layer;   ///< traced runs only
  /// Exact work counts of the run (determinism self-test), name -> count.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// Free-form facts recorded next to the metrics (tail percentile and
  /// sample counts, OpenMP widths, trace path), name -> JSON value text.
  std::vector<std::pair<std::string, std::string>> info;
  long attempted = 0;  ///< steps + surrogate jobs + service requests
  long failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  /// Layers (metric-name prefixes such as "comm" or "core.pool") or single
  /// per-layer metrics the workload leaves idle by design. perfbench/run.py
  /// reports those as 0 and rejects a traced run that omits anything else.
  std::vector<std::string> idle;

  void e2e(const std::string& n, double v, const std::string& u) {
    end_to_end.push_back({n, v, u});
  }
  void layer(const std::string& n, double v, const std::string& u) {
    per_layer.push_back({n, v, u});
  }
  void fail(long n_ops, const std::string& why) {
    failed += n_ops;
    failures.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile that still has at least ten samples beyond it:
/// the sorted sample at index n - 11 (needs n >= 11; shorter series report
/// their maximum and percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Aggregate CPU time of the host's CPUs from /proc/stat, to measure the
/// share the hypervisor gave to other guests ("steal") over an interval.
/// Reads as zero where /proc/stat is absent.
struct CpuClock {
  double steal = 0.0, total = 0.0;
  static CpuClock read();
};
/// Steal share of the CPU time between two readings (0 when none passed).
[[nodiscard]] double stealShare(const CpuClock& from, const CpuClock& to);

/// The end-to-end bounds in BENCHMARK.json were shown to hold on windows
/// with less host steal than this; at 8-16% steal, service_fleet's step
/// p50 read 15-30% and its query tail 40-75% worse than at under 3%.
constexpr double kStealLimit = 0.05;

/// Which repeats (or slices) of a window to report, given the host steal
/// share each ran with: every one under kStealLimit, topped up with the
/// least stolen others to `want` of them, so the tails always have the
/// same number of samples. Windows run on (under the windowDone cap) while
/// fewer than `want` are clean; a window that reports a stolen one is
/// recorded as not comparable.
[[nodiscard]] std::vector<bool> keepRepeats(const std::vector<double>& steal, std::size_t want);

/// Peak resident set of this process [MB].
[[nodiscard]] double peakRssMb();

[[nodiscard]] int hostThreads();

/// JSON array text of `v` (for Report::info).
[[nodiscard]] std::string jsonArray(const std::vector<double>& v);

/// Order-independent conservation fingerprint of a particle set: count, id
/// sum (mod 2^64) and the total mass summed in id order (bitwise exact for
/// the same multiset of (id, mass) pairs).
struct Conservation {
  std::size_t count = 0;
  std::uint64_t id_sum = 0;
  double mass = 0.0;
  bool finite = true;
  bool operator==(const Conservation& o) const {
    return count == o.count && id_sum == o.id_sum && mass == o.mass;
  }
};
[[nodiscard]] Conservation conservation(std::vector<asura::fdps::Particle> parts);

/// FNV-1a over the dynamical state (id, pos, vel, u, mass) in array order.
[[nodiscard]] std::uint64_t stateHash(const std::vector<asura::fdps::Particle>& parts,
                                      std::size_t n);

// ---------------------------------------------------------------------------
// Window tally: StepStats counters and timer-registry deltas over a window
// ---------------------------------------------------------------------------

struct Tally {
  long steps = 0;
  double substeps = 0, force_evals = 0, limiter_wakes = 0;
  double tree_builds = 0, tree_refreshes = 0;
  double grav_interactions = 0, grav_flops = 0;
  double dens_interactions = 0, force_interactions = 0, sph_flops = 0;
  int max_newton = 0;
  double sn = 0, regions_sent = 0, regions_received = 0, fallbacks = 0;
  double let_exchanges = 0, ghost_exchanges = 0, value_refreshes = 0;
  double migrated = 0, rebalances = 0, reach_retries = 0;
  double eval_imbalance = 0, work_imbalance = 0, work_seconds = 0;
  void add(const asura::core::StepStats& st);
};

/// Timer-registry categories the per-layer metrics read, captured so a
/// window's share is a difference of two snapshots.
struct Timers {
  double tree_build = 0, walk_cpu = 0, kernel_cpu = 0;
  double receive = 0, feedback_cooling = 0, exchange = 0;
  static Timers read(const asura::util::TimerRegistry& reg);
  Timers operator-(const Timers& o) const;
};

// ---------------------------------------------------------------------------
// Progress-phase probe (Simulation::setProgressReporter)
// ---------------------------------------------------------------------------

/// Splits each step at the progress marks Simulation::step publishes:
/// phase 0 (entry) -> 1 (integration done) -> 2 (final force pass and
/// validation done), with one mark per hierarchical sub-step in between.
/// Records core.integrate / core.sync / core.substep spans and sums the
/// integrate and sync wall time.
class PhaseProbe {
 public:
  [[nodiscard]] std::function<void(long, int)> reporter();
  double integrate_ms = 0.0;
  double sync_ms = 0.0;

 private:
  double t_entry_ = 0.0, t_mark_ = 0.0, t_integrated_ = 0.0;
};

// ---------------------------------------------------------------------------
// Pool-side surrogate wrapper
// ---------------------------------------------------------------------------

/// Wraps the real surrogate backend on the pool: pins the calling pool
/// worker's OpenMP width (a per-thread setting), times every predict call,
/// records a core.pool.predictBatch span on the pool thread and, when asked,
/// keeps copies of the first requests for the voxel/ml replay.
class PinnedBackend final : public asura::core::SurrogateBackend {
 public:
  PinnedBackend(std::shared_ptr<asura::core::SurrogateBackend> inner, int omp_width)
      : inner_(std::move(inner)), width_(omp_width) {}

  std::vector<asura::fdps::Particle> predict(std::vector<asura::fdps::Particle> region,
                                             const asura::util::Vec3d& sn_pos,
                                             double energy, double horizon) override;
  std::vector<std::vector<asura::fdps::Particle>> predictBatch(
      std::vector<asura::core::SurrogateRequest> requests) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void captureFirst(std::size_t n) { capture_limit_ = n; }
  [[nodiscard]] std::vector<asura::core::SurrogateRequest> captured();

  [[nodiscard]] double busySeconds() const { return 1e-9 * static_cast<double>(busy_ns_.load()); }
  [[nodiscard]] std::uint64_t batches() const { return batches_.load(); }
  [[nodiscard]] std::uint64_t jobs() const { return jobs_.load(); }

 private:
  void enter();

  std::shared_ptr<asura::core::SurrogateBackend> inner_;
  int width_;
  std::atomic<std::uint64_t> busy_ns_{0}, batches_{0}, jobs_{0};
  std::atomic<std::size_t> capture_limit_{0};
  std::mutex capture_mu_;
  std::vector<asura::core::SurrogateRequest> captured_;
};

// ---------------------------------------------------------------------------
// Shared reporting and replay helpers
// ---------------------------------------------------------------------------

/// Median wall time [ms] of `reps` calls of f.
template <class F>
double medianMs(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = nowUs();
    f();
    t.push_back(1e-3 * (nowUs() - t0));
  }
  return median(t);
}

/// The end-to-end metrics every workload reports from its untraced window
/// (peak_rss_mb is added last, when the run is over), plus the tail
/// percentile and sample counts next to them. The p50s are taken over
/// step_ms and query_ms, the tails over step_tail_ms and query_tail_ms.
void reportEndToEnd(Report& rep, double particle_steps, double step_seconds,
                    const std::vector<double>& step_ms, const std::vector<double>& step_tail_ms,
                    const std::vector<double>& query_ms, const std::vector<double>& query_tail_ms,
                    const std::vector<double>& setup_s);

/// Stop rule of a replayed window after `done` repeats (episodes or rounds),
/// `clean` of them under kStealLimit, that took `elapsed` seconds: stop once
/// `want` clean repeats ran and `seconds` have passed (rounded to the
/// nearest repeat), or when one more repeat would end past 1.5 x `seconds`
/// — on a slowed host a run gets fewer repeats rather than a longer window.
[[nodiscard]] bool windowDone(int done, int clean, int want, double elapsed, double seconds);

/// Replayed windows run every step position (step k of an episode, or of a
/// round of episodes) at least twice. Host noise on a shared virtual
/// machine comes in bursts of seconds (hypervisor steal), so each position
/// keeps its fastest repeat: out[i] = min over j of series[i + j * period].
[[nodiscard]] std::vector<double> bestOfRepeats(const std::vector<double>& series,
                                                std::size_t period);

/// reportEndToEnd for a replayed window that aimed at `want` repeats, of
/// which repeat j ran with steal share repeat_steal[j]. Over the repeats
/// keepRepeats picks: p50 and throughput (particles x positions / the
/// summed best step times) over the best-of-repeats step times, the query
/// p50 over the best-of-repeats query times, the tails over every raw step
/// and query sample.
void reportReplayedEndToEnd(Report& rep, double particles, const std::vector<double>& step_ms,
                            std::size_t step_period, const std::vector<double>& query_ms,
                            std::size_t query_period, const std::vector<double>& repeat_steal,
                            std::size_t want, const std::vector<double>& setup_s);

/// gravity.force_ms, sph.density_ms and sph.hydro_ms: each pass replayed on
/// a fresh copy of `state` (hydro on the density pass's output) through the
/// public throwaway-tree entry points (accumulateTreeGravity, solveDensity,
/// accumulateHydroForce); median of 3, copies untimed.
void reportForceReplays(Report& rep, const std::vector<asura::fdps::Particle>& state,
                        const asura::core::SimulationConfig& cfg);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Report runMwMiniSn(const Options& opt);
Report runSnStormP4(const Options& opt);
Report runServiceFleet(const Options& opt);

}  // namespace perfbench
