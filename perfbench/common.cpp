#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "util/omp.hpp"

namespace perfbench {

using asura::fdps::Particle;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const std::size_t k = v.size() - 11;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(v.size() - 1);
  return t;
}

CpuClock CpuClock::read() {
  CpuClock c;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user nice system idle iowait irq softirq steal
  if (!(in >> cpu) || cpu != "cpu") return c;
  for (double& x : f) {
    if (!(in >> x)) return CpuClock{};
  }
  c.steal = f[7];
  for (double x : f) c.total += x;
  return c;
}

double stealShare(const CpuClock& from, const CpuClock& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<bool> keepRepeats(const std::vector<double>& steal, std::size_t want) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> keep(steal.size(), false);
  for (std::size_t r = 0; r < order.size(); ++r) {
    keep[order[r]] = r < want || steal[order[r]] <= kStealLimit;
  }
  return keep;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

int hostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string jsonArray(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

Conservation conservation(std::vector<Particle> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  Conservation c;
  c.count = parts.size();
  for (const auto& p : parts) {
    c.id_sum += p.id;
    c.mass += p.mass;
    c.finite = c.finite && std::isfinite(p.pos.x) && std::isfinite(p.pos.y) &&
               std::isfinite(p.pos.z) && std::isfinite(p.vel.x) &&
               std::isfinite(p.vel.y) && std::isfinite(p.vel.z) &&
               std::isfinite(p.u) && std::isfinite(p.mass);
  }
  return c;
}

std::uint64_t stateHash(const std::vector<Particle>& parts, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < n && i < parts.size(); ++i) {
    const auto& p = parts[i];
    const double f[8] = {p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z, p.u, p.mass};
    mix(&p.id, sizeof(p.id));
    mix(f, sizeof(f));
  }
  return h;
}

void Tally::add(const asura::core::StepStats& st) {
  ++steps;
  substeps += st.substeps;
  force_evals += static_cast<double>(st.force_evaluations);
  limiter_wakes += st.limiter_wakes;
  tree_builds += st.tree_builds;
  tree_refreshes += st.tree_refreshes;
  grav_interactions += static_cast<double>(st.gravity_stats.ep_interactions +
                                           st.gravity_stats.sp_interactions);
  grav_flops += st.gravity_stats.flops();
  dens_interactions += static_cast<double>(st.density_stats.interactions);
  force_interactions += static_cast<double>(st.force_stats.interactions);
  sph_flops += 73.0 * static_cast<double>(st.density_stats.interactions) +
               st.force_stats.flops();
  max_newton = std::max(max_newton, st.density_stats.max_iterations);
  sn += st.sn_identified;
  regions_sent += st.regions_sent;
  regions_received += st.regions_received;
  fallbacks += st.surrogate_fallbacks;
  let_exchanges += st.let_exchanges;
  ghost_exchanges += st.ghost_exchanges;
  value_refreshes += st.ghost_value_refreshes + st.let_value_refreshes;
  migrated += st.migrated;
  rebalances += st.rebalances;
  reach_retries += st.reach_retries;
  if (st.rank_evals_mean > 0) eval_imbalance += st.rank_evals_max / st.rank_evals_mean;
  if (st.rank_work_mean > 0) work_imbalance += st.rank_work_max / st.rank_work_mean;
  work_seconds += st.work_seconds;
}

Timers Timers::read(const asura::util::TimerRegistry& reg) {
  Timers t;
  t.tree_build = reg.total("Tree_Build");
  t.walk_cpu = reg.total("Tree_Walk (cpu)");
  t.kernel_cpu = reg.total("Interaction_Kernel (cpu)");
  t.receive = reg.total("Receive_SNe");
  t.feedback_cooling = reg.total("Feedback_and_Cooling") + reg.total("Preprocess_of_Feedback");
  t.exchange = reg.total("1st Exchange_LET") + reg.total("2nd Exchange_LET") +
               reg.total("Exchange_Particle");
  return t;
}

Timers Timers::operator-(const Timers& o) const {
  Timers t;
  t.tree_build = tree_build - o.tree_build;
  t.walk_cpu = walk_cpu - o.walk_cpu;
  t.kernel_cpu = kernel_cpu - o.kernel_cpu;
  t.receive = receive - o.receive;
  t.feedback_cooling = feedback_cooling - o.feedback_cooling;
  t.exchange = exchange - o.exchange;
  return t;
}

void reportEndToEnd(Report& rep, double particle_steps, double step_seconds,
                    const std::vector<double>& step_ms, const std::vector<double>& step_tail_ms,
                    const std::vector<double>& query_ms, const std::vector<double>& query_tail_ms,
                    const std::vector<double>& setup_s) {
  const Tail step_tail = tail(step_tail_ms);
  const Tail query_tail = tail(query_tail_ms);
  rep.e2e("particle_steps_per_s", particle_steps / step_seconds, "1/s");
  rep.e2e("step_ms_p50", median(step_ms), "ms");
  rep.e2e("step_ms_tail", step_tail.value, "ms");
  rep.e2e("query_ms_p50", median(query_ms), "ms");
  rep.e2e("query_ms_tail", query_tail.value, "ms");
  rep.e2e("setup_s", median(setup_s), "s");
  rep.info.push_back({"step_ms_tail_percentile", std::to_string(step_tail.percentile)});
  rep.info.push_back({"step_samples", std::to_string(step_tail.samples)});
  rep.info.push_back({"query_ms_tail_percentile", std::to_string(query_tail.percentile)});
  rep.info.push_back({"query_samples", std::to_string(query_tail.samples)});
}

bool windowDone(int done, int clean, int want, double elapsed, double seconds) {
  if (clean >= want && elapsed * (1.0 + 0.5 / done) >= seconds) return true;
  return elapsed * (1.0 + 1.0 / done) > 1.5 * seconds;
}

std::vector<double> bestOfRepeats(const std::vector<double>& series, std::size_t period) {
  std::vector<double> out(std::min(period, series.size()));
  for (std::size_t i = 0; i < series.size(); ++i) {
    double& best = out[i % period];
    best = i < period ? series[i] : std::min(best, series[i]);
  }
  return out;
}

void reportReplayedEndToEnd(Report& rep, double particles, const std::vector<double>& step_ms,
                            std::size_t step_period, const std::vector<double>& query_ms,
                            std::size_t query_period, const std::vector<double>& repeat_steal,
                            std::size_t want, const std::vector<double>& setup_s) {
  const std::size_t repeats = std::min(step_ms.size() / std::max<std::size_t>(1, step_period),
                                       repeat_steal.size());
  const auto keep = keepRepeats(
      {repeat_steal.begin(), repeat_steal.begin() + static_cast<std::ptrdiff_t>(repeats)}, want);
  std::vector<double> kept_steps, kept_queries, kept_steal;
  for (std::size_t j = 0; j < repeats; ++j) {
    if (!keep[j]) continue;
    const auto pick = [j](const std::vector<double>& from, std::size_t period,
                          std::vector<double>& to) {
      const auto first = from.begin() + static_cast<std::ptrdiff_t>(j * period);
      to.insert(to.end(), first, first + static_cast<std::ptrdiff_t>(period));
    };
    pick(step_ms, step_period, kept_steps);
    pick(query_ms, query_period, kept_queries);
    kept_steal.push_back(repeat_steal[j]);
  }
  const auto steps = bestOfRepeats(kept_steps, step_period);
  double step_s = 0.0;
  for (double ms : steps) step_s += 1e-3 * ms;
  // The tails over every kept raw sample, not over the best-of series: a
  // tail is there to show intermittent slow steps and queries.
  reportEndToEnd(rep, particles * static_cast<double>(steps.size()), step_s, steps, kept_steps,
                 bestOfRepeats(kept_queries, query_period), kept_queries, setup_s);
  rep.info.push_back({"repeats", std::to_string(repeats)});
  rep.info.push_back({"repeats_kept", std::to_string(kept_steal.size())});
  rep.info.push_back({"repeat_steal_frac", jsonArray(repeat_steal)});
  const bool stolen = std::any_of(kept_steal.begin(), kept_steal.end(),
                                  [](double s) { return s > kStealLimit; });
  rep.info.push_back({"steal_frac", std::to_string(median(kept_steal))});
  rep.info.push_back({"comparable", stolen ? "false" : "true"});
  rep.info.push_back({"step_ms_series", jsonArray(step_ms)});
}

void reportForceReplays(Report& rep, const std::vector<Particle>& state,
                        const asura::core::SimulationConfig& cfg) {
  std::vector<double> gravity_ms, density_ms, hydro_ms;
  auto timed = [](const char* span, std::vector<double>& out, auto&& f) {
    Span s(span);
    const double t0 = nowUs();
    f();
    out.push_back(1e-3 * (nowUs() - t0));
  };
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    auto p = state;
    for (auto& q : p) {
      q.acc = {0, 0, 0};
      q.pot = 0.0;
    }
    timed("replay.gravity", gravity_ms,
          [&] { (void)asura::gravity::accumulateTreeGravity(p, {}, cfg.gravity); });
    p = state;
    timed("replay.density", density_ms,
          [&] { (void)asura::sph::solveDensity(p, p.size(), cfg.sph); });
    timed("replay.hydro", hydro_ms,
          [&] { (void)asura::sph::accumulateHydroForce(p, p.size(), cfg.sph); });
  }
  rep.layer("gravity.force_ms", median(gravity_ms), "ms");
  rep.layer("sph.density_ms", median(density_ms), "ms");
  rep.layer("sph.hydro_ms", median(hydro_ms), "ms");
}

std::function<void(long, int)> PhaseProbe::reporter() {
  return [this](long, int phase) {
    const double now = nowUs();
    auto& tracer = Tracer::instance();
    if (phase == 0) {
      t_entry_ = t_mark_ = now;
    } else if (phase >= 16) {
      // The first sub-step span also covers the step prologue (particle
      // exchange, SN identification and send) that precedes the loop.
      tracer.record("core.substep", t_mark_, now);
      t_mark_ = now;
    } else if (phase == 1) {
      tracer.record("core.integrate", t_entry_, now);
      integrate_ms += 1e-3 * (now - t_entry_);
      t_integrated_ = now;
    } else if (phase == 2) {
      tracer.record("core.sync", t_integrated_, now);
      sync_ms += 1e-3 * (now - t_integrated_);
    }
  };
}

void PinnedBackend::enter() {
  asura::util::ompSetThreads(width_);
  thread_local bool named = false;
  if (!named) {
    Tracer::instance().nameThread("pool worker");
    named = true;
  }
}

std::vector<Particle> PinnedBackend::predict(std::vector<Particle> region,
                                             const asura::util::Vec3d& sn_pos,
                                             double energy, double horizon) {
  std::vector<asura::core::SurrogateRequest> one(1);
  one[0] = {std::move(region), sn_pos, energy, horizon};
  return std::move(predictBatch(std::move(one)).front());
}

std::vector<std::vector<Particle>> PinnedBackend::predictBatch(
    std::vector<asura::core::SurrogateRequest> requests) {
  enter();
  if (capture_limit_ > 0) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    for (const auto& r : requests) {
      if (captured_.size() < capture_limit_) captured_.push_back(r);
    }
  }
  Span span("core.pool.predictBatch");
  const double t0 = nowUs();
  auto out = inner_->predictBatch(std::move(requests));
  busy_ns_ += static_cast<std::uint64_t>(1e3 * (nowUs() - t0));
  ++batches_;
  jobs_ += out.size();
  return out;
}

std::vector<asura::core::SurrogateRequest> PinnedBackend::captured() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return captured_;
}

}  // namespace perfbench
