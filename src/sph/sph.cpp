#include "sph/sph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fdps/tree.hpp"
#include "kernels/registry.hpp"
#include "sph/eos.hpp"
#include "util/omp.hpp"
#include "util/timer.hpp"

namespace asura::sph {

using fdps::SourceEntry;
using fdps::SourceTree;
using fdps::TargetGroup;
using util::ompThreadId;
using util::Vec3d;

namespace {

/// Fitted W/dW tables for the configured SPH kernel shape (the PIKG `table`
/// op evaluates wbar(u) = W(u,1) and dwbar(u) = dW/dr(u,1) on u = r/H).
pikg::gen::SphKernelTables sphTablesFor(const SphParams& params) {
  return pikg::gen::sphTables(params.kernel.type == KernelType::WendlandC2 ? 1 : 0);
}

/// Grow-only resize: per-thread scratch keeps its high-water size, so
/// steady-state groups neither allocate nor zero-fill.
template <class T>
void fit(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Refill the per-pass j-payload from the gas tree's entries (serial
/// prologue of each pass; the loop itself is parallel over entries). The
/// density pass needs only the first cache line of each record; the hydro
/// pass adds the thermodynamic second line. Each value is a pure function
/// of one entry, so where it is computed cannot change a kernel input.
void fillPayload(std::vector<fdps::SphPayload>& pl, const SourceTree& tree,
                 std::span<const Particle> work, bool hydro) {
  const auto& entries = tree.entries();
  pl.resize(entries.size());
  const auto n_entries = static_cast<std::int64_t>(entries.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n_entries; ++i) {
    const auto e = static_cast<std::size_t>(i);
    const SourceEntry& s = entries[e];
    const Particle& q = work[s.idx];
    fdps::SphPayload& r = pl[e];
    r.x = s.pos.x; r.y = s.pos.y; r.z = s.pos.z;
    r.m = s.mass;
    r.vx = q.vel.x; r.vy = q.vel.y; r.vz = q.vel.z;
    r.idx = s.idx;
    r.rung = q.rung;
    if (!hydro) continue;
    // Supports come from the tree entry (the refreshed, converged H).
    const double Hj = s.h;
    const double hj = 0.5 * Hj;
    const double hinv_j = 1.0 / Hj;
    const double hinv2_j = hinv_j * hinv_j;
    r.h = Hj;
    r.hh = hj;
    r.hinv = hinv_j;
    r.h4 = hinv2_j * hinv2_j;
    // Thermodynamics from the *predicted* u: for an active neighbour
    // u_pred == u and this reproduces q.pres/q.cs exactly (same EOS, same
    // inputs); for an inactive one it is the drift-advanced estimate at the
    // current sub-step time instead of the state frozen at its last closing.
    // (Predicting rho through the continuity equation as well was tried and
    // rejected: mixed-epoch density estimates break the pairwise symmetry
    // SPH conservation leans on and measurably worsen blastwave drift.)
    const double pres = pressure(q.rho, q.u_pred);
    const double cj = soundSpeed(q.u_pred);
    r.rho = q.rho;
    r.p2 = pres / (q.rho * q.rho);
    r.cs = cj;
    r.bal = std::abs(q.divv) /
            (std::abs(q.divv) + q.curlv + 1e-4 * cj / std::max(hj, 1e-30));
  }
}

/// One group-shared neighbour walk: fills a.idx with the candidate entries
/// and stages their positions (and, for the hydro sweep, support and
/// originating index) into contiguous SoA, with room for the selection
/// kernels' store slack in the per-target outputs.
void gatherCandidates(fdps::ThreadArena& a, const SourceTree& tree,
                      const std::vector<fdps::SphPayload>& pl, const TargetGroup& grp,
                      double radius, const pikg::KernelSet& kset, bool hydro,
                      double& walk_s) {
  const double tw = util::wtime();
  tree.gatherNeighbors(grp.bbox, radius, a.idx, kset.walk);
  walk_s += util::wtime() - tw;
  const std::size_t nc = a.idx.size();
  fit(a.sx, nc); fit(a.sy, nc); fit(a.sz, nc);
  fit(a.sel, nc + pikg::nbr::kSlack);
  const double* ex = tree.entryX().data();
  const double* ey = tree.entryY().data();
  const double* ez = tree.entryZ().data();
  for (std::size_t j = 0; j < nc; ++j) {
    const std::uint32_t e = a.idx[j];
    a.sx[j] = ex[e]; a.sy[j] = ey[e]; a.sz[j] = ez[e];
  }
  if (!hydro) {
    fit(a.near, nc + pikg::nbr::kSlack);
    fit(a.r2, nc + pikg::nbr::kSlack);
    return;
  }
  fit(a.qh, nc); fit(a.qidx, nc);
  const double* eh = tree.entryH().data();
  for (std::size_t j = 0; j < nc; ++j) {
    const std::uint32_t e = a.idx[j];
    a.qh[j] = eh[e];
    a.qidx[j] = pl[e].idx;
  }
}

/// Group loop of the density solve, shared by every overload. `stats`
/// arrives with t_build/tree_builds filled by the caller.
void densityOverGroups(fdps::StepContext& ctx, const SourceTree& tree,
                       const std::vector<TargetGroup>& groups,
                       std::span<Particle> work, const SphParams& params,
                       DensityStats& stats) {
  const std::vector<fdps::SphPayload>& pl = ctx.sphPayload();
  // Walk tests, candidate sweep, selection and kernel sums all run through
  // the backend for the requested ISA (resolved once per pass; all threads
  // run the same backend).
  const pikg::KernelSet& kset = pikg::kernels(params.isa);
  const pikg::gen::SphKernelTables tabs = sphTablesFor(params);
  int max_iter = 0;
  std::uint64_t interactions = 0, candidates = 0;
  double walk_s = 0.0, kernel_s = 0.0;

#pragma omp parallel reduction(max : max_iter) \
    reduction(+ : interactions, candidates, walk_s, kernel_s)
  {
    fdps::ThreadArena& a = ctx.arena(ompThreadId());

#pragma omp for schedule(dynamic)
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& grp = groups[g];
      const double tg0 = util::wtime();
      const double walk_at_g0 = walk_s;

      // Group-shared candidate gather: one tree walk with the group's
      // maximum support (+30% closure margin) serves every member, and the
      // candidate positions are staged into SoA once per (group, radius).
      // A regather only happens when some member's H outgrows the shared
      // radius.
      double search = 0.0;
      auto gatherGroup = [&](double radius) {
        search = radius;
        gatherCandidates(a, tree, pl, grp, search, kset, /*hydro=*/false, walk_s);
      };
      double group_h = 0.0;
      for (const auto pi : grp.indices) group_h = std::max(group_h, work[pi].h);
      gatherGroup(1.3 * group_h);

      for (const auto pi : grp.indices) {
        Particle& p = work[pi];
        const double px = p.pos.x, py = p.pos.y, pz = p.pos.z;

        // One fused sweep per (target, candidate set): the candidates
        // within `search` of the target, in candidate order, with their
        // squared distances. Every count and selection below uses a support
        // H <= search, whose cut H(1 - 1e-15) is at most search's, so the
        // short list holds every candidate any of them can keep.
        // Each closure count *is* the selection for its H: a.sel holds the
        // candidate slots within H of the target, and sel_h names the H it
        // was taken for (NaN: stale), so the converged count usually leaves
        // the final survivor list already in place.
        std::size_t n_near = 0, nsel = 0;
        double sel_h = std::numeric_limits<double>::quiet_NaN();
        auto distances = [&] {
          const std::size_t nc = a.idx.size();
          candidates += nc;
          const double cut = search * (1.0 - 1e-15);
          n_near = kset.near(px, py, pz, a.sx.data(), a.sy.data(), a.sz.data(), nc,
                             cut * cut, a.near.data(), a.r2.data());
          sel_h = std::numeric_limits<double>::quiet_NaN();
        };
        distances();
        auto selectWithin = [&](double radius) {
          const double cut = radius * (1.0 - 1e-15);
          nsel = kset.keep(a.r2.data(), a.near.data(), n_near, cut * cut, a.sel.data());
          sel_h = radius;
          return static_cast<int>(nsel);
        };

        // Neighbour-count closure solved on counts of N(H) = #{r < H}: the
        // count needs no kernel evaluations, is exactly monotone in H, and
        // converges in a handful of closure-scaled / bisection steps even
        // though N is a noisy step function — the discreteness that defeats
        // a pure Newton iteration on rho(H). Acceptance band
        // +-max(2, 5%) neighbours, standard in SPH codes.
        double H = p.h;
        const int tol = std::max(2, params.n_ngb / 20);
        double lo = 0.0, hi = 0.0;  // bracket (hi == 0: not yet found)
        int it = 0;
        for (; it < params.max_h_iterations; ++it) {
          if (H > search) {
            gatherGroup(1.3 * H);
            distances();
          }
          const int cnt = selectWithin(H);
          if (std::abs(cnt - params.n_ngb) <= tol) break;
          if (cnt > params.n_ngb) {
            hi = H;
          } else {
            lo = H;
            // If every gathered candidate is inside, the true count may be
            // larger; the regather above handles growth next iteration.
          }
          double H_new;
          if (cnt > 0) {
            // Closure-scaled proposal: H ~ (n_ngb / N)^{1/3}.
            H_new = H * std::cbrt(static_cast<double>(params.n_ngb) /
                                  static_cast<double>(cnt));
          } else {
            H_new = 2.0 * H;
          }
          if (hi > 0.0) {
            // Keep proposals inside the bracket; fall back to bisection.
            if (H_new <= lo || H_new >= hi) H_new = 0.5 * (lo + hi);
            if (hi - lo < 1e-10 * hi) {
              H = hi;  // discrete jump straddles the target; take the
                       // smallest support containing >= n_ngb - tol
              break;
            }
          } else {
            H_new = std::clamp(H_new, 0.5 * H, 2.0 * H);
          }
          H = H_new;
        }
        max_iter = std::max(max_iter, it + 1);

        // Final gather statistics with the converged support: the survivors
        // from the short list (candidate order is kept, so the kernel sums
        // run in the tree's traversal order whatever the grouping), their
        // packed payload records, then one PIKG density call.
        if (H > search) {
          gatherGroup(1.3 * H);
          distances();
        }
        if (!(sel_h == H)) selectWithin(H);
        fit(a.kx, nsel); fit(a.ky, nsel); fit(a.kz, nsel); fit(a.km, nsel);
        fit(a.kvx, nsel); fit(a.kvy, nsel); fit(a.kvz, nsel);
        for (std::size_t t = 0; t < nsel; ++t) {
          const fdps::SphPayload& r = pl[a.idx[a.sel[t]]];
          a.kx[t] = r.x; a.ky[t] = r.y; a.kz[t] = r.z;
          a.km[t] = r.m;
          a.kvx[t] = r.vx; a.kvy[t] = r.vy; a.kvz[t] = r.vz;
        }
        const double pvx = p.vel.x, pvy = p.vel.y, pvz = p.vel.z;
        const double hinv = 1.0 / H;
        const double hinv3 = hinv * hinv * hinv;
        const double hinv4 = hinv3 * hinv;
        double rho = 0.0, div = 0.0;
        double clx = 0.0, cly = 0.0, clz = 0.0;
        kset.dens(1, &px, &py, &pz, &pvx, &pvy, &pvz, &hinv, &hinv3, &hinv4,
                  static_cast<int>(nsel), a.kx.data(), a.ky.data(), a.kz.data(),
                  a.km.data(), a.kvx.data(), a.kvy.data(), a.kvz.data(), tabs.w,
                  &rho, &div, &clx, &cly, &clz);
        interactions += nsel;
        p.h = H;
        p.rho = rho;
        p.nngb = static_cast<int>(nsel);
        p.divv = rho > 0.0 ? div / rho : 0.0;
        p.curlv = rho > 0.0 ? Vec3d{clx, cly, clz}.norm() / rho : 0.0;
        p.pres = pressure(rho, p.u);
        p.cs = soundSpeed(p.u);
        // A density target's u is current (it was just kicked), so its
        // prediction re-syncs here; inactive neighbours keep coasting on
        // the u_pred the drift sweep advances.
        p.u_pred = p.u;
      }
      kernel_s += util::wtime() - tg0 - (walk_s - walk_at_g0);
    }
  }

  // Propagate the converged supports into the cached tree so the hydro
  // force (and a possible second pass) reuses it without a rebuild.
  ctx.refreshGasSmoothing(work);

  stats.max_iterations = max_iter;
  stats.interactions = interactions;
  stats.candidates = candidates;
  stats.t_walk = walk_s;
  stats.t_kernel = kernel_s;
}

/// Group loop of the hydro force, shared by every overload. With `wake_out`
/// non-null the pass doubles as the Saitoh–Makino limiter's detection sweep:
/// every evaluated pair whose target rung exceeds the neighbour's by more
/// than kLimiterGap emits a wake request.
void hydroOverGroups(fdps::StepContext& ctx, const SourceTree& tree,
                     const std::vector<TargetGroup>& groups,
                     std::span<Particle> work, const SphParams& params,
                     ForceStats& stats, std::vector<std::uint64_t>* wake_out) {
  const std::vector<fdps::SphPayload>& pl = ctx.sphPayload();
  // Walk, pair selection and pair math run through the backend for the
  // requested ISA; the host keeps the limiter bookkeeping.
  const pikg::KernelSet& kset = pikg::kernels(params.isa);
  const pikg::gen::SphKernelTables tabs = sphTablesFor(params);
  std::uint64_t interactions = 0, candidates = 0;
  double walk_s = 0.0, kernel_s = 0.0;
  double dt_cfl = std::numeric_limits<double>::infinity();

#pragma omp parallel reduction(+ : interactions, candidates, walk_s, kernel_s) \
    reduction(min : dt_cfl)
  {
    fdps::ThreadArena& a = ctx.arena(ompThreadId());
    a.wake.clear();

#pragma omp for schedule(dynamic)
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& grp = groups[g];
      // Group-level candidate gather: radius = max support in the group;
      // scatter side handled by the tree's per-node max_h. Staged once per
      // group: position, H and particle index for the pair sweep.
      double group_h = 0.0;
      for (const auto pi : grp.indices) group_h = std::max(group_h, work[pi].h);
      const double tg0 = util::wtime();
      const double walk_at_g0 = walk_s;
      gatherCandidates(a, tree, pl, grp, group_h, kset, /*hydro=*/true, walk_s);
      const std::size_t nc = a.idx.size();

      for (const auto pi : grp.indices) {
        Particle& p = work[pi];
        const double Hi = p.h;
        const double Pi_rho2 = p.pres / (p.rho * p.rho);
        const double ci = p.cs;
        const double hi = 0.5 * Hi;
        const double balsara_i =
            std::abs(p.divv) /
            (std::abs(p.divv) + p.curlv + 1e-4 * ci / std::max(hi, 1e-30));

        // One fused sweep selects the true neighbours (r < max(Hi, Hj),
        // r > 0, not self), kept in candidate order.
        const double px = p.pos.x, py = p.pos.y, pz = p.pos.z;
        candidates += nc;
        const std::size_t nsel =
            kset.pair(px, py, pz, Hi, pi, a.sx.data(), a.sy.data(), a.sz.data(),
                      a.qh.data(), a.qidx.data(), nc, a.sel.data());

        // Pack the selected neighbours' payload records into contiguous SoA
        // for the PIKG pair kernel, with the timestep-limiter bookkeeping
        // riding along: deepest neighbour rung, plus wake requests for pairs
        // lagging this (active) target by more than the allowed gap.
        fit(a.kx, nsel); fit(a.ky, nsel); fit(a.kz, nsel); fit(a.km, nsel);
        fit(a.kvx, nsel); fit(a.kvy, nsel); fit(a.kvz, nsel);
        fit(a.khf, nsel); fit(a.khh, nsel); fit(a.khi, nsel); fit(a.kh4, nsel);
        fit(a.kp2, nsel); fit(a.krho, nsel); fit(a.kcs, nsel); fit(a.kbal, nsel);
        int rung_ngb = 0;
        const int rung_i = static_cast<int>(p.rung);
        for (std::size_t t = 0; t < nsel; ++t) {
          const fdps::SphPayload& r = pl[a.idx[a.sel[t]]];
          a.kx[t] = r.x; a.ky[t] = r.y; a.kz[t] = r.z;
          a.km[t] = r.m;
          a.kvx[t] = r.vx; a.kvy[t] = r.vy; a.kvz[t] = r.vz;
          a.khf[t] = r.h; a.khh[t] = r.hh; a.khi[t] = r.hinv;
          a.kh4[t] = r.h4; a.kp2[t] = r.p2; a.krho[t] = r.rho;
          a.kcs[t] = r.cs; a.kbal[t] = r.bal;
          const int rung_j = static_cast<int>(r.rung);
          rung_ngb = std::max(rung_ngb, rung_j);
          if (wake_out != nullptr && rung_i - rung_j > kLimiterGap) {
            a.wake.push_back(packWake(pi, r.idx));
          }
        }
        interactions += nsel;

        // Symmetrized gradient + Monaghan viscosity + signal-velocity
        // max-reduction.
        const double pvx = p.vel.x, pvy = p.vel.y, pvz = p.vel.z;
        const double hinv_i = 1.0 / Hi;
        const double hinv2_i = hinv_i * hinv_i;
        const double hinv4_i = hinv2_i * hinv2_i;
        const double rho_i = p.rho;
        double fax = 0.0, fay = 0.0, faz = 0.0, dudt = 0.0;
        double vsig = ci;
        kset.hydro(1, &px, &py, &pz, &pvx, &pvy, &pvz, &Hi, &hi, &hinv_i, &hinv4_i,
                   &Pi_rho2, &rho_i, &ci, &balsara_i, static_cast<int>(nsel),
                   a.kx.data(), a.ky.data(), a.kz.data(), a.km.data(), a.kvx.data(),
                   a.kvy.data(), a.kvz.data(), a.khf.data(), a.khh.data(),
                   a.khi.data(), a.kh4.data(), a.kp2.data(), a.krho.data(),
                   a.kcs.data(), a.kbal.data(), tabs.dw, params.alpha_visc,
                   params.beta_visc, &fax, &fay, &faz, &dudt, &vsig);

        p.acc += Vec3d{fax, fay, faz};
        p.du_dt = dudt;
        p.vsig = vsig;
        p.rung_ngb = static_cast<std::uint8_t>(rung_ngb);
        // The adaptive baseline's CFL minimum falls out of this pass for
        // free — no separate full-particle cflTimestep sweep needed.
        if (vsig > 0.0) dt_cfl = std::min(dt_cfl, params.cfl * 0.5 * Hi / vsig);
      }
      kernel_s += util::wtime() - tg0 - (walk_s - walk_at_g0);
    }
  }

  if (wake_out != nullptr) {
    // Merge the per-thread request lists and canonicalize: which arena holds
    // which request depends on dynamic scheduling, but the sorted multiset
    // depends only on particle state — the integrator's wake processing (and
    // with it every kick) stays bitwise identical across thread counts.
    wake_out->clear();
    for (int t = 0; t < ctx.numArenas(); ++t) {
      auto& w = ctx.arena(t).wake;
      wake_out->insert(wake_out->end(), w.begin(), w.end());
      w.clear();
    }
    std::sort(wake_out->begin(), wake_out->end());
  }

  stats.interactions = interactions;
  stats.candidates = candidates;
  stats.t_walk = walk_s;
  stats.t_kernel = kernel_s;
  stats.dt_cfl_min = dt_cfl;
}

}  // namespace

DensityStats solveDensity(std::span<Particle> work, std::size_t n_local,
                          const SphParams& params) {
  fdps::StepContext ctx;  // throwaway context: build-per-call semantics
  return solveDensity(ctx, work, n_local, params);
}

DensityStats solveDensity(fdps::StepContext& ctx, std::span<Particle> work,
                          std::size_t n_local, const SphParams& params) {
  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const auto& groups = ctx.gasGroups(work, n_local, params.leaf_size, params.group_size);
  const double t_groups = util::wtime() - t0;
  DensityStats stats = solveDensity(ctx, work, params, groups);
  stats.t_build += t_groups;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  return stats;
}

DensityStats solveDensity(fdps::StepContext& ctx, std::span<Particle> work,
                          std::size_t n_local, const SphParams& params,
                          std::span<const std::uint32_t> active) {
  (void)n_local;  // the subset names the targets explicitly
  if (active.empty()) return {};
  const double t0 = util::wtime();
  const auto& groups = ctx.activeGasGroups(work, active, params.group_size);
  const double t_groups = util::wtime() - t0;
  DensityStats stats = solveDensity(ctx, work, params, groups);
  stats.t_build += t_groups;
  return stats;
}

DensityStats solveDensity(fdps::StepContext& ctx, std::span<Particle> work,
                          const SphParams& params,
                          const std::vector<fdps::TargetGroup>& groups) {
  DensityStats stats;
  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const SourceTree& tree = ctx.gasTree(work, params.leaf_size);
  if (tree.empty()) return stats;
  fillPayload(ctx.sphPayload(), tree, work, /*hydro=*/false);
  stats.t_build = util::wtime() - t0;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  densityOverGroups(ctx, tree, groups, work, params, stats);
  return stats;
}

ForceStats accumulateHydroForce(std::span<Particle> work, std::size_t n_local,
                                const SphParams& params) {
  fdps::StepContext ctx;  // throwaway context: build-per-call semantics
  return accumulateHydroForce(ctx, work, n_local, params, nullptr);
}

ForceStats accumulateHydroForce(fdps::StepContext& ctx, std::span<Particle> work,
                                std::size_t n_local, const SphParams& params,
                                std::vector<std::uint64_t>* wake_out) {
  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const auto& groups = ctx.gasGroups(work, n_local, params.leaf_size, params.group_size);
  const double t_groups = util::wtime() - t0;
  ForceStats stats = accumulateHydroForce(ctx, work, params, groups, wake_out);
  stats.t_build += t_groups;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  return stats;
}

ForceStats accumulateHydroForce(fdps::StepContext& ctx, std::span<Particle> work,
                                std::size_t n_local, const SphParams& params,
                                std::span<const std::uint32_t> active,
                                std::vector<std::uint64_t>* wake_out) {
  (void)n_local;
  if (wake_out != nullptr) wake_out->clear();
  if (active.empty()) return {};
  const double t0 = util::wtime();
  const auto& groups = ctx.activeGasGroups(work, active, params.group_size);
  const double t_groups = util::wtime() - t0;
  ForceStats stats = accumulateHydroForce(ctx, work, params, groups, wake_out);
  stats.t_build += t_groups;
  return stats;
}

ForceStats accumulateHydroForce(fdps::StepContext& ctx, std::span<Particle> work,
                                const SphParams& params,
                                const std::vector<fdps::TargetGroup>& groups,
                                std::vector<std::uint64_t>* wake_out) {
  ForceStats stats;
  if (wake_out != nullptr) wake_out->clear();
  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const SourceTree& tree = ctx.gasTree(work, params.leaf_size);
  if (tree.empty()) return stats;
  fillPayload(ctx.sphPayload(), tree, work, /*hydro=*/true);
  stats.t_build = util::wtime() - t0;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  hydroOverGroups(ctx, tree, groups, work, params, stats, wake_out);
  return stats;
}

double cflTimestep(std::span<const Particle> gas, const SphParams& params) {
  double dt = std::numeric_limits<double>::max();
  for (const auto& p : gas) {
    if (!p.isGas()) continue;
    const double v = std::max(p.vsig, p.cs);
    if (v > 0.0) dt = std::min(dt, params.cfl * 0.5 * p.h / v);
  }
  return dt;
}

double maxGatherRadius(std::span<const Particle> particles, std::size_t n_local) {
  double m = 0.0;
  for (std::size_t i = 0; i < n_local && i < particles.size(); ++i) {
    if (particles[i].isGas()) m = std::max(m, particles[i].h);
  }
  return m;
}

}  // namespace asura::sph
