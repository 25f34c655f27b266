// Cross-ISA conformance of the production PIKG-generated kernels: every
// backend (generated scalar, AVX2, AVX-512 — where compiled and supported)
// against hand-written double-precision references, ULP-bounded; codegen
// determinism (byte-identical regeneration); runtime-dispatch resolution and
// clamping; and step-level parity of a full Simulation pinned to the scalar
// backend vs the auto-dispatched one.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "ic_fixtures.hpp"
#include "kernels/registry.hpp"
#include "pikg/dsl.hpp"
#include "sph/eos.hpp"
#include "sph/kernels.hpp"
#include "util/rng.hpp"

namespace {

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::pikg::Isa;
using asura::util::Pcg32;
namespace gen = asura::pikg::gen;

std::vector<Isa> runnableIsas() {
  std::vector<Isa> isas{Isa::Scalar};
  const Isa best = asura::pikg::bestIsa();
  if (static_cast<int>(best) >= static_cast<int>(Isa::Avx2)) isas.push_back(Isa::Avx2);
  if (static_cast<int>(best) >= static_cast<int>(Isa::Avx512)) {
    isas.push_back(Isa::Avx512);
  }
  return isas;
}

// ---------------------------------------------------------------------------
// Registry / dispatch
// ---------------------------------------------------------------------------

TEST(KernelRegistry, AutoResolvesToBestAndNeverAuto) {
  const Isa best = asura::pikg::bestIsa();
  EXPECT_NE(best, Isa::Auto);
  EXPECT_EQ(asura::pikg::resolveIsa(Isa::Auto), best);
  EXPECT_EQ(asura::pikg::kernels(Isa::Auto).isa, best);
}

TEST(KernelRegistry, ExplicitRequestsResolveExactlyOrClampDown) {
  EXPECT_EQ(asura::pikg::kernels(Isa::Scalar).isa, Isa::Scalar);
  // A request wider than the host supports must clamp to a runnable ISA,
  // never select an unrunnable backend.
  const Isa r = asura::pikg::resolveIsa(Isa::Avx512);
  EXPECT_LE(static_cast<int>(r), static_cast<int>(asura::pikg::bestIsa()));
  EXPECT_NE(r, Isa::Auto);
}

TEST(KernelRegistry, ScalarBackendAlwaysPresent) {
  const auto& k = asura::pikg::kernels(Isa::Scalar);
  EXPECT_NE(k.grav, nullptr);
  EXPECT_NE(k.dens, nullptr);
  EXPECT_NE(k.hydro, nullptr);
}

// ---------------------------------------------------------------------------
// Codegen determinism
// ---------------------------------------------------------------------------

TEST(KernelCodegen, RegenerationIsByteIdentical) {
  const auto a = asura::pikg::generateProductionFiles();
  const auto b = asura::pikg::generateProductionFiles();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].content, b[i].content) << a[i].name;
  }
}

TEST(KernelCodegen, SphTablesReproduceClosedForms) {
  // The embedded PPA tables are exact for both kernel shapes (subdomain
  // boundaries land on the spline knot; degree 5 covers every local
  // polynomial degree), so the table path must agree with the closed forms
  // to solve-rounding levels — this is what lets the f64 SPH kernels keep
  // the pre-refactor physics bit-for-bit at the tolerance level.
  auto evalTable = [](const double* tab, double u) {
    const double rel = u * gen::kSphTableSubdomains;
    int k = static_cast<int>(rel);
    k = std::min(std::max(k, 0), gen::kSphTableSubdomains - 1);
    const double s = rel - k;
    const int nc = gen::kSphTableDegree + 1;
    const double* c = tab + k * nc;
    double acc = c[gen::kSphTableDegree];
    for (int l = gen::kSphTableDegree - 1; l >= 0; --l) acc = acc * s + c[l];
    return acc;
  };
  const auto cs = gen::sphTables(0);
  const auto wc = gen::sphTables(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = (i + 0.5) / 1000.0;
    EXPECT_NEAR(evalTable(cs.w, u), asura::sph::CubicSplineKernel::w(u, 1.0), 1e-11);
    EXPECT_NEAR(evalTable(cs.dw, u), asura::sph::CubicSplineKernel::dwdr(u, 1.0), 1e-10);
    EXPECT_NEAR(evalTable(wc.w, u), asura::sph::WendlandC2Kernel::w(u, 1.0), 1e-11);
    EXPECT_NEAR(evalTable(wc.dw, u), asura::sph::WendlandC2Kernel::dwdr(u, 1.0), 1e-10);
  }
}

// ---------------------------------------------------------------------------
// Gravity conformance (mixed F32, f64 accumulators)
// ---------------------------------------------------------------------------

class GravConformance : public ::testing::Test {
 protected:
  static constexpr int kNi = 67;   // odd: exercises the SIMD remainder loop
  static constexpr int kNj = 233;

  void SetUp() override {
    Pcg32 rng(42);
    xi.resize(kNi); yi.resize(kNi); zi.resize(kNi); e2i.assign(kNi, 0.01f);
    xj.resize(kNj); yj.resize(kNj); zj.resize(kNj); mj.resize(kNj);
    e2j.assign(kNj, 0.01f);
    for (int i = 0; i < kNi; ++i) {
      xi[i] = static_cast<float>(rng.uniform(-5, 5));
      yi[i] = static_cast<float>(rng.uniform(-5, 5));
      zi[i] = static_cast<float>(rng.uniform(-5, 5));
    }
    for (int j = 0; j < kNj; ++j) {
      xj[j] = static_cast<float>(rng.uniform(-5, 5));
      yj[j] = static_cast<float>(rng.uniform(-5, 5));
      zj[j] = static_cast<float>(rng.uniform(-5, 5));
      mj[j] = static_cast<float>(rng.uniform(0.5, 2.0));
    }
    // Coincident source: the branch-free self mask must drop it exactly.
    xj[3] = xi[0]; yj[3] = yi[0]; zj[3] = zi[0];
  }

  struct Out {
    std::vector<double> ax, ay, az, pot;
  };

  // Both run over the first ni targets and the first nj sources.
  Out run(Isa isa, int ni = kNi, int nj = kNj) const {
    Out o;
    o.ax.assign(ni, 0.0); o.ay.assign(ni, 0.0);
    o.az.assign(ni, 0.0); o.pot.assign(ni, 0.0);
    asura::pikg::kernels(isa).grav(ni, xi.data(), yi.data(), zi.data(), e2i.data(),
                                   nj, xj.data(), yj.data(), zj.data(), mj.data(),
                                   e2j.data(), o.ax.data(), o.ay.data(), o.az.data(),
                                   o.pot.data());
    return o;
  }

  Out reference(int ni = kNi, int nj = kNj) const {
    Out o;
    o.ax.assign(ni, 0.0); o.ay.assign(ni, 0.0);
    o.az.assign(ni, 0.0); o.pot.assign(ni, 0.0);
    for (int i = 0; i < ni; ++i) {
      for (int j = 0; j < nj; ++j) {
        const double dx = double(xi[i]) - xj[j];
        const double dy = double(yi[i]) - yj[j];
        const double dz = double(zi[i]) - zj[j];
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (!(r2 > 0.0)) continue;
        const double rinv = 1.0 / std::sqrt(r2 + double(e2i[i]) + double(e2j[j]));
        const double mr = mj[j] * rinv;
        const double mr3 = mr * rinv * rinv;
        o.ax[i] -= mr3 * dx;
        o.ay[i] -= mr3 * dy;
        o.az[i] -= mr3 * dz;
        o.pot[i] -= mr;
      }
    }
    return o;
  }

  static double worstRel(const Out& a, const Out& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.ax.size(); ++i) {
      const double scale =
          std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] + b.az[i] * b.az[i]) + 1e-3;
      worst = std::max(worst, std::abs(a.ax[i] - b.ax[i]) / scale);
      worst = std::max(worst, std::abs(a.ay[i] - b.ay[i]) / scale);
      worst = std::max(worst, std::abs(a.az[i] - b.az[i]) / scale);
      worst = std::max(worst, std::abs(a.pot[i] - b.pot[i]) /
                                  (std::abs(b.pot[i]) + 1e-3));
    }
    return worst;
  }

  std::vector<float> xi, yi, zi, e2i, xj, yj, zj, mj, e2j;
};

TEST_F(GravConformance, EveryIsaMatchesF64Reference) {
  // Besides the full fixture: the SIMD loop runs across sources, so
  // nj = 1..17 and 31 cover every remainder length of the 8- and 16-lane
  // loops, including counts below one vector; ni = 1 is a lone target.
  std::vector<std::pair<int, int>> shapes{{kNi, kNj}};
  for (const int ni : {1, 7, 9, 15, 17, 31}) {
    for (int nj = 1; nj <= 17; ++nj) shapes.emplace_back(ni, nj);
    shapes.emplace_back(ni, 31);
  }
  for (const auto& [ni, nj] : shapes) {
    const Out ref = reference(ni, nj);
    for (const Isa isa : runnableIsas()) {
      // f32 staging error dominates: ~1e-6 per interaction, summation over
      // ~200 sources. 1e-4 is the mixed-F32 budget the production tree pass
      // is validated to (test_gravity's 2e-4 rms bound).
      EXPECT_LT(worstRel(run(isa, ni, nj), ref), 1e-4)
          << asura::pikg::isaName(isa) << " ni=" << ni << " nj=" << nj;
    }
  }
}

TEST_F(GravConformance, SimdMatchesGeneratedScalarTightly) {
  const Out sc = run(Isa::Scalar);
  for (const Isa isa : runnableIsas()) {
    if (isa == Isa::Scalar) continue;
    // Same arithmetic at the same precision; only summation order and the
    // NR seed differ. A raw (unrefined) 12-bit rsqrt would sit at ~2e-4.
    EXPECT_LT(worstRel(run(isa), sc), 1e-5) << asura::pikg::isaName(isa);
  }
}

TEST_F(GravConformance, RsqrtNewtonRaphsonPrecision) {
  // Regression for the hardware-rsqrt refinement: a single well-conditioned
  // pair must come out at f32-rounding accuracy on every backend. Raw
  // rsqrtps (~12 bit, rel err up to ~3e-4) fails this bound by ~50x.
  const float sx[1] = {1.75f}, sy[1] = {0.5f}, sz[1] = {-0.25f}, sm[1] = {1.5f},
              se[1] = {0.01f};
  const float tx[1] = {0.0f}, ty[1] = {0.0f}, tz[1] = {0.0f}, te[1] = {0.01f};
  const double r2 = 1.75 * 1.75 + 0.5 * 0.5 + 0.25 * 0.25;
  const double rinv = 1.0 / std::sqrt(r2 + 0.02);
  const double pot_ref = -1.5 * rinv;
  for (const Isa isa : runnableIsas()) {
    double ax = 0, ay = 0, az = 0, pot = 0;
    asura::pikg::kernels(isa).grav(1, tx, ty, tz, te, 1, sx, sy, sz, sm, se, &ax, &ay,
                                   &az, &pot);
    EXPECT_NEAR(pot, pot_ref, 5e-6 * std::abs(pot_ref)) << asura::pikg::isaName(isa);
  }
}

// ---------------------------------------------------------------------------
// SPH density conformance (f64, PPA tables)
// ---------------------------------------------------------------------------

class DensConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    Pcg32 rng(7);
    H = 0.9;
    px = 0.03; py = -0.04; pz = 0.02;
    pvx = 0.4; pvy = -0.1; pvz = 0.2;
    // Neighbours strictly inside the support, self included.
    xj.push_back(px); yj.push_back(py); zj.push_back(pz);
    mj.push_back(1.0); vxj.push_back(pvx); vyj.push_back(pvy); vzj.push_back(pvz);
    while (xj.size() < 61) {  // odd-ish count: SIMD tails at width 4 and 8
      const double x = rng.uniform(-0.6, 0.6);
      const double y = rng.uniform(-0.6, 0.6);
      const double z = rng.uniform(-0.6, 0.6);
      const double r = std::sqrt((x - px) * (x - px) + (y - py) * (y - py) +
                                 (z - pz) * (z - pz));
      if (r >= 0.999 * H) continue;
      xj.push_back(x); yj.push_back(y); zj.push_back(z);
      mj.push_back(rng.uniform(0.8, 1.2));
      vxj.push_back(rng.uniform(-1, 1));
      vyj.push_back(rng.uniform(-1, 1));
      vzj.push_back(rng.uniform(-1, 1));
    }
  }

  std::vector<double> run(Isa isa) const {
    const double hinv = 1.0 / H, hinv3 = hinv * hinv * hinv, hinv4 = hinv3 * hinv;
    double rho = 0, div = 0, cx = 0, cy = 0, cz = 0;
    const auto tabs = gen::sphTables(0);
    asura::pikg::kernels(isa).dens(1, &px, &py, &pz, &pvx, &pvy, &pvz, &hinv, &hinv3,
                                   &hinv4, static_cast<int>(xj.size()), xj.data(),
                                   yj.data(), zj.data(), mj.data(), vxj.data(),
                                   vyj.data(), vzj.data(), tabs.w, &rho, &div, &cx,
                                   &cy, &cz);
    return {rho, div, cx, cy, cz};
  }

  std::vector<double> reference() const {
    std::vector<double> o(5, 0.0);
    for (std::size_t j = 0; j < xj.size(); ++j) {
      const double dx = px - xj[j], dy = py - yj[j], dz = pz - zj[j];
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      o[0] += mj[j] * asura::sph::CubicSplineKernel::w(r, H);
      if (r > 0.0) {
        const double g = asura::sph::CubicSplineKernel::dwdr(r, H) / r;
        const double dvx = pvx - vxj[j], dvy = pvy - vyj[j], dvz = pvz - vzj[j];
        o[1] -= mj[j] * g * (dvx * dx + dvy * dy + dvz * dz);
        o[2] -= mj[j] * g * (dvy * dz - dvz * dy);
        o[3] -= mj[j] * g * (dvz * dx - dvx * dz);
        o[4] -= mj[j] * g * (dvx * dy - dvy * dx);
      }
    }
    return o;
  }

  double H, px, py, pz, pvx, pvy, pvz;
  std::vector<double> xj, yj, zj, mj, vxj, vyj, vzj;
};

TEST_F(DensConformance, EveryIsaMatchesClosedFormReference) {
  const auto ref = reference();
  for (const Isa isa : runnableIsas()) {
    const auto o = run(isa);
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(o[c], ref[c], 1e-10 * (std::abs(ref[c]) + 1.0))
          << asura::pikg::isaName(isa) << " component " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// SPH hydro-force conformance (f64, symmetrized gradient + viscosity)
// ---------------------------------------------------------------------------

class HydroConformance : public ::testing::Test {
 protected:
  static constexpr double kAlpha = 1.0, kBeta = 2.0;

  void SetUp() override {
    Pcg32 rng(19);
    Hi = 0.8;
    px = 0.0; py = 0.0; pz = 0.0;
    pvx = 0.5; pvy = -0.3; pvz = 0.1;
    rho_i = 120.0; pres_i = asura::sph::pressure(rho_i, 50.0);
    cs_i = asura::sph::soundSpeed(50.0);
    bal_i = 0.7;
    // Mixed approaching/receding neighbours, both support branches
    // (r < Hi only, r < Hj only, both).
    for (int t = 0; t < 37; ++t) {
      const double r = rng.uniform(0.05, 1.1);
      const double th = rng.uniform(0.0, 3.14159);
      const double ph = rng.uniform(0.0, 6.28318);
      xj.push_back(r * std::sin(th) * std::cos(ph));
      yj.push_back(r * std::sin(th) * std::sin(ph));
      zj.push_back(r * std::cos(th));
      mj.push_back(rng.uniform(0.8, 1.2));
      vxj.push_back(rng.uniform(-1, 1));
      vyj.push_back(rng.uniform(-1, 1));
      vzj.push_back(rng.uniform(-1, 1));
      hfj.push_back(rng.uniform(0.6, 1.2));
      rhoj.push_back(rng.uniform(80.0, 160.0));
      const double uj = rng.uniform(20.0, 80.0);
      presj.push_back(asura::sph::pressure(rhoj.back(), uj));
      csj.push_back(asura::sph::soundSpeed(uj));
      balj.push_back(rng.uniform(0.0, 1.0));
    }
  }

  std::vector<double> run(Isa isa) const {
    const std::size_t n = xj.size();
    std::vector<double> hh(n), hinv(n), h4(n), p2(n);
    for (std::size_t j = 0; j < n; ++j) {
      hh[j] = 0.5 * hfj[j];
      hinv[j] = 1.0 / hfj[j];
      h4[j] = hinv[j] * hinv[j] * hinv[j] * hinv[j];
      p2[j] = presj[j] / (rhoj[j] * rhoj[j]);
    }
    const double hinv_i = 1.0 / Hi, hh_i = 0.5 * Hi;
    const double h4_i = hinv_i * hinv_i * hinv_i * hinv_i;
    const double p2_i = pres_i / (rho_i * rho_i);
    double ax = 0, ay = 0, az = 0, du = 0;
    double vsig = cs_i;
    const auto tabs = gen::sphTables(0);
    asura::pikg::kernels(isa).hydro(
        1, &px, &py, &pz, &pvx, &pvy, &pvz, &Hi, &hh_i, &hinv_i, &h4_i, &p2_i, &rho_i,
        &cs_i, &bal_i, static_cast<int>(n), xj.data(), yj.data(), zj.data(), mj.data(),
        vxj.data(), vyj.data(), vzj.data(), hfj.data(), hh.data(), hinv.data(),
        h4.data(), p2.data(), rhoj.data(), csj.data(), balj.data(), tabs.dw, kAlpha,
        kBeta, &ax, &ay, &az, &du, &vsig);
    return {ax, ay, az, du, vsig};
  }

  /// The pre-refactor hand-written pair loop, verbatim semantics.
  std::vector<double> reference() const {
    double ax = 0, ay = 0, az = 0, du = 0;
    double vsig = cs_i;
    const double p2_i = pres_i / (rho_i * rho_i);
    const double hi = 0.5 * Hi;
    for (std::size_t j = 0; j < xj.size(); ++j) {
      const double dx = px - xj[j], dy = py - yj[j], dz = pz - zj[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      const double r = std::sqrt(r2);
      const double Hj = hfj[j];
      const double dwi = r < Hi ? asura::sph::CubicSplineKernel::dwdr(r, Hi) : 0.0;
      const double dwj = r < Hj ? asura::sph::CubicSplineKernel::dwdr(r, Hj) : 0.0;
      const double g = 0.5 * (dwi + dwj) / r;
      const double dvx = pvx - vxj[j], dvy = pvy - vyj[j], dvz = pvz - vzj[j];
      const double vdotr = dvx * dx + dvy * dy + dvz * dz;
      double visc = 0.0;
      if (vdotr < 0.0) {
        const double hj = 0.5 * Hj;
        const double hbar = 0.5 * (hi + hj);
        const double mu = hbar * vdotr / (r * r + 0.01 * hbar * hbar);
        const double cbar = 0.5 * (cs_i + csj[j]);
        const double rhobar = 0.5 * (rho_i + rhoj[j]);
        visc = (-kAlpha * cbar * mu + kBeta * mu * mu) / rhobar * 0.5 *
               (bal_i + balj[j]);
        vsig = std::max(vsig, cs_i + csj[j] - 3.0 * mu);
      } else {
        vsig = std::max(vsig, cs_i + csj[j]);
      }
      const double p2_j = presj[j] / (rhoj[j] * rhoj[j]);
      const double f = mj[j] * (p2_i + p2_j + visc) * g;
      ax -= f * dx;
      ay -= f * dy;
      az -= f * dz;
      du += mj[j] * (p2_i + 0.5 * visc) * (vdotr * g);
    }
    return {ax, ay, az, du, vsig};
  }

  double Hi, px, py, pz, pvx, pvy, pvz, rho_i, pres_i, cs_i, bal_i;
  std::vector<double> xj, yj, zj, mj, vxj, vyj, vzj, hfj, rhoj, presj, csj, balj;
};

TEST_F(HydroConformance, EveryIsaMatchesHandWrittenReference) {
  const auto ref = reference();
  for (const Isa isa : runnableIsas()) {
    const auto o = run(isa);
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(o[c], ref[c], 1e-10 * (std::abs(ref[c]) + 1.0))
          << asura::pikg::isaName(isa) << " component " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Step-level parity: pinned-scalar vs auto-dispatched backend
// ---------------------------------------------------------------------------

TEST(KernelDispatchStep, PerPassPinWinsAndKernelIsaToggleIsNotSticky) {
  const auto ic = asura::testing::gasBall(150, 6.0, 1.0, 5, 3000.0);
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 16;
  cfg.sph.isa = Isa::Scalar;  // explicit per-pass pin
  Simulation sim(ic, cfg);
  sim.step();
  // The effective ISA resolves at the call site; the user's config is
  // never mutated — the pin survives and the unpinned field stays Auto.
  EXPECT_EQ(sim.config().sph.isa, Isa::Scalar);
  EXPECT_EQ(sim.config().gravity.isa, Isa::Auto);
  sim.config().kernel_isa = Isa::Scalar;
  sim.step();
  EXPECT_EQ(sim.config().gravity.isa, Isa::Auto);  // still untouched
  EXPECT_EQ(sim.lastStats().kernel_isa, Isa::Scalar);
  // Toggling the run-level knob back must not stick at the old value.
  sim.config().kernel_isa = Isa::Auto;
  sim.step();
  EXPECT_EQ(sim.config().sph.isa, Isa::Scalar);  // pin still intact
  EXPECT_EQ(sim.lastStats().kernel_isa, asura::pikg::bestIsa());
}

TEST(KernelDispatchStep, ScalarAndAutoBackendsAgreeAtStepLevel) {
  const auto ic = asura::testing::gasBall(400, 8.0, 1.0, 23, 3000.0);
  SimulationConfig base;
  base.enable_star_formation = false;
  base.enable_cooling = false;
  base.use_surrogate = false;
  base.sph.n_ngb = 24;
  base.dt_global = 0.004;

  SimulationConfig cfg_scalar = base;
  cfg_scalar.kernel_isa = Isa::Scalar;
  SimulationConfig cfg_auto = base;
  cfg_auto.kernel_isa = Isa::Auto;

  Simulation a(ic, cfg_scalar), b(ic, cfg_auto);
  for (int s = 0; s < 3; ++s) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.lastStats().kernel_isa, Isa::Scalar);
  EXPECT_EQ(b.lastStats().kernel_isa, asura::pikg::bestIsa());

  // The SPH kernels are f64 on every backend (only FP summation order
  // differs); gravity differs at the f32 staging level. Step-level state
  // must agree to mixed-F32 tolerances.
  double worst_pos = 0.0, worst_vel = 0.0, worst_u = 0.0;
  const auto& pa = a.particles();
  const auto& pb = b.particles();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    worst_pos = std::max(worst_pos, (pa[i].pos - pb[i].pos).norm());
    worst_vel = std::max(worst_vel, (pa[i].vel - pb[i].vel).norm());
    worst_u = std::max(worst_u,
                       std::abs(pa[i].u - pb[i].u) / std::max(pa[i].u, 1e-30));
  }
  EXPECT_LT(worst_pos, 1e-4);  // pc, vs an 8 pc ball
  EXPECT_LT(worst_vel, 1e-2);
  EXPECT_LT(worst_u, 1e-3);
}

}  // namespace
