// Exactness of the SPH neighbour-selection backends (kernels/neighbour.hpp):
// every runnable backend's walk node and leaf tests, density sweep and
// selection, and hydro pair sweep return the scalar backend's result element
// for element,
// and the scalar backend keeps exactly what the documented arithmetic
// keeps. The fixtures cover every tail length (runs of 1..17), entries at
// exactly the cut, self pairs, duplicate positions and empty lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "fdps/box.hpp"
#include "fdps/tree.hpp"
#include "kernels/registry.hpp"
#include "util/rng.hpp"

namespace {

using asura::fdps::Box;
using asura::fdps::SourceEntry;
using asura::fdps::SourceTree;
using asura::pikg::Isa;
using asura::pikg::KernelSet;
using asura::util::Pcg32;
using asura::util::Vec3d;
namespace nbr = asura::pikg::nbr;

std::vector<Isa> runnableIsas() {
  std::vector<Isa> isas{Isa::Scalar};
  const Isa best = asura::pikg::bestIsa();
  if (static_cast<int>(best) >= static_cast<int>(Isa::Avx2)) isas.push_back(Isa::Avx2);
  if (static_cast<int>(best) >= static_cast<int>(Isa::Avx512)) isas.push_back(Isa::Avx512);
  return isas;
}

// The documented arithmetic, written out: first-largest per-axis gap and
// fma(dz, dz, fma(dx, dx, dy * dy)).
double gap(double lo, double p, double hi) { return std::max({lo - p, 0.0, p - hi}); }
double sumSquares(double dx, double dy, double dz) {
  return std::fma(dz, dz, std::fma(dx, dx, dy * dy));
}
double boxDistance(const double* box, double x, double y, double z) {
  return std::sqrt(sumSquares(gap(box[0], x, box[3]), gap(box[1], y, box[4]),
                              gap(box[2], z, box[5])));
}
/// Box-to-box form, Box::distance(const Box&) with `box` as the target.
double boxBoxDistance(const double* box, const double* lo, const double* hi) {
  const auto g = [](double a, double b) { return std::max({a, 0.0, b}); };
  return std::sqrt(sumSquares(g(box[0] - hi[0], lo[0] - box[3]),
                              g(box[1] - hi[1], lo[1] - box[4]),
                              g(box[2] - hi[2], lo[2] - box[5])));
}

/// Node boxes in the kernels' SoA layout (7 rows).
struct Nodes {
  std::vector<double> lox, loy, loz, hix, hiy, hiz, max_h;
  [[nodiscard]] nbr::NodeSoa soa() const {
    return {lox.data(), loy.data(), loz.data(), hix.data(), hiy.data(), hiz.data(),
            max_h.data()};
  }
};

Nodes randomNodes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  Nodes s;
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = rng.uniform(-3.0, 3.0), cy = rng.uniform(-3.0, 3.0),
                 cz = rng.uniform(-3.0, 3.0), e = rng.uniform(0.0, 0.8);
    s.lox.push_back(cx - e); s.loy.push_back(cy - 0.5 * e); s.loz.push_back(cz);
    s.hix.push_back(cx + e); s.hiy.push_back(cy + e); s.hiz.push_back(cz + 0.25 * e);
    s.max_h.push_back(rng.uniform(0.0, 2.0));
  }
  return s;
}

/// SoA candidate set with room for the kernels' store slack.
struct Soa {
  std::vector<double> x, y, z, h;
  std::vector<std::uint32_t> idx;
  void push(double px, double py, double pz, double ph, std::uint32_t pi) {
    x.push_back(px);
    y.push_back(py);
    z.push_back(pz);
    h.push_back(ph);
    idx.push_back(pi);
  }
  [[nodiscard]] std::size_t size() const { return x.size(); }
};

/// Random points around the unit box with duplicates, runs of identical
/// positions and support radii straddling the test radii.
Soa randomSoa(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  Soa s;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.uniform(0.0, 1.0) < 0.1) {  // duplicate of the previous one
      s.push(s.x.back(), s.y.back(), s.z.back(), s.h.back(), s.idx.back());
      continue;
    }
    s.push(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
           rng.uniform(0.0, 1.5), static_cast<std::uint32_t>(rng.uniform(0.0, 40.0)));
  }
  return s;
}

std::size_t leafRun(const KernelSet& k, const Soa& s, const double* box, double radius,
                    std::uint32_t base, std::vector<std::uint32_t>& out) {
  out.assign(s.size() + nbr::kSlack, 0xdeadbeefu);
  const std::size_t n = k.walk.leaf(s.x.data(), s.y.data(), s.z.data(), s.h.data(), s.size(),
                               box, radius, base, out.data());
  out.resize(n);
  return n;
}

TEST(NeighbourKernels, NodeTestIsExactForEveryChildCount) {
  const double box[6] = {-0.5, -0.25, 0.0, 0.5, 0.25, 0.75};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Nodes nodes = randomNodes(24, 500 + seed);
    // Lanes 8.. sit exactly at reach (opened) or one ulp inside it (closed
    // unless the radius covers them).
    for (std::size_t i = 8; i < 24; ++i) {
      const double lo[3] = {nodes.lox[i], nodes.loy[i], nodes.loz[i]};
      const double hi[3] = {nodes.hix[i], nodes.hiy[i], nodes.hiz[i]};
      const double d = boxBoxDistance(box, lo, hi);
      nodes.max_h[i] = i < 16 ? d : std::nextafter(d, 0.0);
    }
    const double radius = 0.15 * static_cast<double>(seed % 5);
    for (std::size_t first = 0; first < 24; first += 8) {
      for (std::size_t n = 1; n <= 8; ++n) {
        unsigned want = 0;
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = first + k;
          const double lo[3] = {nodes.lox[i], nodes.loy[i], nodes.loz[i]};
          const double hi[3] = {nodes.hix[i], nodes.hiy[i], nodes.hiz[i]};
          if (!(boxBoxDistance(box, lo, hi) > std::max(radius, nodes.max_h[i]))) {
            want |= 1u << k;
          }
        }
        for (const Isa isa : runnableIsas()) {
          EXPECT_EQ(asura::pikg::kernels(isa).walk.open(nodes.soa(), first, n, box, radius),
                    want)
              << asura::pikg::isaName(isa) << " first=" << first << " n=" << n;
        }
      }
    }
  }
}

TEST(NeighbourKernels, LeafTestIsExactOnEveryTailLength) {
  const double box[6] = {-0.5, -0.25, 0.0, 0.5, 0.25, 0.75};
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const Soa s = randomSoa(n, 100 * n + seed);
      const double radius = 0.2 * static_cast<double>(seed % 7);
      std::vector<std::uint32_t> want;
      for (std::size_t k = 0; k < n; ++k) {
        if (boxDistance(box, s.x[k], s.y[k], s.z[k]) <= std::max(radius, s.h[k])) {
          want.push_back(static_cast<std::uint32_t>(1000 + k));
        }
      }
      for (const Isa isa : runnableIsas()) {
        std::vector<std::uint32_t> got;
        leafRun(asura::pikg::kernels(isa), s, box, radius, 1000, got);
        EXPECT_EQ(got, want) << asura::pikg::isaName(isa) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(NeighbourKernels, LeafTestKeepsEntriesExactlyAtReach) {
  // Each entry's support is set to its own distance from the box, so the
  // test is decided by the last bit: a backend that compared squared
  // distances, or summed the squares in another order, drops some of them;
  // one ulp less support must drop every one outside the radius.
  const double box[6] = {-0.3, -0.1, 0.2, 0.4, 0.3, 0.6};
  Soa s = randomSoa(257, 7);
  for (std::size_t k = 0; k < s.size(); ++k) {
    s.h[k] = boxDistance(box, s.x[k], s.y[k], s.z[k]);
  }
  Soa tighter = s;
  for (double& h : tighter.h) h = std::nextafter(h, 0.0);
  const double radius = 0.05;
  std::size_t outside = 0;
  for (std::size_t k = 0; k < s.size(); ++k) outside += s.h[k] > radius ? 1 : 0;
  ASSERT_GT(outside, 200u);
  for (const Isa isa : runnableIsas()) {
    const KernelSet& k = asura::pikg::kernels(isa);
    std::vector<std::uint32_t> got;
    EXPECT_EQ(leafRun(k, s, box, radius, 0, got), s.size()) << k.name;
    EXPECT_EQ(leafRun(k, tighter, box, radius, 0, got), s.size() - outside) << k.name;
  }
}

#if defined(__GNUC__) && !defined(__clang__) && defined(__FMA__)
TEST(NeighbourKernels, WalkTestsMatchBoxDistanceOnFmaBuilds) {
  // Where GCC contracts Box::distance's sum of squares (an FMA target), the
  // documented arithmetic is exactly Box::distance (to a point and to a
  // box), so the SIMD walk opens and keeps what the scalar walk it replaced
  // did.
  Box target;
  target.extend(Vec3d{-0.3, -0.1, 0.2});
  target.extend(Vec3d{0.4, 0.3, 0.6});
  const double box[6] = {-0.3, -0.1, 0.2, 0.4, 0.3, 0.6};
  const Soa s = randomSoa(4000, 9);
  for (std::size_t k = 0; k < s.size(); ++k) {
    const double d = target.distance(Vec3d{s.x[k], s.y[k], s.z[k]});
    ASSERT_EQ(d, boxDistance(box, s.x[k], s.y[k], s.z[k])) << "entry " << k;
  }
  const Nodes nodes = randomNodes(4000, 10);
  for (std::size_t i = 0; i < nodes.lox.size(); ++i) {
    Box b;
    b.extend(Vec3d{nodes.lox[i], nodes.loy[i], nodes.loz[i]});
    b.extend(Vec3d{nodes.hix[i], nodes.hiy[i], nodes.hiz[i]});
    const double lo[3] = {nodes.lox[i], nodes.loy[i], nodes.loz[i]};
    const double hi[3] = {nodes.hix[i], nodes.hiy[i], nodes.hiz[i]};
    ASSERT_EQ(target.distance(b), boxBoxDistance(box, lo, hi)) << "node " << i;
  }
}
#endif

TEST(NeighbourKernels, DensitySweepAndSelectionAreExact) {
  const KernelSet& ref = asura::pikg::kernels(Isa::Scalar);
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      Soa s = randomSoa(n, 7000 + 100 * n + seed);
      const double px = 0.1, py = -0.2, pz = 0.3;
      // The cut equals one candidate's squared distance: kept (<=).
      double cut2 = 1.7;
      if (n > 0) {
        const std::size_t j = seed % n;
        cut2 = sumSquares(px - s.x[j], py - s.y[j], pz - s.z[j]);
      }
      std::vector<std::uint32_t> want;
      std::vector<double> want_r2;
      for (std::size_t j = 0; j < n; ++j) {
        const double d2 = sumSquares(px - s.x[j], py - s.y[j], pz - s.z[j]);
        if (d2 <= cut2) {
          want.push_back(static_cast<std::uint32_t>(j));
          want_r2.push_back(d2);
        }
      }
      const double cut2b = 0.5 * cut2;
      std::vector<std::uint32_t> want_sel;
      for (std::size_t t = 0; t < want.size(); ++t) {
        if (want_r2[t] <= cut2b) want_sel.push_back(want[t]);
      }
      for (const Isa isa : runnableIsas()) {
        const KernelSet& k = asura::pikg::kernels(isa);
        std::vector<std::uint32_t> keep(n + nbr::kSlack), sel(n + nbr::kSlack);
        std::vector<double> r2(n + nbr::kSlack);
        const std::size_t nk =
            k.near(px, py, pz, s.x.data(), s.y.data(), s.z.data(), n, cut2, keep.data(),
                   r2.data());
        keep.resize(nk);
        r2.resize(nk);
        EXPECT_EQ(keep, want) << k.name << " n=" << n;
        EXPECT_EQ(r2, want_r2) << k.name << " n=" << n;
        const std::size_t ns = k.keep(r2.data(), keep.data(), nk, cut2b, sel.data());
        sel.resize(ns);
        EXPECT_EQ(sel, want_sel) << k.name << " n=" << n;
        // And every backend agrees with the scalar one on the same input.
        std::vector<std::uint32_t> sel_ref(n + nbr::kSlack);
        sel_ref.resize(ref.keep(r2.data(), keep.data(), nk, cut2b, sel_ref.data()));
        EXPECT_EQ(sel, sel_ref) << k.name;
      }
    }
  }
}

TEST(NeighbourKernels, HydroPairSweepIsExact) {
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      Soa s = randomSoa(n, 9000 + 100 * n + seed);
      const std::uint32_t self = 7;
      const double px = 0.25, py = 0.5, pz = -0.125;
      const double h_i = 0.6 + 0.05 * static_cast<double>(seed % 5);
      // Edge entries on an exact grid: r = 5 with max(H) = 5 (not < 5), a
      // duplicate of the target (r = 0) and the target itself.
      if (n > 3) {
        s.x[0] = px + 3.0; s.y[0] = py + 4.0; s.z[0] = pz; s.h[0] = 5.0;
        s.x[1] = px; s.y[1] = py; s.z[1] = pz; s.idx[1] = self + 1;
        s.idx[2] = self;
        s.x[3] = px + 3.0; s.y[3] = py; s.z[3] = pz + 4.0; s.h[3] = std::nextafter(5.0, 6.0);
        s.idx[3] = self + 2;
      }
      std::vector<std::uint32_t> want;
      for (std::size_t j = 0; j < n; ++j) {
        const double d2 = sumSquares(px - s.x[j], py - s.y[j], pz - s.z[j]);
        const double rmax = std::max(h_i, s.h[j]);
        if (d2 < rmax * rmax && d2 > 0.0 && s.idx[j] != self) {
          want.push_back(static_cast<std::uint32_t>(j));
        }
      }
      if (n > 3) {
        EXPECT_TRUE(std::find(want.begin(), want.end(), 0u) == want.end());
        EXPECT_TRUE(std::find(want.begin(), want.end(), 1u) == want.end());
        EXPECT_TRUE(std::find(want.begin(), want.end(), 3u) != want.end());
      }
      for (const Isa isa : runnableIsas()) {
        const KernelSet& k = asura::pikg::kernels(isa);
        std::vector<std::uint32_t> keep(n + nbr::kSlack);
        keep.resize(k.pair(px, py, pz, h_i, self, s.x.data(), s.y.data(), s.z.data(),
                           s.h.data(), s.idx.data(), n, keep.data()));
        EXPECT_EQ(keep, want) << k.name << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(NeighbourKernels, TreeWalkListsAreIdenticalAcrossBackends) {
  Pcg32 rng(17);
  std::vector<SourceEntry> entries;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    SourceEntry e;
    const bool clump = i % 4 == 0;
    e.pos = clump ? Vec3d{rng.normal(), rng.normal(), rng.normal()}
                  : Vec3d{rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0),
                          rng.uniform(-15.0, 15.0)};
    e.mass = 1.0;
    e.h = clump ? 0.4 : 3.0;
    e.idx = i;
    entries.push_back(e);
  }
  entries.push_back(entries[5]);  // a duplicate position
  SourceTree tree;
  tree.build(entries, 16);

  std::vector<std::uint32_t> ref, got;
  for (int t = 0; t < 60; ++t) {
    Box target;
    const Vec3d c{rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0),
                  rng.uniform(-12.0, 12.0)};
    target.extend(c);
    if (t % 2 == 0) target.extend(c + Vec3d{rng.uniform(0.0, 2.0), 0.5, 1.0});
    const double radius = t % 3 == 0 ? 0.0 : rng.uniform(0.1, 2.0);
    tree.gatherNeighbors(target, radius, ref, asura::pikg::kernels(Isa::Scalar).walk);
    // The list is exactly the entries within reach (walk order aside).
    std::set<std::uint32_t> brute;
    const double box[6] = {target.lo.x, target.lo.y, target.lo.z,
                           target.hi.x, target.hi.y, target.hi.z};
    for (std::uint32_t e = 0; e < tree.entries().size(); ++e) {
      const SourceEntry& s = tree.entries()[e];
      if (boxDistance(box, s.pos.x, s.pos.y, s.pos.z) <= std::max(radius, s.h)) {
        brute.insert(e);
      }
    }
    EXPECT_EQ(std::set<std::uint32_t>(ref.begin(), ref.end()), brute) << "target " << t;
    EXPECT_EQ(ref.size(), brute.size());
    for (const Isa isa : runnableIsas()) {
      got.assign(7, 0u);  // stale contents are replaced, not appended to
      tree.gatherNeighbors(target, radius, got, asura::pikg::kernels(isa).walk);
      EXPECT_EQ(got, ref) << asura::pikg::isaName(isa) << " target " << t;
    }
  }

  // An empty tree yields an empty list.
  SourceTree empty;
  empty.build({}, 16);
  got.assign(3, 1u);
  Box target;
  target.extend(Vec3d{0.0, 0.0, 0.0});
  empty.gatherNeighbors(target, 1.0, got);
  EXPECT_TRUE(got.empty());
}

}  // namespace
