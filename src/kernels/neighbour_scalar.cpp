// Scalar neighbour-selection backend: the reference every SIMD backend must
// reproduce list for list (see neighbour.hpp). Branch-free compaction: each
// slot is written unconditionally and the count advances by the keep bit.

#include <cmath>

#include "kernels/neighbour.hpp"

namespace asura::pikg::nbr {

namespace {

/// Box::distance's per-axis gap std::max({lo - other_hi, 0.0, other_lo - hi})
/// with its first-largest tie rule; a point is a box with other_lo ==
/// other_hi.
double axisGap(double lo, double other_hi, double other_lo, double hi) {
  double m = lo - other_hi;
  if (m < 0.0) m = 0.0;
  const double b = other_lo - hi;
  if (m < b) m = b;
  return m;
}

double sumSquares(double dx, double dy, double dz) {
  return std::fma(dz, dz, std::fma(dx, dx, dy * dy));
}

}  // namespace

unsigned openScalar(const NodeSoa& nodes, std::size_t first, std::size_t n,
                    const double* box, double radius) {
  unsigned open = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = first + k;
    const double dx = axisGap(box[0], nodes.hix[i], nodes.lox[i], box[3]);
    const double dy = axisGap(box[1], nodes.hiy[i], nodes.loy[i], box[4]);
    const double dz = axisGap(box[2], nodes.hiz[i], nodes.loz[i], box[5]);
    const double reach = radius < nodes.max_h[i] ? nodes.max_h[i] : radius;
    open |= (std::sqrt(sumSquares(dx, dy, dz)) > reach ? 0u : 1u) << k;
  }
  return open;
}

std::size_t leafScalar(const double* x, const double* y, const double* z, const double* h,
                       std::size_t n, const double* box, double radius, std::uint32_t base,
                       std::uint32_t* out) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = axisGap(box[0], x[k], x[k], box[3]);
    const double dy = axisGap(box[1], y[k], y[k], box[4]);
    const double dz = axisGap(box[2], z[k], z[k], box[5]);
    const double reach = radius < h[k] ? h[k] : radius;
    out[kept] = base + static_cast<std::uint32_t>(k);
    kept += std::sqrt(sumSquares(dx, dy, dz)) <= reach ? 1 : 0;
  }
  return kept;
}

std::size_t nearScalar(double px, double py, double pz, const double* sx, const double* sy,
                       const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                       double* r2) {
  std::size_t kept = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d2 = sumSquares(px - sx[j], py - sy[j], pz - sz[j]);
    keep[kept] = static_cast<std::uint32_t>(j);
    r2[kept] = d2;
    kept += d2 <= cut2 ? 1 : 0;
  }
  return kept;
}

std::size_t keepScalar(const double* r2, const std::uint32_t* ids, std::size_t n,
                       double cut2, std::uint32_t* keep) {
  std::size_t kept = 0;
  for (std::size_t t = 0; t < n; ++t) {
    keep[kept] = ids[t];
    kept += r2[t] <= cut2 ? 1 : 0;
  }
  return kept;
}

std::size_t pairScalar(double px, double py, double pz, double h_i, std::uint32_t self,
                       const double* sx, const double* sy, const double* sz,
                       const double* sh, const std::uint32_t* sidx, std::size_t n,
                       std::uint32_t* keep) {
  std::size_t kept = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d2 = sumSquares(px - sx[j], py - sy[j], pz - sz[j]);
    const double rmax = h_i < sh[j] ? sh[j] : h_i;
    keep[kept] = static_cast<std::uint32_t>(j);
    kept += static_cast<std::size_t>((d2 < rmax * rmax) & (d2 > 0.0) & (sidx[j] != self));
  }
  return kept;
}

}  // namespace asura::pikg::nbr
