#pragma once
/// \file neighbour.hpp
/// \brief SIMD-width SPH neighbour selection: the tree walk's node and leaf
/// tests and the density/hydro passes' per-target survivor selection.
///
/// Each backend is its own translation unit compiled with its ISA's flags
/// (neighbour_scalar.cpp, neighbour_avx2.cpp, neighbour_avx512.cpp — see
/// CMakeLists.txt) and reached through pikg::KernelSet, so tree.cpp and
/// sph.cpp stay ISA-neutral. Without its flags a SIMD TU compiles to a
/// forwarder onto the scalar backend and reports itself as not compiled.
///
/// # Exactness
///
/// Every backend returns the *same list in the same order* as the scalar
/// backend, not a superset: survivors are kept in input order and each
/// keep-test repeats the scalar arithmetic operation for operation:
///
///  * distance squared: `fma(dz, dz, fma(dx, dx, dy * dy))` — what GCC
///    contracts `dx*dx + dy*dy + dz*dz` to on an FMA target, so the lists
///    match the pre-SIMD walk and prefilters of a native build bit for bit;
///  * leaf test: Box::distance(point) <= max(radius, h) with the per-axis
///    gap std::max({lo - p, 0, p - hi}) taken first-largest
///    (`max_pd(0, lo - p)` then `max_pd(p - hi, ·)` reproduces it, NaN and
///    signed zeros included) and a correctly rounded sqrt;
///  * node test: the same for Box::distance(node box), opening a node
///    unless that distance is > max(radius, node max_h);
///  * comparisons are the ordered (false-on-NaN) forms of the scalar ones.
///
/// # Output contract
///
/// The compress stores write whole vectors: a kernel may write up to
/// kSlack entries past the count it returns, so every output buffer must
/// hold n + kSlack elements.

#include <cstddef>
#include <cstdint>

namespace asura::pikg::nbr {

/// Entries a kernel may write past the count it returns.
inline constexpr std::size_t kSlack = 16;

/// Node boxes and subtree supports in SoA, one lane per node.
struct NodeSoa {
  const double* lox;
  const double* loy;
  const double* loz;
  const double* hix;
  const double* hiy;
  const double* hiz;
  const double* max_h;
};

/// Walk node test over the n <= 8 nodes at lanes [first, first + n): bit k
/// of the result is set when node first + k must be opened, i.e. unless
/// Box::distance(box, its box) > max(radius, its max_h).
using OpenFn = unsigned (*)(const NodeSoa& nodes, std::size_t first, std::size_t n,
                            const double* box, double radius);

/// Walk leaf test over n entries in SoA (x, y, z, support h): appends
/// base + k for every k with Box::distance(box, p_k) <= max(radius, h_k)
/// to `out` and returns how many it kept. `box` is {lo.x, lo.y, lo.z,
/// hi.x, hi.y, hi.z}.
using LeafFn = std::size_t (*)(const double* x, const double* y, const double* z,
                               const double* h, std::size_t n, const double* box,
                               double radius, std::uint32_t base, std::uint32_t* out);

/// Density sweep: keeps every candidate j of n with r2_j <= cut2 (r2 from
/// target (px, py, pz)), storing j to `keep` and r2_j to `r2`.
using NearFn = std::size_t (*)(double px, double py, double pz, const double* sx,
                               const double* sy, const double* sz, std::size_t n,
                               double cut2, std::uint32_t* keep, double* r2);

/// Density selection over a short list: keeps ids[t] for every t of n with
/// r2[t] <= cut2, storing it to `keep`.
using KeepFn = std::size_t (*)(const double* r2, const std::uint32_t* ids, std::size_t n,
                               double cut2, std::uint32_t* keep);

/// Hydro sweep: keeps every candidate j of n with
/// r2_j < max(h_i, sh_j)^2, r2_j > 0 and sidx_j != self, storing j to `keep`.
using PairFn = std::size_t (*)(double px, double py, double pz, double h_i,
                               std::uint32_t self, const double* sx, const double* sy,
                               const double* sz, const double* sh,
                               const std::uint32_t* sidx, std::size_t n,
                               std::uint32_t* keep);

unsigned openScalar(const NodeSoa& nodes, std::size_t first, std::size_t n,
                    const double* box, double radius);
unsigned openAvx2(const NodeSoa& nodes, std::size_t first, std::size_t n, const double* box,
                  double radius);
unsigned openAvx512(const NodeSoa& nodes, std::size_t first, std::size_t n,
                    const double* box, double radius);

std::size_t leafScalar(const double* x, const double* y, const double* z, const double* h,
                       std::size_t n, const double* box, double radius, std::uint32_t base,
                       std::uint32_t* out);

/// The node and leaf tests of one backend: what SourceTree::gatherNeighbors
/// walks with.
struct WalkTests {
  OpenFn open = openScalar;
  LeafFn leaf = leafScalar;
};
std::size_t leafAvx2(const double* x, const double* y, const double* z, const double* h,
                     std::size_t n, const double* box, double radius, std::uint32_t base,
                     std::uint32_t* out);
std::size_t leafAvx512(const double* x, const double* y, const double* z, const double* h,
                       std::size_t n, const double* box, double radius, std::uint32_t base,
                       std::uint32_t* out);

std::size_t nearScalar(double px, double py, double pz, const double* sx, const double* sy,
                       const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                       double* r2);
std::size_t nearAvx2(double px, double py, double pz, const double* sx, const double* sy,
                     const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                     double* r2);
std::size_t nearAvx512(double px, double py, double pz, const double* sx, const double* sy,
                       const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                       double* r2);

std::size_t keepScalar(const double* r2, const std::uint32_t* ids, std::size_t n,
                       double cut2, std::uint32_t* keep);
std::size_t keepAvx2(const double* r2, const std::uint32_t* ids, std::size_t n, double cut2,
                     std::uint32_t* keep);
std::size_t keepAvx512(const double* r2, const std::uint32_t* ids, std::size_t n,
                       double cut2, std::uint32_t* keep);

std::size_t pairScalar(double px, double py, double pz, double h_i, std::uint32_t self,
                       const double* sx, const double* sy, const double* sz,
                       const double* sh, const std::uint32_t* sidx, std::size_t n,
                       std::uint32_t* keep);
std::size_t pairAvx2(double px, double py, double pz, double h_i, std::uint32_t self,
                     const double* sx, const double* sy, const double* sz, const double* sh,
                     const std::uint32_t* sidx, std::size_t n, std::uint32_t* keep);
std::size_t pairAvx512(double px, double py, double pz, double h_i, std::uint32_t self,
                       const double* sx, const double* sy, const double* sz,
                       const double* sh, const std::uint32_t* sidx, std::size_t n,
                       std::uint32_t* keep);

/// Whether the SIMD TUs were built with their ISA flags.
bool avx2Compiled();
bool avx512Compiled();

}  // namespace asura::pikg::nbr
