// AVX-512F neighbour-selection backend: 8 doubles per test, survivors
// compressed in-register (vpcompressd / vcompresspd) and stored as whole
// vectors, tails through masked loads. Uses AVX-512F only (no VL/DQ), the
// one flag CMakeLists.txt gives this TU; without it the TU forwards to the
// scalar backend. Lists are identical to the scalar backend's: see the
// arithmetic contract in neighbour.hpp.

#include "kernels/neighbour.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace asura::pikg::nbr {

bool avx512Compiled() { return true; }

namespace {

/// Lanes [0, n - k) of an 8-wide step starting at k.
__mmask8 liveLanes(std::size_t n, std::size_t k) {
  const std::size_t rem = n - k;
  return rem >= 8 ? static_cast<__mmask8>(0xFF)
                  : static_cast<__mmask8>((1u << rem) - 1u);
}

/// Box::distance's per-axis gap std::max({lo - other_hi, 0.0, other_lo - hi})
/// (a point is a box with other_lo == other_hi): maxpd returns its second
/// operand unless the first is strictly greater, which is the first-largest
/// rule.
__m512d axisGap(__m512d lo, __m512d other_hi, __m512d other_lo, __m512d hi) {
  const __m512d m = _mm512_max_pd(_mm512_setzero_pd(), _mm512_sub_pd(lo, other_hi));
  return _mm512_max_pd(_mm512_sub_pd(other_lo, hi), m);
}

__m512d sumSquares(__m512d dx, __m512d dy, __m512d dz) {
  return _mm512_fmadd_pd(dz, dz, _mm512_fmadd_pd(dx, dx, _mm512_mul_pd(dy, dy)));
}

/// Compress the lanes of `ids` selected by `m` to the front of out[0..8).
void storeKept(std::uint32_t* out, __mmask8 m, __m512i ids) {
  const __m512i c = _mm512_maskz_compress_epi32(static_cast<__mmask16>(m), ids);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), _mm512_castsi512_si256(c));
}

/// Lane numbers 0..15 (built per call, never at static-init time: this TU's
/// code must not run on a host without AVX-512).
__m512i iota() {
  return _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
}

}  // namespace

unsigned openAvx512(const NodeSoa& nodes, std::size_t first, std::size_t n,
                    const double* box, double radius) {
  const __mmask8 live = liveLanes(n, 0);
  auto lane = [&](const double* p) { return _mm512_maskz_loadu_pd(live, p + first); };
  const __m512d dx = axisGap(_mm512_set1_pd(box[0]), lane(nodes.hix), lane(nodes.lox),
                             _mm512_set1_pd(box[3]));
  const __m512d dy = axisGap(_mm512_set1_pd(box[1]), lane(nodes.hiy), lane(nodes.loy),
                             _mm512_set1_pd(box[4]));
  const __m512d dz = axisGap(_mm512_set1_pd(box[2]), lane(nodes.hiz), lane(nodes.loz),
                             _mm512_set1_pd(box[5]));
  // max(radius, max_h): max_h where radius < max_h, else radius.
  const __m512d reach = _mm512_max_pd(lane(nodes.max_h), _mm512_set1_pd(radius));
  // Opened unless the distance is (ordered) greater than the reach.
  return _mm512_mask_cmp_pd_mask(live, _mm512_sqrt_pd(sumSquares(dx, dy, dz)), reach,
                                 _CMP_NGT_UQ);
}

std::size_t leafAvx512(const double* x, const double* y, const double* z, const double* h,
                       std::size_t n, const double* box, double radius, std::uint32_t base,
                       std::uint32_t* out) {
  const __m512d lox = _mm512_set1_pd(box[0]), loy = _mm512_set1_pd(box[1]),
                loz = _mm512_set1_pd(box[2]);
  const __m512d hix = _mm512_set1_pd(box[3]), hiy = _mm512_set1_pd(box[4]),
                hiz = _mm512_set1_pd(box[5]);
  const __m512d rad = _mm512_set1_pd(radius);
  const __m512i lanes = iota();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; k += 8) {
    const __mmask8 live = liveLanes(n, k);
    const __m512d px = _mm512_maskz_loadu_pd(live, x + k);
    const __m512d py = _mm512_maskz_loadu_pd(live, y + k);
    const __m512d pz = _mm512_maskz_loadu_pd(live, z + k);
    const __m512d dx = axisGap(lox, px, px, hix);
    const __m512d dy = axisGap(loy, py, py, hiy);
    const __m512d dz = axisGap(loz, pz, pz, hiz);
    // max(radius, h): h where radius < h, else radius.
    const __m512d reach = _mm512_max_pd(_mm512_maskz_loadu_pd(live, h + k), rad);
    const __mmask8 m = _mm512_mask_cmp_pd_mask(
        live, _mm512_sqrt_pd(sumSquares(dx, dy, dz)), reach, _CMP_LE_OQ);
    storeKept(out + kept, m,
              _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(base + k)), lanes));
    kept += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return kept;
}

std::size_t nearAvx512(double px, double py, double pz, const double* sx, const double* sy,
                       const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                       double* r2) {
  const __m512d vx = _mm512_set1_pd(px), vy = _mm512_set1_pd(py), vz = _mm512_set1_pd(pz);
  const __m512d cut = _mm512_set1_pd(cut2);
  const __m512i lanes = iota();
  std::size_t kept = 0;
  for (std::size_t j = 0; j < n; j += 8) {
    const __mmask8 live = liveLanes(n, j);
    const __m512d d2 = sumSquares(_mm512_sub_pd(vx, _mm512_maskz_loadu_pd(live, sx + j)),
                                  _mm512_sub_pd(vy, _mm512_maskz_loadu_pd(live, sy + j)),
                                  _mm512_sub_pd(vz, _mm512_maskz_loadu_pd(live, sz + j)));
    const __mmask8 m = _mm512_mask_cmp_pd_mask(live, d2, cut, _CMP_LE_OQ);
    storeKept(keep + kept, m,
              _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(j)), lanes));
    _mm512_storeu_pd(r2 + kept, _mm512_maskz_compress_pd(m, d2));
    kept += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return kept;
}

std::size_t keepAvx512(const double* r2, const std::uint32_t* ids, std::size_t n,
                       double cut2, std::uint32_t* keep) {
  const __m512d cut = _mm512_set1_pd(cut2);
  std::size_t kept = 0;
  for (std::size_t t = 0; t < n; t += 8) {
    const __mmask8 live = liveLanes(n, t);
    const __mmask8 m =
        _mm512_mask_cmp_pd_mask(live, _mm512_maskz_loadu_pd(live, r2 + t), cut, _CMP_LE_OQ);
    storeKept(keep + kept, m, _mm512_maskz_loadu_epi32(live, ids + t));
    kept += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return kept;
}

std::size_t pairAvx512(double px, double py, double pz, double h_i, std::uint32_t self,
                       const double* sx, const double* sy, const double* sz,
                       const double* sh, const std::uint32_t* sidx, std::size_t n,
                       std::uint32_t* keep) {
  const __m512d vx = _mm512_set1_pd(px), vy = _mm512_set1_pd(py), vz = _mm512_set1_pd(pz);
  const __m512d hi = _mm512_set1_pd(h_i);
  const __m512i me = _mm512_set1_epi32(static_cast<int>(self));
  const __m512i lanes = iota();
  std::size_t kept = 0;
  for (std::size_t j = 0; j < n; j += 8) {
    const __mmask8 live = liveLanes(n, j);
    const __m512d d2 = sumSquares(_mm512_sub_pd(vx, _mm512_maskz_loadu_pd(live, sx + j)),
                                  _mm512_sub_pd(vy, _mm512_maskz_loadu_pd(live, sy + j)),
                                  _mm512_sub_pd(vz, _mm512_maskz_loadu_pd(live, sz + j)));
    // max(h_i, sh): sh where h_i < sh, else h_i.
    const __m512d rmax = _mm512_max_pd(_mm512_maskz_loadu_pd(live, sh + j), hi);
    const __mmask8 other = static_cast<__mmask8>(_mm512_mask_cmpneq_epi32_mask(
        static_cast<__mmask16>(live), _mm512_maskz_loadu_epi32(live, sidx + j), me));
    const __mmask8 inside =
        _mm512_mask_cmp_pd_mask(live, d2, _mm512_mul_pd(rmax, rmax), _CMP_LT_OQ);
    const __mmask8 apart = _mm512_cmp_pd_mask(d2, _mm512_setzero_pd(), _CMP_GT_OQ);
    const __mmask8 m = static_cast<__mmask8>(inside & apart & other);
    storeKept(keep + kept, m,
              _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(j)), lanes));
    kept += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return kept;
}

}  // namespace asura::pikg::nbr

#else  // built without AVX-512F: forward to the scalar backend

namespace asura::pikg::nbr {

bool avx512Compiled() { return false; }

unsigned openAvx512(const NodeSoa& nodes, std::size_t first, std::size_t n,
                    const double* box, double radius) {
  return openScalar(nodes, first, n, box, radius);
}

std::size_t leafAvx512(const double* x, const double* y, const double* z, const double* h,
                       std::size_t n, const double* box, double radius, std::uint32_t base,
                       std::uint32_t* out) {
  return leafScalar(x, y, z, h, n, box, radius, base, out);
}

std::size_t nearAvx512(double px, double py, double pz, const double* sx, const double* sy,
                       const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                       double* r2) {
  return nearScalar(px, py, pz, sx, sy, sz, n, cut2, keep, r2);
}

std::size_t keepAvx512(const double* r2, const std::uint32_t* ids, std::size_t n,
                       double cut2, std::uint32_t* keep) {
  return keepScalar(r2, ids, n, cut2, keep);
}

std::size_t pairAvx512(double px, double py, double pz, double h_i, std::uint32_t self,
                       const double* sx, const double* sy, const double* sz,
                       const double* sh, const std::uint32_t* sidx, std::size_t n,
                       std::uint32_t* keep) {
  return pairScalar(px, py, pz, h_i, self, sx, sy, sz, sh, sidx, n, keep);
}

}  // namespace asura::pikg::nbr

#endif
