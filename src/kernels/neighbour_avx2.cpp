// AVX2+FMA neighbour-selection backend: 4 doubles per test, survivors
// compacted through permutation look-up tables keyed by the 4-bit keep mask
// (lane numbers for the indices, a vpermd pattern for the distances) and
// stored as whole vectors; tails through masked loads. Without -mavx2 -mfma
// the TU forwards to the scalar backend. Lists are identical to the scalar
// backend's: see the arithmetic contract in neighbour.hpp.

#include "kernels/neighbour.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

namespace asura::pikg::nbr {

bool avx2Compiled() { return true; }

namespace {

/// Compaction tables for a 4-lane keep mask m: `lanes[m]` lists the kept
/// lane numbers first, `perm[m]` moves the kept 64-bit lanes to the front
/// as vpermd 32-bit pairs. Constant-initialised data, no code at start-up.
struct CompactLuts {
  alignas(16) std::uint32_t lanes[16][4];
  alignas(32) std::int32_t perm[16][8];
};

constexpr CompactLuts makeLuts() {
  CompactLuts t{};
  for (int m = 0; m < 16; ++m) {
    int c = 0;
    for (int l = 0; l < 4; ++l) {
      if (((m >> l) & 1) == 0) continue;
      t.lanes[m][c] = static_cast<std::uint32_t>(l);
      t.perm[m][2 * c] = 2 * l;
      t.perm[m][2 * c + 1] = 2 * l + 1;
      ++c;
    }
  }
  return t;
}

constexpr CompactLuts kLuts = makeLuts();

/// Load masks: the 4 entries starting at kTail + 4 - rem enable `rem` lanes
/// (an unaligned window, so read with loadu).
constexpr long long kTail64[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
constexpr int kTail32[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

int liveBits(std::size_t rem) { return rem >= 4 ? 0xF : (1 << rem) - 1; }

__m256d load4(const double* p, std::size_t rem) {
  if (rem >= 4) return _mm256_loadu_pd(p);
  return _mm256_maskload_pd(
      p, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kTail64 + 4 - rem)));
}

__m128i load4(const std::uint32_t* p, std::size_t rem) {
  if (rem >= 4) return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm_maskload_epi32(reinterpret_cast<const int*>(p),
                            _mm_loadu_si128(reinterpret_cast<const __m128i*>(kTail32 + 4 - rem)));
}

/// Box::distance's per-axis gap std::max({lo - other_hi, 0.0, other_lo - hi})
/// (a point is a box with other_lo == other_hi): maxpd returns its second
/// operand unless the first is strictly greater, which is the first-largest
/// rule.
__m256d axisGap(__m256d lo, __m256d other_hi, __m256d other_lo, __m256d hi) {
  const __m256d m = _mm256_max_pd(_mm256_setzero_pd(), _mm256_sub_pd(lo, other_hi));
  return _mm256_max_pd(_mm256_sub_pd(other_lo, hi), m);
}

__m256d sumSquares(__m256d dx, __m256d dy, __m256d dz) {
  return _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dx, dx, _mm256_mul_pd(dy, dy)));
}

/// Store first + (kept lanes of m) to out[0..4); returns how many.
std::size_t storeKept(std::uint32_t* out, int m, std::uint32_t first) {
  const __m128i lanes = _mm_load_si128(reinterpret_cast<const __m128i*>(kLuts.lanes[m]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_add_epi32(_mm_set1_epi32(static_cast<int>(first)), lanes));
  return static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(m)));
}

/// Store the kept lanes of `ids` (selected by m) to out[0..4); returns how
/// many.
std::size_t storeKept(std::uint32_t* out, int m, __m128i ids) {
  const __m128i lanes = _mm_load_si128(reinterpret_cast<const __m128i*>(kLuts.lanes[m]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_castps_si128(_mm_permutevar_ps(_mm_castsi128_ps(ids), lanes)));
  return static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(m)));
}

}  // namespace

unsigned openAvx2(const NodeSoa& nodes, std::size_t first, std::size_t n, const double* box,
                  double radius) {
  const __m256d lox = _mm256_set1_pd(box[0]), loy = _mm256_set1_pd(box[1]),
                loz = _mm256_set1_pd(box[2]);
  const __m256d hix = _mm256_set1_pd(box[3]), hiy = _mm256_set1_pd(box[4]),
                hiz = _mm256_set1_pd(box[5]);
  const __m256d rad = _mm256_set1_pd(radius);
  unsigned open = 0;
  for (std::size_t k = 0; k < n; k += 4) {
    const std::size_t rem = n - k;
    const std::size_t i = first + k;
    const __m256d dx = axisGap(lox, load4(nodes.hix + i, rem), load4(nodes.lox + i, rem), hix);
    const __m256d dy = axisGap(loy, load4(nodes.hiy + i, rem), load4(nodes.loy + i, rem), hiy);
    const __m256d dz = axisGap(loz, load4(nodes.hiz + i, rem), load4(nodes.loz + i, rem), hiz);
    // max(radius, max_h): max_h where radius < max_h, else radius.
    const __m256d reach = _mm256_max_pd(load4(nodes.max_h + i, rem), rad);
    // Opened unless the distance is (ordered) greater than the reach.
    const int m = _mm256_movemask_pd(
                      _mm256_cmp_pd(_mm256_sqrt_pd(sumSquares(dx, dy, dz)), reach, _CMP_NGT_UQ)) &
                  liveBits(rem);
    open |= static_cast<unsigned>(m) << k;
  }
  return open;
}

std::size_t leafAvx2(const double* x, const double* y, const double* z, const double* h,
                     std::size_t n, const double* box, double radius, std::uint32_t base,
                     std::uint32_t* out) {
  const __m256d lox = _mm256_set1_pd(box[0]), loy = _mm256_set1_pd(box[1]),
                loz = _mm256_set1_pd(box[2]);
  const __m256d hix = _mm256_set1_pd(box[3]), hiy = _mm256_set1_pd(box[4]),
                hiz = _mm256_set1_pd(box[5]);
  const __m256d rad = _mm256_set1_pd(radius);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; k += 4) {
    const std::size_t rem = n - k;
    const __m256d px = load4(x + k, rem), py = load4(y + k, rem), pz = load4(z + k, rem);
    const __m256d dx = axisGap(lox, px, px, hix);
    const __m256d dy = axisGap(loy, py, py, hiy);
    const __m256d dz = axisGap(loz, pz, pz, hiz);
    // max(radius, h): h where radius < h, else radius.
    const __m256d reach = _mm256_max_pd(load4(h + k, rem), rad);
    const int m = _mm256_movemask_pd(
                      _mm256_cmp_pd(_mm256_sqrt_pd(sumSquares(dx, dy, dz)), reach, _CMP_LE_OQ)) &
                  liveBits(rem);
    kept += storeKept(out + kept, m, base + static_cast<std::uint32_t>(k));
  }
  return kept;
}

std::size_t nearAvx2(double px, double py, double pz, const double* sx, const double* sy,
                     const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                     double* r2) {
  const __m256d vx = _mm256_set1_pd(px), vy = _mm256_set1_pd(py), vz = _mm256_set1_pd(pz);
  const __m256d cut = _mm256_set1_pd(cut2);
  std::size_t kept = 0;
  for (std::size_t j = 0; j < n; j += 4) {
    const std::size_t rem = n - j;
    const __m256d d2 = sumSquares(_mm256_sub_pd(vx, load4(sx + j, rem)),
                                  _mm256_sub_pd(vy, load4(sy + j, rem)),
                                  _mm256_sub_pd(vz, load4(sz + j, rem)));
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(d2, cut, _CMP_LE_OQ)) & liveBits(rem);
    const __m256i perm = _mm256_load_si256(reinterpret_cast<const __m256i*>(kLuts.perm[m]));
    _mm256_storeu_pd(r2 + kept, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                                    _mm256_castpd_si256(d2), perm)));
    kept += storeKept(keep + kept, m, static_cast<std::uint32_t>(j));
  }
  return kept;
}

std::size_t keepAvx2(const double* r2, const std::uint32_t* ids, std::size_t n, double cut2,
                     std::uint32_t* keep) {
  const __m256d cut = _mm256_set1_pd(cut2);
  std::size_t kept = 0;
  for (std::size_t t = 0; t < n; t += 4) {
    const std::size_t rem = n - t;
    const int m =
        _mm256_movemask_pd(_mm256_cmp_pd(load4(r2 + t, rem), cut, _CMP_LE_OQ)) & liveBits(rem);
    kept += storeKept(keep + kept, m, load4(ids + t, rem));
  }
  return kept;
}

std::size_t pairAvx2(double px, double py, double pz, double h_i, std::uint32_t self,
                     const double* sx, const double* sy, const double* sz, const double* sh,
                     const std::uint32_t* sidx, std::size_t n, std::uint32_t* keep) {
  const __m256d vx = _mm256_set1_pd(px), vy = _mm256_set1_pd(py), vz = _mm256_set1_pd(pz);
  const __m256d hi = _mm256_set1_pd(h_i);
  const __m128i me = _mm_set1_epi32(static_cast<int>(self));
  std::size_t kept = 0;
  for (std::size_t j = 0; j < n; j += 4) {
    const std::size_t rem = n - j;
    const __m256d d2 = sumSquares(_mm256_sub_pd(vx, load4(sx + j, rem)),
                                  _mm256_sub_pd(vy, load4(sy + j, rem)),
                                  _mm256_sub_pd(vz, load4(sz + j, rem)));
    // max(h_i, sh): sh where h_i < sh, else h_i.
    const __m256d rmax = _mm256_max_pd(load4(sh + j, rem), hi);
    const int inside =
        _mm256_movemask_pd(_mm256_cmp_pd(d2, _mm256_mul_pd(rmax, rmax), _CMP_LT_OQ));
    const int apart = _mm256_movemask_pd(_mm256_cmp_pd(d2, _mm256_setzero_pd(), _CMP_GT_OQ));
    const int same =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(load4(sidx + j, rem), me)));
    const int m = inside & apart & ~same & liveBits(rem);
    kept += storeKept(keep + kept, m, static_cast<std::uint32_t>(j));
  }
  return kept;
}

}  // namespace asura::pikg::nbr

#else  // built without AVX2+FMA: forward to the scalar backend

namespace asura::pikg::nbr {

bool avx2Compiled() { return false; }

unsigned openAvx2(const NodeSoa& nodes, std::size_t first, std::size_t n, const double* box,
                  double radius) {
  return openScalar(nodes, first, n, box, radius);
}

std::size_t leafAvx2(const double* x, const double* y, const double* z, const double* h,
                     std::size_t n, const double* box, double radius, std::uint32_t base,
                     std::uint32_t* out) {
  return leafScalar(x, y, z, h, n, box, radius, base, out);
}

std::size_t nearAvx2(double px, double py, double pz, const double* sx, const double* sy,
                     const double* sz, std::size_t n, double cut2, std::uint32_t* keep,
                     double* r2) {
  return nearScalar(px, py, pz, sx, sy, sz, n, cut2, keep, r2);
}

std::size_t keepAvx2(const double* r2, const std::uint32_t* ids, std::size_t n, double cut2,
                     std::uint32_t* keep) {
  return keepScalar(r2, ids, n, cut2, keep);
}

std::size_t pairAvx2(double px, double py, double pz, double h_i, std::uint32_t self,
                     const double* sx, const double* sy, const double* sz, const double* sh,
                     const std::uint32_t* sidx, std::size_t n, std::uint32_t* keep) {
  return pairScalar(px, py, pz, h_i, self, sx, sy, sz, sh, sidx, n, keep);
}

}  // namespace asura::pikg::nbr

#endif
