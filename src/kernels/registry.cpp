#include "kernels/registry.hpp"

namespace asura::pikg {

const char* isaName(Isa isa) {
  switch (isa) {
    case Isa::Auto: return "auto";
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "unknown";
}

namespace {

// __builtin_cpu_supports requires literal feature names, so each probe is
// its own function rather than a parameterized helper. The x86 feature
// strings are only valid (and the builtin only guaranteed to exist) on x86
// targets; elsewhere the probes report false and dispatch stays on the
// scalar backend (the generated SIMD TUs degrade to forwarders there too).
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
bool cpuHasAvx512f() { return __builtin_cpu_supports("avx512f") != 0; }
bool cpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
}
#else
bool cpuHasAvx512f() { return false; }
bool cpuHasAvx2Fma() { return false; }
#endif

const KernelSet kSets[3] = {
    {gen::grav_scalar, gen::dens_scalar, gen::hydro_scalar,
     {nbr::openScalar, nbr::leafScalar}, nbr::nearScalar, nbr::keepScalar, nbr::pairScalar,
     Isa::Scalar, "scalar"},
    {gen::grav_avx2, gen::dens_avx2, gen::hydro_avx2, {nbr::openAvx2, nbr::leafAvx2},
     nbr::nearAvx2, nbr::keepAvx2, nbr::pairAvx2, Isa::Avx2, "avx2"},
    {gen::grav_avx512, gen::dens_avx512, gen::hydro_avx512,
     {nbr::openAvx512, nbr::leafAvx512}, nbr::nearAvx512, nbr::keepAvx512, nbr::pairAvx512,
     Isa::Avx512, "avx512"},
};

}  // namespace

Isa bestIsa() {
  static const Isa best = [] {
    if (gen::avx512Compiled() && nbr::avx512Compiled() && cpuHasAvx512f()) {
      return Isa::Avx512;
    }
    if (gen::avx2Compiled() && nbr::avx2Compiled() && cpuHasAvx2Fma()) return Isa::Avx2;
    return Isa::Scalar;
  }();
  return best;
}

Isa resolveIsa(Isa requested) {
  const Isa best = bestIsa();
  if (requested == Isa::Auto) return best;
  return static_cast<int>(requested) <= static_cast<int>(best) ? requested : best;
}

const KernelSet& kernels(Isa requested) {
  return kSets[static_cast<int>(resolveIsa(requested)) - 1];
}

}  // namespace asura::pikg
