/// \file pikg_gen.cpp
/// \brief Build-time PIKG invocation: emit the generated kernel file set.
///
/// Mirrors the paper's workflow where PIKG turns DSL kernel descriptions
/// into architecture-specific source ("the generated code for A64FX using
/// ARM SVE intrinsics is about 500 lines"); here the backends are scalar,
/// AVX2 and AVX-512. Output:
///
///   pikg_kernels.hpp            — SoA kernel declarations + PPA tables
///   pikg_kernels_scalar.cpp     — scalar reference TU
///   pikg_kernels_avx2.cpp       — AVX2 TU (built with -mavx2 -mfma)
///   pikg_kernels_avx512.cpp     — AVX-512 TU (built with -mavx512f)
///
/// The TUs are compiled into the main library and dispatched at
/// runtime by kernels/registry.hpp. Output is deterministic: running the
/// generator twice produces byte-identical files (CI diffs two runs).

#include <fstream>
#include <iostream>

#include "pikg/dsl.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: pikg_gen <output-dir>\n";
    return 1;
  }
  const std::string dir = argv[1];
  for (const auto& file : asura::pikg::generateProductionFiles()) {
    const std::string path = dir + "/" + file.name;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "pikg_gen: cannot open " << path << "\n";
      return 1;
    }
    out << file.content;
    std::cout << "pikg_gen: wrote " << path << "\n";
  }
  return 0;
}
