#include "pikg/dsl.hpp"

#include <cctype>
#include <set>
#include <sstream>
#include <stdexcept>

#include "pikg/ppa.hpp"
#include "sph/kernels.hpp"

namespace asura::pikg {

namespace {

std::string capitalize(const std::string& s) {
  std::string out = s;
  if (!out.empty()) out[0] = static_cast<char>(std::toupper(out[0]));
  return out;
}

bool isLiteral(const std::string& s) {
  return !s.empty() && (std::isdigit(s[0]) || s[0] == '-' || s[0] == '.');
}

/// Deterministic, exact floating-point literal (hexfloat round-trips the
/// value bit-for-bit; the generator's byte-identical-output guarantee leans
/// on this).
std::string hexDouble(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// Scalar C++ literal for a DSL literal operand: "0.5" -> "0.5f"/"0.5",
/// "1" -> "1.0f"/"1.0".
std::string scalarLiteral(const std::string& s, bool f64) {
  std::string out = s;
  if (out.find('.') == std::string::npos && out.find('e') == std::string::npos &&
      out.find('x') == std::string::npos) {
    out += ".0";
  }
  if (!f64) out += "f";
  return out;
}

/// Newton-Raphson refinement of a hardware reciprocal-sqrt approximation:
/// y' = y (1.5 - 0.5 x y^2). rsqrtps/rsqrt14ps deliver ~12/14 bits; one step
/// recovers ~23, which the mixed-F32 error budget (gravity, §4.3) requires.
std::string emitNrRsqrt(const std::string& raw, const std::string& x,
                        const std::string& prefix, const std::string& reg,
                        const std::string& sfx) {
  std::ostringstream os;
  os << "[&]{ const " << reg << " y0 = " << raw << "; const " << reg << " xh = "
     << prefix << "mul" << sfx << "(" << x << ", " << prefix << "set1" << sfx
     << "(0.5f)); const " << reg << " t = " << prefix << "fnmadd" << sfx << "("
     << prefix << "mul" << sfx << "(xh, y0), y0, " << prefix << "set1" << sfx
     << "(1.5f)); return " << prefix << "mul" << sfx << "(y0, t); }()";
  return os.str();
}

}  // namespace

KernelDef makeGravityProductionKernel() {
  // The production group kernel (replaces the hand-written
  // gravity::evalGroupSoaMixedF32): sources and targets arrive staged
  // relative to the receiving group's centre in single precision (§4.3);
  // the branch-free self mask zeroes the mass and clamps the denominator.
  KernelDef def;
  def.name = "grav";
  def.prec = KernelDef::Prec::F32;
  def.f64_accum = true;
  def.epi = {"x", "y", "z", "e2"};
  def.epj = {"x", "y", "z", "m", "e2"};
  def.force = {"ax", "ay", "az", "pot"};
  def.body = {
      {"dx", "sub", "x_i", "x_j", ""},
      {"dy", "sub", "y_i", "y_j", ""},
      {"dz", "sub", "z_i", "z_j", ""},
      {"r2a", "mul", "dx", "dx", ""},
      {"r2b", "fma", "dy", "dy", "r2a"},
      {"r2", "fma", "dz", "dz", "r2b"},
      {"mask", "gt", "r2", "0", ""},
      {"mj", "select", "mask", "m_j", "0"},
      {"r2e", "add", "r2", "e2_i", ""},
      {"r2ee", "add", "r2e", "e2_j", ""},
      {"denom", "select", "mask", "r2ee", "1"},
      {"rinv", "rsqrt", "denom", "", ""},
      {"mr", "mul", "mj", "rinv", ""},
      {"rinv2", "mul", "rinv", "rinv", ""},
      {"mr3", "mul", "mr", "rinv2", ""},
      {"fx", "mul", "mr3", "dx", ""},
      {"fy", "mul", "mr3", "dy", ""},
      {"fz", "mul", "mr3", "dz", ""},
  };
  def.accum = {
      {"ax", "fx", '-'},
      {"ay", "fy", '-'},
      {"az", "fz", '-'},
      {"pot", "mr", '-'},
  };
  def.flops_per_interaction = 27;
  return def;
}

KernelDef makeDensityKernel() {
  // Kernel sums of the density closure over a pre-selected neighbour list
  // (every j satisfies r <= H_i): rho = sum m W(r, H), plus the
  // un-normalized div v / curl v estimators the Balsara switch needs.
  // W/dW come from the PPA tables on u = r/H in [0, 1):
  //   W(r, H) = wbar(u) / H^3,  dW/dr(r, H) = dwbar(u) / H^4.
  KernelDef def;
  def.name = "dens";
  def.prec = KernelDef::Prec::F64;
  def.epi = {"x", "y", "z", "vx", "vy", "vz", "hinv", "hinv3", "hinv4"};
  def.epj = {"x", "y", "z", "m", "vx", "vy", "vz"};
  def.force = {"rho", "div", "cx", "cy", "cz"};
  def.tables = {{"wtab", 0.0, 1.0, 16, 5}};
  def.body = {
      {"dx", "sub", "x_i", "x_j", ""},
      {"dy", "sub", "y_i", "y_j", ""},
      {"dz", "sub", "z_i", "z_j", ""},
      {"r2a", "mul", "dx", "dx", ""},
      {"r2b", "fma", "dy", "dy", "r2a"},
      {"r2", "fma", "dz", "dz", "r2b"},
      {"r", "sqrt", "r2", "", ""},
      {"u", "mul", "r", "hinv_i", ""},
      {"wq", "table", "wtab", "u", ""},
      {"w", "mul", "hinv3_i", "wq", ""},
      {"wm", "mul", "m_j", "w", ""},
      // Gradient part: masked out for the self pair (r = 0).
      {"mask", "gt", "r2", "0", ""},
      {"rinv", "div", "1", "r", ""},
      // dW from the derivative of the same polynomial piece as W: the fits
      // are polynomial-exact, so this equals a separate dW table while
      // sharing the subdomain lookup and the coefficient gathers.
      {"dwq", "dtable", "wtab", "u", ""},
      {"dw0", "mul", "hinv4_i", "dwq", ""},
      {"gm", "mul", "m_j", "dw0", ""},
      {"gc0", "mul", "gm", "rinv", ""},
      {"gcoef", "select", "mask", "gc0", "0"},
      {"dvx", "sub", "vx_i", "vx_j", ""},
      {"dvy", "sub", "vy_i", "vy_j", ""},
      {"dvz", "sub", "vz_i", "vz_j", ""},
      {"vda", "mul", "dvx", "dx", ""},
      {"vdb", "fma", "dvy", "dy", "vda"},
      {"vdotr", "fma", "dvz", "dz", "vdb"},
      {"dsum", "mul", "gcoef", "vdotr", ""},
      // curl components of dv x dr.
      {"cxa", "mul", "dvy", "dz", ""},
      {"cxb", "mul", "dvz", "dy", ""},
      {"cxv", "sub", "cxa", "cxb", ""},
      {"ccx", "mul", "gcoef", "cxv", ""},
      {"cya", "mul", "dvz", "dx", ""},
      {"cyb", "mul", "dvx", "dz", ""},
      {"cyv", "sub", "cya", "cyb", ""},
      {"ccy", "mul", "gcoef", "cyv", ""},
      {"cza", "mul", "dvx", "dy", ""},
      {"czb", "mul", "dvy", "dx", ""},
      {"czv", "sub", "cza", "czb", ""},
      {"ccz", "mul", "gcoef", "czv", ""},
  };
  def.accum = {
      {"rho", "wm", '+'},
      {"div", "dsum", '-'},
      {"cx", "ccx", '-'},
      {"cy", "ccy", '-'},
      {"cz", "ccz", '-'},
  };
  def.flops_per_interaction = 73;
  return def;
}

KernelDef makeHydroForceKernel() {
  // Symmetrized-gradient SPH pair force over a pre-selected neighbour list
  // (r < max(H_i, H_j), never self): Monaghan (1992) viscosity with the
  // Balsara switch (balsara factors and P/rho^2 are per-particle quantities
  // staged by the caller), signal-velocity max-reduction for the CFL clock.
  KernelDef def;
  def.name = "hydro";
  def.prec = KernelDef::Prec::F64;
  def.epi = {"x", "y", "z", "vx", "vy", "vz", "hfull", "hh", "hinv", "hinv4",
             "prho2", "rho", "cs", "bal"};
  def.epj = {"x", "y", "z", "m", "vx", "vy", "vz", "hfull", "hh", "hinv",
             "hinv4", "prho2", "rho", "cs", "bal"};
  def.force = {"ax", "ay", "az", "du", "vsig"};
  def.tables = {{"dwtab", 0.0, 1.0, 16, 5}};
  def.uniforms = {"alpha", "beta"};
  def.body = {
      {"dx", "sub", "x_i", "x_j", ""},
      {"dy", "sub", "y_i", "y_j", ""},
      {"dz", "sub", "z_i", "z_j", ""},
      {"r2a", "mul", "dx", "dx", ""},
      {"r2b", "fma", "dy", "dy", "r2a"},
      {"r2", "fma", "dz", "dz", "r2b"},
      {"r", "sqrt", "r2", "", ""},
      {"rinv", "div", "1", "r", ""},
      // Symmetrized kernel gradient, each side cut at its own support.
      {"ui", "mul", "r", "hinv_i", ""},
      {"uj", "mul", "r", "hinv_j", ""},
      {"dwqi", "table", "dwtab", "ui", ""},
      {"dwqj", "table", "dwtab", "uj", ""},
      {"dwi0", "mul", "hinv4_i", "dwqi", ""},
      {"dwj0", "mul", "hinv4_j", "dwqj", ""},
      {"ini", "lt", "r", "hfull_i", ""},
      {"inj", "lt", "r", "hfull_j", ""},
      {"dwi", "select", "ini", "dwi0", "0"},
      {"dwj", "select", "inj", "dwj0", "0"},
      {"dwsum", "add", "dwi", "dwj", ""},
      {"dwh", "mul", "dwsum", "0.5", ""},
      {"gcoef", "mul", "dwh", "rinv", ""},  // gradW = gcoef * dr
      {"dvx", "sub", "vx_i", "vx_j", ""},
      {"dvy", "sub", "vy_i", "vy_j", ""},
      {"dvz", "sub", "vz_i", "vz_j", ""},
      {"vda", "mul", "dvx", "dx", ""},
      {"vdb", "fma", "dvy", "dy", "vda"},
      {"vdotr", "fma", "dvz", "dz", "vdb"},
      // Monaghan viscosity (approaching pairs only).
      {"hbar0", "add", "hh_i", "hh_j", ""},
      {"hbar", "mul", "hbar0", "0.5", ""},
      {"hb2", "mul", "hbar", "hbar", ""},
      {"vd0", "mul", "hb2", "0.01", ""},
      {"vdenom", "add", "r2", "vd0", ""},
      {"hv", "mul", "hbar", "vdotr", ""},
      {"mu", "div", "hv", "vdenom", ""},
      {"cbar0", "add", "cs_i", "cs_j", ""},
      {"cbar", "mul", "cbar0", "0.5", ""},
      {"rhobar0", "add", "rho_i", "rho_j", ""},
      {"rhobar", "mul", "rhobar0", "0.5", ""},
      {"balbar0", "add", "bal_i", "bal_j", ""},
      {"balbar", "mul", "balbar0", "0.5", ""},
      {"acm", "mul", "alpha", "cbar", ""},
      {"acmu", "mul", "acm", "mu", ""},
      {"bmu", "mul", "beta", "mu", ""},
      {"bmu2", "mul", "bmu", "mu", ""},
      {"vnum", "sub", "bmu2", "acmu", ""},
      {"vr", "div", "vnum", "rhobar", ""},
      {"visc0", "mul", "vr", "balbar", ""},
      {"neg", "lt", "vdotr", "0", ""},
      {"visc", "select", "neg", "visc0", "0"},
      {"mueff", "select", "neg", "mu", "0"},
      // Signal velocity: c_i + c_j (- 3 mu when approaching).
      {"cc", "add", "cs_i", "cs_j", ""},
      {"m3", "mul", "mueff", "3.0", ""},
      {"vs", "sub", "cc", "m3", ""},
      // Momentum and energy.
      {"psum0", "add", "prho2_i", "prho2_j", ""},
      {"pf", "add", "psum0", "visc", ""},
      {"mg", "mul", "m_j", "pf", ""},
      {"fc", "mul", "mg", "gcoef", ""},
      {"fx", "mul", "fc", "dx", ""},
      {"fy", "mul", "fc", "dy", ""},
      {"fz", "mul", "fc", "dz", ""},
      {"hv2", "mul", "visc", "0.5", ""},
      {"pe", "add", "prho2_i", "hv2", ""},
      {"dvg", "mul", "vdotr", "gcoef", ""},
      {"me", "mul", "m_j", "pe", ""},
      {"ut", "mul", "me", "dvg", ""},
  };
  def.accum = {
      {"ax", "fx", '-'},
      {"ay", "fy", '-'},
      {"az", "fz", '-'},
      {"du", "ut", '+'},
      {"vsig", "vs", 'x'},
  };
  def.flops_per_interaction = 101;
  return def;
}

void validate(const KernelDef& def) {
  if (def.name.empty()) throw std::invalid_argument("pikg: kernel needs a name");
  std::set<std::string> known;
  std::set<std::string> masks;
  std::set<std::string> tables;
  for (const auto& f : def.epi) known.insert(f + "_i");
  for (const auto& f : def.epj) known.insert(f + "_j");
  for (const auto& u : def.uniforms) known.insert(u);
  for (const auto& t : def.tables) {
    if (!(t.hi > t.lo) || t.subdomains <= 0 || t.degree < 0 || t.degree > 8) {
      throw std::invalid_argument("pikg: bad table spec " + t.name);
    }
    tables.insert(t.name);
  }
  auto check = [&](const std::string& operand, const Stmt& s, bool allow_mask) {
    if (operand.empty() || isLiteral(operand)) return;
    if (!known.count(operand)) {
      throw std::invalid_argument("pikg: undefined operand '" + operand + "' in stmt '" +
                                  s.dst + "'");
    }
    if (!allow_mask && masks.count(operand)) {
      throw std::invalid_argument("pikg: mask '" + operand + "' used as value in stmt '" +
                                  s.dst + "'");
    }
    if (allow_mask && !masks.count(operand)) {
      throw std::invalid_argument("pikg: '" + operand + "' is not a mask in stmt '" +
                                  s.dst + "'");
    }
  };
  for (const auto& s : def.body) {
    if (s.op == "const") {
      // literal in a
    } else if (s.op == "add" || s.op == "sub" || s.op == "mul" || s.op == "div" ||
               s.op == "max" || s.op == "min" || s.op == "gt" || s.op == "lt") {
      check(s.a, s, false);
      check(s.b, s, false);
    } else if (s.op == "fma") {
      check(s.a, s, false);
      check(s.b, s, false);
      check(s.c, s, false);
    } else if (s.op == "rsqrt" || s.op == "sqrt") {
      check(s.a, s, false);
    } else if (s.op == "select") {
      check(s.a, s, true);
      if (s.a.empty() || isLiteral(s.a)) {
        throw std::invalid_argument("pikg: select needs a mask operand in '" + s.dst +
                                    "'");
      }
      check(s.b, s, false);
      check(s.c, s, false);
    } else if (s.op == "table" || s.op == "dtable") {
      if (!tables.count(s.a)) {
        throw std::invalid_argument("pikg: unknown table '" + s.a + "' in stmt '" +
                                    s.dst + "'");
      }
      check(s.b, s, false);
      if (s.b.empty() || isLiteral(s.b)) {
        throw std::invalid_argument("pikg: table op needs a variable operand in '" +
                                    s.dst + "'");
      }
    } else {
      throw std::invalid_argument("pikg: unknown op " + s.op);
    }
    if (known.count(s.dst)) {
      throw std::invalid_argument("pikg: SSA violation, '" + s.dst + "' redefined");
    }
    known.insert(s.dst);
    if (s.op == "gt" || s.op == "lt") masks.insert(s.dst);
  }
  std::set<std::string> force_fields(def.force.begin(), def.force.end());
  for (const auto& a : def.accum) {
    if (!force_fields.count(a.field)) {
      throw std::invalid_argument("pikg: accum into unknown force field " + a.field);
    }
    if (!known.count(a.var)) {
      throw std::invalid_argument("pikg: accum of undefined var " + a.var);
    }
    if (masks.count(a.var)) {
      throw std::invalid_argument("pikg: accum of mask " + a.var);
    }
    if (a.sign != '+' && a.sign != '-' && a.sign != 'x') {
      throw std::invalid_argument("pikg: bad sign");
    }
  }
}

// ===========================================================================
// Production SoA emitters (flat-pointer entry points, per-ISA TUs)
// ===========================================================================

namespace {

/// Per-(ISA, precision) SIMD vocabulary.
struct SoaSpec {
  Isa isa = Isa::Scalar;
  bool f64 = false;
  int width = 1;
  std::string reg;    ///< vector register type ("" for scalar)
  std::string mreg;   ///< mask type
  std::string p;      ///< intrinsic prefix
  std::string s;      ///< type suffix: "_ps" / "_pd"
};

SoaSpec soaSpec(Isa isa, bool f64) {
  SoaSpec sp;
  sp.isa = isa;
  sp.f64 = f64;
  switch (isa) {
    case Isa::Scalar:
      sp.width = 1;
      break;
    case Isa::Avx2:
      sp.width = f64 ? 4 : 8;
      sp.reg = f64 ? "__m256d" : "__m256";
      sp.mreg = sp.reg;
      sp.p = "_mm256_";
      sp.s = f64 ? "_pd" : "_ps";
      break;
    case Isa::Avx512:
      sp.width = f64 ? 8 : 16;
      sp.reg = f64 ? "__m512d" : "__m512";
      sp.mreg = f64 ? "__mmask8" : "__mmask16";
      sp.p = "_mm512_";
      sp.s = f64 ? "_pd" : "_ps";
      break;
    default:
      throw std::invalid_argument("pikg: cannot generate code for Isa::Auto");
  }
  return sp;
}

std::string isaSuffix(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
    default: throw std::invalid_argument("pikg: cannot generate code for Isa::Auto");
  }
}

const TableSpec& findTable(const KernelDef& def, const std::string& name) {
  for (const auto& t : def.tables) {
    if (t.name == name) return t;
  }
  throw std::invalid_argument("pikg: unknown table " + name);
}

/// Parameter list shared by declaration and definition. Order: ni, epi
/// pointers, nj, epj pointers, table pointers, uniforms, force accumulators.
std::string soaParamList(const KernelDef& def, bool with_names) {
  const std::string T = def.prec == KernelDef::Prec::F64 ? "double" : "float";
  const std::string A =
      (def.prec == KernelDef::Prec::F64 || def.f64_accum) ? "double" : "float";
  std::ostringstream os;
  auto param = [&](const std::string& type, const std::string& name, bool first = false) {
    if (!first) os << ", ";
    os << type;
    if (with_names) os << " " << name;
  };
  param("int", "ni", true);
  for (const auto& f : def.epi) param("const " + T + "*", "pi_" + f);
  param("int", "nj");
  for (const auto& f : def.epj) param("const " + T + "*", "pj_" + f);
  for (const auto& t : def.tables) param("const " + T + "*", "tb_" + t.name);
  for (const auto& u : def.uniforms) param(T, "u_" + u);
  for (const auto& f : def.force) param(A + "*", "pf_" + f);
  return os.str();
}

/// Table lookups are emitted as a shared prelude per (table, operand) pair —
/// subdomain index, normalized local coordinate, and one coefficient
/// load/gather per polynomial order — cached so that a `table` and a
/// `dtable` on the same input (the density kernel's W and dW) pay for the
/// index math and the gathers once. Variable prefix for the cached temps:
std::string tablePrefix(const std::string& table, const std::string& x) {
  return "tl_" + table + "_" + x;
}

/// Scalar prelude (index + coefficient pointer), matching
/// PiecewisePolynomial::eval for in-domain inputs (out-of-domain indices are
/// clamped; callers mask out-of-support contributions explicitly).
void emitScalarTablePrelude(const TableSpec& t, const std::string& x,
                            const std::string& T, std::ostringstream& os,
                            const std::string& indent) {
  const double inv_d = t.subdomains / (t.hi - t.lo);
  const int nc = t.degree + 1;
  const std::string p = tablePrefix(t.name, x);
  os << indent << "const " << T << " " << p << "_rel = (" << x << " - " << T << "("
     << hexDouble(t.lo) << ")) * " << T << "(" << hexDouble(inv_d) << ");\n";
  os << indent << "const int " << p << "_kr = static_cast<int>(" << p << "_rel);\n";
  os << indent << "const int " << p << "_k = " << p << "_kr < 0 ? 0 : (" << p
     << "_kr > " << (t.subdomains - 1) << " ? " << (t.subdomains - 1) << " : " << p
     << "_kr);\n";
  os << indent << "const " << T << " " << p << "_s = " << p << "_rel - static_cast<"
     << T << ">(" << p << "_k);\n";
  os << indent << "const " << T << "* " << p << "_c = tb_" << t.name << " + " << p
     << "_k * " << nc << ";\n";
}

/// Horner chain over the prelude's coefficients; `deriv` evaluates the
/// polynomial's derivative (times the domain scale), exact for the
/// polynomial-exact production fits.
std::string scalarTableHorner(const TableSpec& t, const std::string& x,
                              const std::string& T, bool deriv) {
  const double inv_d = t.subdomains / (t.hi - t.lo);
  const std::string p = tablePrefix(t.name, x);
  std::string e;
  if (!deriv) {
    e = p + "_c[" + std::to_string(t.degree) + "]";
    for (int l = t.degree - 1; l >= 0; --l) {
      e = "(" + e + " * " + p + "_s + " + p + "_c[" + std::to_string(l) + "])";
    }
    return e;
  }
  e = T + "(" + hexDouble(t.degree) + ") * " + p + "_c[" + std::to_string(t.degree) +
      "]";
  for (int l = t.degree - 1; l >= 1; --l) {
    e = "(" + e + " * " + p + "_s + " + T + "(" + hexDouble(l) + ") * " + p + "_c[" +
        std::to_string(l) + "])";
  }
  return "(" + e + ") * " + T + "(" + hexDouble(inv_d) + ")";
}

/// SIMD prelude: index arithmetic in 32-bit lanes, one gather per polynomial
/// order (§3.5 — "a table lookup function, which enables SIMD registers to
/// accommodate table coefficients").
void emitSimdTablePrelude(const TableSpec& t, const std::string& x, const SoaSpec& sp,
                          std::ostringstream& os, const std::string& indent) {
  if (!sp.f64) {
    throw std::invalid_argument("pikg: SIMD table op is emitted for f64 kernels only");
  }
  const double inv_d = t.subdomains / (t.hi - t.lo);
  const int nc = t.degree + 1;
  const std::string p = tablePrefix(t.name, x);
  const bool w512 = sp.isa == Isa::Avx512;
  const std::string ireg = w512 ? "__m256i" : "__m128i";
  const std::string ip = w512 ? "_mm256_" : "_mm_";
  auto set1 = [&](double v) { return sp.p + "set1_pd(" + hexDouble(v) + ")"; };
  auto iset1 = [&](int v) { return ip + "set1_epi32(" + std::to_string(v) + ")"; };
  auto gather = [&](const std::string& idx) {
    if (w512) return "_mm512_i32gather_pd(" + idx + ", tb_" + t.name + ", 8)";
    return "_mm256_i32gather_pd(tb_" + t.name + ", " + idx + ", 8)";
  };
  os << indent << "const " << sp.reg << " " << p << "_rel = " << sp.p << "mul_pd("
     << sp.p << "sub_pd(" << x << ", " << set1(t.lo) << "), " << set1(inv_d) << ");\n";
  os << indent << ireg << " " << p << "_kr = " << sp.p << "cvttpd_epi32(" << p
     << "_rel);\n";
  os << indent << p << "_kr = " << ip << "min_epi32(" << ip << "max_epi32(" << p
     << "_kr, " << ip << (w512 ? "setzero_si256()" : "setzero_si128()") << "), "
     << iset1(t.subdomains - 1) << ");\n";
  os << indent << "const " << sp.reg << " " << p << "_s = " << sp.p << "sub_pd(" << p
     << "_rel, " << sp.p << "cvtepi32_pd(" << p << "_kr));\n";
  os << indent << "const " << ireg << " " << p << "_kb = " << ip << "mullo_epi32(" << p
     << "_kr, " << iset1(nc) << ");\n";
  for (int l = 0; l <= t.degree; ++l) {
    os << indent << "const " << sp.reg << " " << p << "_c" << l << " = "
       << gather(ip + "add_epi32(" + p + "_kb, " + iset1(l) + ")") << ";\n";
  }
}

std::string simdTableHorner(const TableSpec& t, const std::string& x, const SoaSpec& sp,
                            bool deriv) {
  const double inv_d = t.subdomains / (t.hi - t.lo);
  const std::string p = tablePrefix(t.name, x);
  auto set1 = [&](double v) { return sp.p + "set1_pd(" + hexDouble(v) + ")"; };
  std::string e;
  if (!deriv) {
    e = p + "_c" + std::to_string(t.degree);
    for (int l = t.degree - 1; l >= 0; --l) {
      e = sp.p + "fmadd_pd(" + e + ", " + p + "_s, " + p + "_c" + std::to_string(l) +
          ")";
    }
    return e;
  }
  e = sp.p + "mul_pd(" + p + "_c" + std::to_string(t.degree) + ", " +
      set1(static_cast<double>(t.degree)) + ")";
  for (int l = t.degree - 1; l >= 1; --l) {
    e = sp.p + "fmadd_pd(" + e + ", " + p + "_s, " + sp.p + "mul_pd(" + p + "_c" +
        std::to_string(l) + ", " + set1(static_cast<double>(l)) + "))";
  }
  return sp.p + "mul_pd(" + e + ", " + set1(inv_d) + ")";
}

/// Emit the per-pair body in scalar form (used by the scalar backend and by
/// the SIMD backends' remainder loop). Mask variables become bools.
void emitScalarBody(const KernelDef& def, std::ostringstream& os,
                    const std::string& indent) {
  const bool f64 = def.prec == KernelDef::Prec::F64;
  const std::string T = f64 ? "double" : "float";
  std::set<std::string> table_preludes;
  auto ref = [&](const std::string& v) {
    return isLiteral(v) ? scalarLiteral(v, f64) : v;
  };
  for (const auto& s : def.body) {
    if (s.op == "table" || s.op == "dtable") {
      const TableSpec& t = findTable(def, s.a);
      const std::string key = tablePrefix(t.name, s.b);
      if (table_preludes.insert(key).second) {
        emitScalarTablePrelude(t, s.b, T, os, indent);
      }
    }
    const bool is_mask = s.op == "gt" || s.op == "lt";
    os << indent << "const " << (is_mask ? "bool" : T) << " " << s.dst << " = ";
    if (s.op == "const") {
      os << scalarLiteral(s.a, f64);
    } else if (s.op == "add") {
      os << ref(s.a) << " + " << ref(s.b);
    } else if (s.op == "sub") {
      os << ref(s.a) << " - " << ref(s.b);
    } else if (s.op == "mul") {
      os << ref(s.a) << " * " << ref(s.b);
    } else if (s.op == "div") {
      os << ref(s.a) << " / " << ref(s.b);
    } else if (s.op == "fma") {
      os << ref(s.a) << " * " << ref(s.b) << " + " << ref(s.c);
    } else if (s.op == "sqrt") {
      os << "std::sqrt(" << ref(s.a) << ")";
    } else if (s.op == "rsqrt") {
      os << (f64 ? "1.0" : "1.0f") << " / std::sqrt(" << ref(s.a) << ")";
    } else if (s.op == "max") {
      os << "std::max(" << ref(s.a) << ", " << ref(s.b) << ")";
    } else if (s.op == "min") {
      os << "std::min(" << ref(s.a) << ", " << ref(s.b) << ")";
    } else if (s.op == "gt") {
      os << ref(s.a) << " > " << ref(s.b);
    } else if (s.op == "lt") {
      os << ref(s.a) << " < " << ref(s.b);
    } else if (s.op == "select") {
      os << s.a << " ? " << ref(s.b) << " : " << ref(s.c);
    } else if (s.op == "table") {
      os << scalarTableHorner(findTable(def, s.a), s.b, T, false);
    } else if (s.op == "dtable") {
      os << scalarTableHorner(findTable(def, s.a), s.b, T, true);
    } else {
      throw std::invalid_argument("pikg: unknown op " + s.op);
    }
    os << ";\n";
  }
}

/// Emit the per-pair body in SIMD form.
void emitSimdBody(const KernelDef& def, const SoaSpec& sp, std::ostringstream& os,
                  const std::string& indent) {
  auto set1lit = [&](const std::string& v) {
    return sp.p + "set1" + sp.s + "(" + scalarLiteral(v, sp.f64) + ")";
  };
  auto ref = [&](const std::string& v) { return isLiteral(v) ? set1lit(v) : v; };
  auto op2 = [&](const std::string& name, const std::string& a, const std::string& b) {
    return sp.p + name + sp.s + "(" + ref(a) + ", " + ref(b) + ")";
  };
  std::set<std::string> table_preludes;
  for (const auto& s : def.body) {
    if (s.op == "table" || s.op == "dtable") {
      const TableSpec& t = findTable(def, s.a);
      const std::string key = tablePrefix(t.name, s.b);
      if (table_preludes.insert(key).second) {
        emitSimdTablePrelude(t, s.b, sp, os, indent);
      }
    }
    const bool is_mask = s.op == "gt" || s.op == "lt";
    os << indent << "const " << (is_mask ? sp.mreg : sp.reg) << " " << s.dst << " = ";
    if (s.op == "const") {
      os << set1lit(s.a);
    } else if (s.op == "add" || s.op == "sub" || s.op == "mul" || s.op == "div" ||
               s.op == "max" || s.op == "min") {
      os << op2(s.op, s.a, s.b);
    } else if (s.op == "fma") {
      os << sp.p << "fmadd" << sp.s << "(" << ref(s.a) << ", " << ref(s.b) << ", "
         << ref(s.c) << ")";
    } else if (s.op == "sqrt") {
      os << sp.p << "sqrt" << sp.s << "(" << ref(s.a) << ")";
    } else if (s.op == "rsqrt") {
      if (sp.f64) {
        // No usable double-precision hardware approximation below AVX-512ER;
        // a full-precision divide keeps the f64 kernels exact.
        os << sp.p << "div_pd(" << sp.p << "set1_pd(0x1p+0), " << sp.p << "sqrt_pd("
           << ref(s.a) << "))";
      } else {
        const std::string raw = sp.isa == Isa::Avx512
                                    ? sp.p + "rsqrt14_ps(" + ref(s.a) + ")"
                                    : sp.p + "rsqrt_ps(" + ref(s.a) + ")";
        os << emitNrRsqrt(raw, ref(s.a), sp.p, sp.reg, "_ps");
      }
    } else if (s.op == "gt" || s.op == "lt") {
      const std::string cmp = s.op == "gt" ? "_CMP_GT_OQ" : "_CMP_LT_OQ";
      if (sp.isa == Isa::Avx512) {
        os << sp.p << "cmp" << sp.s << "_mask(" << ref(s.a) << ", " << ref(s.b) << ", "
           << cmp << ")";
      } else {
        os << sp.p << "cmp" << sp.s << "(" << ref(s.a) << ", " << ref(s.b) << ", " << cmp
           << ")";
      }
    } else if (s.op == "select") {
      if (sp.isa == Isa::Avx512) {
        os << sp.p << "mask_blend" << sp.s << "(" << s.a << ", " << ref(s.c) << ", "
           << ref(s.b) << ")";
      } else {
        os << sp.p << "blendv" << sp.s << "(" << ref(s.c) << ", " << ref(s.b) << ", "
           << s.a << ")";
      }
    } else if (s.op == "table") {
      os << simdTableHorner(findTable(def, s.a), s.b, sp, false);
    } else if (s.op == "dtable") {
      os << simdTableHorner(findTable(def, s.a), s.b, sp, true);
    } else {
      throw std::invalid_argument("pikg: unknown op " + s.op);
    }
    os << ";\n";
  }
}

}  // namespace

std::string generateSoaDeclaration(const KernelDef& def, Isa isa) {
  std::ostringstream os;
  os << "void " << def.name << "_" << isaSuffix(isa) << "(" << soaParamList(def, true)
     << ");\n";
  return os.str();
}

std::string generateSoaKernel(const KernelDef& def, Isa isa) {
  validate(def);
  const SoaSpec sp = soaSpec(isa, def.prec == KernelDef::Prec::F64);
  const bool f64 = sp.f64;
  const std::string T = f64 ? "double" : "float";
  const std::string A = (f64 || def.f64_accum) ? "double" : "float";
  std::ostringstream os;

  os << "void " << def.name << "_" << isaSuffix(isa) << "(" << soaParamList(def, true)
     << ") {\n";
  os << "  for (int i = 0; i < ni; ++i) {\n";
  // Per-target scalar accumulators (SIMD lanes reduce into these before the
  // remainder loop adds its tail contributions).
  for (const auto& a : def.accum) {
    if (a.sign == 'x') {
      os << "    " << A << " red_" << a.field << " = -std::numeric_limits<" << A
         << ">::infinity();\n";
    } else {
      os << "    " << A << " red_" << a.field << " = 0;\n";
    }
  }
  os << "    int j = 0;\n";

  if (isa != Isa::Scalar) {
    os << "    {\n";
    // Broadcast targets and uniforms once per i.
    for (const auto& f : def.epi) {
      os << "      const " << sp.reg << " " << f << "_i = " << sp.p << "set1" << sp.s
         << "(pi_" << f << "[i]);\n";
    }
    for (const auto& u : def.uniforms) {
      os << "      const " << sp.reg << " " << u << " = " << sp.p << "set1" << sp.s
         << "(u_" << u << ");\n";
    }
    for (const auto& a : def.accum) {
      if (a.sign == 'x') {
        os << "      " << sp.reg << " vacc_" << a.field << " = " << sp.p << "set1"
           << sp.s << "(-std::numeric_limits<" << T << ">::infinity());\n";
      } else {
        os << "      " << sp.reg << " vacc_" << a.field << " = " << sp.p << "setzero"
           << sp.s << "();\n";
      }
    }
    os << "      for (; j + " << sp.width << " <= nj; j += " << sp.width << ") {\n";
    for (const auto& f : def.epj) {
      os << "        const " << sp.reg << " " << f << "_j = " << sp.p << "loadu" << sp.s
         << "(pj_" << f << " + j);\n";
    }
    emitSimdBody(def, sp, os, "        ");
    for (const auto& a : def.accum) {
      const char* op = a.sign == '+' ? "add" : (a.sign == '-' ? "sub" : "max");
      os << "        vacc_" << a.field << " = " << sp.p << op << sp.s << "(vacc_"
         << a.field << ", " << a.var << ");\n";
    }
    os << "      }\n";
    // Lane reduction (fixed lane order: deterministic for a given binary).
    os << "      alignas(64) " << T << " lane[" << sp.width << "];\n";
    for (const auto& a : def.accum) {
      os << "      " << sp.p << "storeu" << sp.s << "(lane, vacc_" << a.field << ");\n";
      if (a.sign == 'x') {
        os << "      for (int l = 0; l < " << sp.width << "; ++l) red_" << a.field
           << " = std::max(red_" << a.field << ", static_cast<" << A << ">(lane[l]));\n";
      } else {
        os << "      for (int l = 0; l < " << sp.width << "; ++l) red_" << a.field
           << " += static_cast<" << A << ">(lane[l]);\n";
      }
    }
    os << "    }\n";
  }

  // Scalar loop: the whole kernel for Isa::Scalar, the remainder otherwise.
  os << "    for (; j < nj; ++j) {\n";
  for (const auto& f : def.epi) {
    os << "      const " << T << " " << f << "_i = pi_" << f << "[i];\n";
  }
  for (const auto& u : def.uniforms) {
    os << "      const " << T << " " << u << " = u_" << u << ";\n";
  }
  for (const auto& f : def.epj) {
    os << "      const " << T << " " << f << "_j = pj_" << f << "[j];\n";
  }
  emitScalarBody(def, os, "      ");
  for (const auto& a : def.accum) {
    if (a.sign == 'x') {
      os << "      red_" << a.field << " = std::max(red_" << a.field << ", static_cast<"
         << A << ">(" << a.var << "));\n";
    } else {
      os << "      red_" << a.field << " " << a.sign << "= static_cast<" << A << ">("
         << a.var << ");\n";
    }
  }
  os << "    }\n";

  for (const auto& a : def.accum) {
    if (a.sign == 'x') {
      os << "    pf_" << a.field << "[i] = std::max(pf_" << a.field << "[i], red_"
         << a.field << ");\n";
    } else {
      os << "    pf_" << a.field << "[i] += red_" << a.field << ";\n";
    }
  }
  os << "  }\n";
  os << "}\n";
  return os.str();
}

// ===========================================================================
// Build-time file set
// ===========================================================================

namespace {

std::string emitTableArray(const std::string& name, const PiecewisePolynomial& p) {
  std::ostringstream os;
  const auto& c = p.tableF64();
  os << "inline constexpr double " << name << "[" << c.size() << "] = {\n";
  for (std::size_t i = 0; i < c.size(); ++i) {
    os << "    " << hexDouble(c[i]) << ",\n";
  }
  os << "};\n";
  return os.str();
}

std::string fnAlias(const KernelDef& def) {
  return capitalize(def.name) + "Fn";
}

std::string productionHeader(const std::vector<KernelDef>& defs) {
  // The fitted SPH W/dW tables: wbar(u) = W(u, 1) and dwbar(u) = dW/dr(u, 1)
  // on u = r/H in [0, 1); every kernel obeys the scale identity
  // W(r, H) = wbar(r/H)/H^3, dW/dr(r, H) = dwbar(r/H)/H^4. With 16
  // subdomains the cubic spline's knot (q = 1 at u = 1/2) lands on a
  // subdomain boundary and degree 5 covers every local polynomial degree,
  // so the tables are exact to solve rounding for both kernel shapes.
  const auto wcs = PiecewisePolynomial::fit(
      [](double u) { return sph::CubicSplineKernel::w(u, 1.0); }, 0.0, 1.0, 16, 5);
  const auto dcs = PiecewisePolynomial::fit(
      [](double u) { return sph::CubicSplineKernel::dwdr(u, 1.0); }, 0.0, 1.0, 16, 5);
  const auto wwc = PiecewisePolynomial::fit(
      [](double u) { return sph::WendlandC2Kernel::w(u, 1.0); }, 0.0, 1.0, 16, 5);
  const auto dwc = PiecewisePolynomial::fit(
      [](double u) { return sph::WendlandC2Kernel::dwdr(u, 1.0); }, 0.0, 1.0, 16, 5);

  std::ostringstream os;
  os << "// Generated by pikg_gen — do not edit.\n";
  os << "// Production PIKG kernels: flat-SoA entry points, one TU per ISA\n";
  os << "// (pikg_kernels_{scalar,avx2,avx512}.cpp), dispatched at runtime by\n";
  os << "// kernels/registry.hpp.\n";
  os << "#pragma once\n\n";
  os << "namespace asura::pikg::gen {\n\n";
  os << "inline constexpr int kSphTableSubdomains = 16;\n";
  os << "inline constexpr int kSphTableDegree = 5;\n\n";
  os << emitTableArray("kCubicSplineW", wcs) << "\n";
  os << emitTableArray("kCubicSplineDw", dcs) << "\n";
  os << emitTableArray("kWendlandC2W", wwc) << "\n";
  os << emitTableArray("kWendlandC2Dw", dwc) << "\n";
  os << "struct SphKernelTables {\n  const double* w;\n  const double* dw;\n};\n\n";
  os << "/// kernel_type: 0 = cubic spline (support H = 2h), 1 = Wendland C2.\n";
  os << "inline SphKernelTables sphTables(int kernel_type) {\n";
  os << "  return kernel_type == 1 ? SphKernelTables{kWendlandC2W, kWendlandC2Dw}\n";
  os << "                          : SphKernelTables{kCubicSplineW, kCubicSplineDw};\n";
  os << "}\n\n";
  os << "/// True when the TU was compiled with real AVX2/AVX-512 intrinsics\n";
  os << "/// (false: the symbols exist but forward to the scalar backend).\n";
  os << "bool avx2Compiled();\n";
  os << "bool avx512Compiled();\n\n";
  for (const auto& def : defs) {
    os << "// " << def.name << ": " << def.flops_per_interaction
       << " flops per interaction (Table 4 convention)\n";
    for (const Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
      os << generateSoaDeclaration(def, isa);
    }
    os << "using " << fnAlias(def) << " = void (*)(" << soaParamList(def, false)
       << ");\n\n";
  }
  os << "}  // namespace asura::pikg::gen\n";
  return os.str();
}

std::string productionTu(const std::vector<KernelDef>& defs, Isa isa) {
  std::ostringstream os;
  os << "// Generated by pikg_gen — do not edit.\n";
  os << "#include \"pikg_kernels.hpp\"\n\n";
  os << "#include <algorithm>\n#include <cmath>\n#include <limits>\n\n";
  const std::string suffix = isaSuffix(isa);
  if (isa == Isa::Scalar) {
    os << "namespace asura::pikg::gen {\n\n";
    for (const auto& def : defs) os << generateSoaKernel(def, isa) << "\n";
    os << "}  // namespace asura::pikg::gen\n";
    return os.str();
  }
  const std::string guard = isa == Isa::Avx512
                                ? "defined(__AVX512F__)"
                                : "defined(__AVX2__) && defined(__FMA__)";
  os << "#if " << guard << "\n";
  os << "#include <immintrin.h>\n\n";
  os << "namespace asura::pikg::gen {\n\n";
  os << "bool " << suffix << "Compiled() { return true; }\n\n";
  for (const auto& def : defs) os << generateSoaKernel(def, isa) << "\n";
  os << "}  // namespace asura::pikg::gen\n";
  os << "#else  // toolchain lacks " << suffix << ": forward to the scalar backend\n";
  os << "namespace asura::pikg::gen {\n\n";
  os << "bool " << suffix << "Compiled() { return false; }\n\n";
  for (const auto& def : defs) {
    os << "void " << def.name << "_" << suffix << "(" << soaParamList(def, true)
       << ") {\n  " << def.name << "_scalar(ni";
    for (const auto& f : def.epi) os << ", pi_" << f;
    os << ", nj";
    for (const auto& f : def.epj) os << ", pj_" << f;
    for (const auto& t : def.tables) os << ", tb_" << t.name;
    for (const auto& u : def.uniforms) os << ", u_" << u;
    for (const auto& f : def.force) os << ", pf_" << f;
    os << ");\n}\n\n";
  }
  os << "}  // namespace asura::pikg::gen\n";
  os << "#endif\n";
  return os.str();
}

}  // namespace

std::vector<GeneratedFile> generateProductionFiles() {
  const std::vector<KernelDef> defs = {makeGravityProductionKernel(), makeDensityKernel(),
                                       makeHydroForceKernel()};
  std::vector<GeneratedFile> files;
  files.push_back({"pikg_kernels.hpp", productionHeader(defs)});
  files.push_back({"pikg_kernels_scalar.cpp", productionTu(defs, Isa::Scalar)});
  files.push_back({"pikg_kernels_avx2.cpp", productionTu(defs, Isa::Avx2)});
  files.push_back({"pikg_kernels_avx512.cpp", productionTu(defs, Isa::Avx512)});
  return files;
}

}  // namespace asura::pikg
