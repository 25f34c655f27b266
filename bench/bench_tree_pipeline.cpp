// Once-per-pass tree pipeline benchmark: the radix-sorted parallel tree
// build, Morton target grouping, gravity on octree-cell groups against
// direct summation (interactions per target and force-error counters per
// group_size), the SPH neighbour search on cell vs h-aware gas groups
// (prefilter candidates per interaction reported as counters), and the
// end-to-end Simulation::step with the StepContext cache (tree-build
// counter reported alongside). The seed's std::sort build and comparator
// grouping rows are kept as numbers in BENCH_tree_pipeline.json.
//
// Machine-readable output for the perf trajectory:
//   bench_tree_pipeline --benchmark_format=json > BENCH_tree_pipeline.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/simulation.hpp"
#include "fdps/context.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "../tests/ic_fixtures.hpp"
#include "util/rng.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::SourceTree;
using asura::fdps::Species;
using asura::util::Pcg32;
using asura::util::Vec3d;

std::vector<Particle> randomParticles(int n, std::uint64_t seed, double box = 100.0) {
  Pcg32 rng(seed);
  std::vector<Particle> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& p = parts[static_cast<std::size_t>(i)];
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.mass = rng.uniform(0.5, 1.5);
    p.pos = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
    p.eps = 0.1;
    p.h = 3.0;
    p.u = 50.0;
    p.type = (i % 3 == 0) ? Species::Gas : Species::DarkMatter;
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Tree build
// ---------------------------------------------------------------------------

// Rows on both sides of kRadixSerialBelow (2^15): the serial 11-bit sort
// below it, the OpenMP 13-bit passes from it on.
void BM_TreeBuildRadix(benchmark::State& state) {
  const auto entries =
      asura::fdps::makeSourceEntries(randomParticles(static_cast<int>(state.range(0)), 42));
  SourceTree tree;
  for (auto _ : state) {
    auto copy = entries;
    tree.build(std::move(copy), 16);
    benchmark::DoNotOptimize(tree.nodes().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuildRadix)
    ->Arg(10000)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(100000)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Target grouping
// ---------------------------------------------------------------------------

void BM_TargetGroupsRadix(benchmark::State& state) {
  const auto parts = randomParticles(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    auto groups = asura::fdps::makeTargetGroups(parts, 64);
    benchmark::DoNotOptimize(groups.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TargetGroupsRadix)->Arg(100000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Walk + kernel (per force evaluation), fresh build vs cached context
// ---------------------------------------------------------------------------

void BM_GravityFreshBuildPerCall(benchmark::State& state) {
  auto parts = randomParticles(static_cast<int>(state.range(0)), 3);
  asura::gravity::GravityParams gp;
  for (auto _ : state) {
    for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
    const auto stats = asura::gravity::accumulateTreeGravity(parts, {}, gp);
    benchmark::DoNotOptimize(stats.ep_interactions);
  }
}
BENCHMARK(BM_GravityFreshBuildPerCall)->Arg(30000)->Unit(benchmark::kMillisecond);

void BM_GravityCachedContext(benchmark::State& state) {
  auto parts = randomParticles(static_cast<int>(state.range(0)), 3);
  asura::gravity::GravityParams gp;
  asura::fdps::StepContext ctx;
  for (auto _ : state) {
    for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
    const auto stats = asura::gravity::accumulateTreeGravity(ctx, parts, {}, gp);
    benchmark::DoNotOptimize(stats.ep_interactions);
  }
  state.counters["tree_builds"] =
      static_cast<double>(ctx.totalBuilds());  // 1 expected across all iterations
}
BENCHMARK(BM_GravityCachedContext)->Arg(30000)->Unit(benchmark::kMillisecond);

/// One gravity force evaluation (tree build, cell-group cut, walk and
/// kernel, as a fresh force pass does) on the clumpy disc at the MW-mini
/// workload's theta = 0.6, for group_size = range(1). The counters give the
/// interactions each target costs and the relative force error against
/// direct summation (computed once, outside the timed loop).
void BM_GravityGroups(benchmark::State& state) {
  const auto initial = asura::testing::clumpyDisc(static_cast<int>(state.range(0)), 1);
  auto reference = initial;
  asura::gravity::accumulateDirect(reference, asura::fdps::makeSourceEntries(reference),
                                   asura::gravity::GravityParams{}.G);
  asura::gravity::GravityParams gp;
  gp.theta = 0.6;
  gp.group_size = static_cast<int>(state.range(1));
  auto parts = initial;
  asura::gravity::GravityStats stats;
  for (auto _ : state) {
    for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
    stats = asura::gravity::accumulateTreeGravity(parts, {}, gp);
    benchmark::DoNotOptimize(parts.data());
  }
  std::vector<double> err(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    err[i] = (parts[i].acc - reference[i].acc).norm() / reference[i].acc.norm();
  }
  std::sort(err.begin(), err.end());
  state.counters["int_per_target"] =
      static_cast<double>(stats.ep_interactions + stats.sp_interactions) /
      static_cast<double>(parts.size());
  state.counters["p50_err"] = err[err.size() / 2];
  state.counters["p99_err"] = err[err.size() * 99 / 100];
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GravityGroups)
    ->Args({8000, 64})
    ->Args({8000, 128})
    ->Args({8000, 256})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SPH neighbour search: cell groups vs h-aware gas groups
// ---------------------------------------------------------------------------

/// Heterogeneous gas: half the particles in eight dense clumps (H ~ 0.5),
/// half spread through a 100-unit box (H ~ 10) — the mix that makes plain
/// Morton runs straddle supports 20x apart.
std::vector<Particle> clumpyGas(int n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Particle> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& p = parts[static_cast<std::size_t>(i)];
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = Species::Gas;
    p.mass = 1.0;
    p.u = rng.uniform(0.5, 5.0);
    p.u_pred = p.u;
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
    if (i % 2 == 0) {
      const int c = (i / 2) % 8;
      const Vec3d centre{(c & 1) ? 25.0 : -25.0, (c & 2) ? 25.0 : -25.0,
                         (c & 4) ? 25.0 : -25.0};
      p.pos = centre + Vec3d{rng.normal(), rng.normal(), rng.normal()};
      p.h = 0.5;
    } else {
      p.pos = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
               rng.uniform(-50.0, 50.0)};
      p.h = 10.0;
    }
  }
  return parts;
}

/// One density + hydro evaluation over the gravity rule's cell groups of 64
/// (range(1) == 0) or over the h-aware gas groups (range(1) == 1). Outputs
/// are bitwise identical; the counters show how many prefilter candidates
/// each kept neighbour costs.
void BM_SphNeighbourSearch(benchmark::State& state) {
  const auto initial = clumpyGas(static_cast<int>(state.range(0)), 5);
  const bool h_aware = state.range(1) != 0;
  asura::sph::SphParams sp;
  std::vector<std::uint32_t> all(initial.size());
  std::iota(all.begin(), all.end(), 0u);
  asura::sph::DensityStats ds;
  asura::sph::ForceStats fs;
  for (auto _ : state) {
    state.PauseTiming();
    auto parts = initial;
    asura::fdps::StepContext ctx;
    const auto groups = h_aware ? asura::fdps::makeGasTargetGroups(parts, sp.group_size)
                                : asura::fdps::makeTargetGroups(parts, all, sp.group_size);
    state.ResumeTiming();
    ds = asura::sph::solveDensity(ctx, parts, sp, groups);
    fs = asura::sph::accumulateHydroForce(ctx, parts, sp, groups);
    benchmark::DoNotOptimize(parts.data());
  }
  state.counters["dens_cand_per_int"] =
      static_cast<double>(ds.candidates) / static_cast<double>(ds.interactions);
  state.counters["hydro_cand_per_int"] =
      static_cast<double>(fs.candidates) / static_cast<double>(fs.interactions);
  state.counters["hydro_int_per_target"] =
      static_cast<double>(fs.interactions) / static_cast<double>(initial.size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SphNeighbourSearch)
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// End-to-end Simulation::step with the once-per-pass pipeline
// ---------------------------------------------------------------------------

void BM_SimulationStep(benchmark::State& state) {
  auto parts = randomParticles(static_cast<int>(state.range(0)), 99, 50.0);
  asura::core::SimulationConfig cfg;
  cfg.use_surrogate = false;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = true;
  asura::core::Simulation sim(parts, cfg);
  sim.step();  // warm the pipeline
  int builds = 0;
  for (auto _ : state) {
    const auto stats = sim.step();
    builds = stats.tree_builds;
    benchmark::DoNotOptimize(stats.dt_used);
  }
  state.counters["tree_builds_per_step"] = builds;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationStep)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Banner goes to stderr so `--benchmark_format=json > BENCH_*.json`
  // captures a clean machine-readable stream on stdout.
  std::fprintf(stderr,
               "tree-pipeline benchmark — pass --benchmark_format=json for the\n"
               "machine-readable record (BENCH_*.json convention).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
