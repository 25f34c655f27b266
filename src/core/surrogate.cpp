#include "core/surrogate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <unordered_map>

#include "sph/kernels.hpp"
#include "util/omp.hpp"

namespace asura::core {

namespace {

/// splitmix64 finalizer: the standard bijective avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic per-job rng stream: a hash of the region's particle ids
/// and the SN position. Two pool workers never share generator state, and
/// the sampled particles are a pure function of the job — independent of
/// worker count, scheduling order, and how many jobs ran before.
std::uint64_t jobStream(const std::vector<Particle>& region, const Vec3d& sn_pos) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi digits: arbitrary nonzero
  for (const auto& p : region) h = mix64(h ^ p.id);
  h = mix64(h ^ std::bit_cast<std::uint64_t>(sn_pos.x));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(sn_pos.y));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(sn_pos.z));
  return h;
}

}  // namespace

std::string validatePrediction(const std::vector<Particle>& input,
                               const std::vector<Particle>& output) {
  if (output.size() != input.size()) {
    return "count mismatch: " + std::to_string(input.size()) + " in, " +
           std::to_string(output.size()) + " out";
  }
  // Id multiset + per-id bitwise mass (region ids are unique — capture
  // freezes a particle before it can join a second region — so a map by id
  // covers the multiset check).
  std::unordered_map<std::uint64_t, double> in_mass;
  in_mass.reserve(input.size());
  for (const auto& p : input) in_mass.emplace(p.id, p.mass);
  for (const auto& q : output) {
    const auto it = in_mass.find(q.id);
    if (it == in_mass.end()) {
      return "id " + std::to_string(q.id) + " not in the input region (or duplicated)";
    }
    if (std::bit_cast<std::uint64_t>(q.mass) !=
        std::bit_cast<std::uint64_t>(it->second)) {
      return "mass of id " + std::to_string(q.id) + " changed (" +
             std::to_string(it->second) + " -> " + std::to_string(q.mass) + ")";
    }
    in_mass.erase(it);  // catch duplicated output ids
    const bool finite = std::isfinite(q.pos.x) && std::isfinite(q.pos.y) &&
                        std::isfinite(q.pos.z) && std::isfinite(q.vel.x) &&
                        std::isfinite(q.vel.y) && std::isfinite(q.vel.z) &&
                        std::isfinite(q.u) && std::isfinite(q.rho) &&
                        std::isfinite(q.h);
    if (!finite) return "non-finite state on id " + std::to_string(q.id);
    if (!(q.u > 0.0)) return "non-positive u on id " + std::to_string(q.id);
    if (!(q.h > 0.0)) return "non-positive h on id " + std::to_string(q.id);
  }
  return {};
}

std::vector<Particle> UNetSurrogateBackend::predict(std::vector<Particle> region,
                                                    const Vec3d& sn_pos, double energy,
                                                    double horizon) {
  (void)energy;
  (void)horizon;
  if (region.empty()) return region;
  ml::InferenceModeScope inference;
  util::Pcg32 job_rng(seed_, jobStream(region, sn_pos));
  // Fig. 3 pipeline: particles -> 5-field voxel cube -> 8 log channels ->
  // U-Net -> decode -> Gibbs-sample particles (ids & masses preserved).
  const sph::Kernel kernel{};
  const auto grid =
      voxel::depositParticles(region, sn_pos, box_size_, vparams_, kernel);
  const auto channels = voxel::encodeGrid(grid, vparams_);
  // Residual parametrization: the network predicts the *change* of the
  // 8-channel state over the horizon, so an untrained net is the identity
  // and training concentrates capacity on the blast wave itself.
  auto predicted = net_.forward(channels);
  for (std::size_t i = 0; i < predicted.numel(); ++i) predicted[i] += channels[i];
  const auto out_grid = voxel::decodeGrid(predicted, box_size_, grid.origin, vparams_);
  return voxel::gridToParticles(out_grid, region, vparams_, job_rng);
}

std::vector<std::vector<Particle>> UNetSurrogateBackend::predictBatch(
    std::vector<SurrogateRequest> requests) {
  std::vector<std::vector<Particle>> out(requests.size());
  // Empty regions bypass the network entirely, exactly like predict()'s
  // early return — they must not occupy a batch slot (an all-zero cube
  // would still be voxel-decoded, changing nothing but wasting a forward).
  std::vector<std::size_t> live;
  live.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].region.empty()) {
      out[i] = std::move(requests[i].region);
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return out;

  ml::InferenceModeScope inference;
  const sph::Kernel kernel{};
  // Forwards run over chunks of at most the calling thread's OpenMP width:
  // a wider batch buys no parallelism the GEMM does not already have, but
  // holds activations for every region in it. A pool worker pinned to one
  // thread therefore runs one region per forward.
  const std::size_t chunk = static_cast<std::size_t>(std::max(1, util::ompMaxThreads()));
  for (std::size_t c0 = 0; c0 < live.size(); c0 += chunk) {
    const std::span<const std::size_t> ids(live.data() + c0, std::min(chunk, live.size() - c0));
    const int m = static_cast<int>(ids.size());

    // Stage 1: voxelize + encode each region (independent -> parallel).
    // Only a grid's origin outlives this stage (the decode needs it), and
    // each encoding only until it is stacked: the forward's peak memory
    // then holds one copy of the inputs beside the network's activations.
    std::vector<Vec3d> origins(ids.size());
    std::vector<ml::Tensor> enc(ids.size());
#pragma omp parallel for schedule(static)
    for (int j = 0; j < m; ++j) {
      const auto& rq = requests[ids[static_cast<std::size_t>(j)]];
      const voxel::VoxelGrid grid =
          voxel::depositParticles(rq.region, rq.sn_pos, box_size_, vparams_, kernel);
      origins[static_cast<std::size_t>(j)] = grid.origin;
      enc[static_cast<std::size_t>(j)] = voxel::encodeGrid(grid, vparams_);
    }

    // Stage 2: stack along the batch dimension, one network forward.
    const std::vector<int> s0 = enc[0].shape();  // (C, D, H, W)
    ml::Tensor x({m, s0[0], s0[1], s0[2], s0[3]});
    const std::size_t per = enc[0].numel();
    for (int j = 0; j < m; ++j) {
      std::copy(enc[static_cast<std::size_t>(j)].data(),
                enc[static_cast<std::size_t>(j)].data() + per,
                x.data() + static_cast<std::size_t>(j) * per);
      enc[static_cast<std::size_t>(j)] = ml::Tensor();
    }
    auto y = net_.forward(x);
    for (std::size_t i = 0; i < y.numel(); ++i) y[i] += x[i];  // residual

    // Stage 3: de-voxelize per region with each job's private rng stream —
    // the same (seed, jobStream) derivation as predict(), so the sampled
    // particles don't depend on who shared the batch.
#pragma omp parallel for schedule(static)
    for (int j = 0; j < m; ++j) {
      const std::size_t i = ids[static_cast<std::size_t>(j)];
      const auto& rq = requests[i];
      ml::Tensor slice({s0[0], s0[1], s0[2], s0[3]});
      std::copy(y.data() + static_cast<std::size_t>(j) * per,
                y.data() + static_cast<std::size_t>(j + 1) * per, slice.data());
      util::Pcg32 job_rng(seed_, jobStream(rq.region, rq.sn_pos));
      const auto out_grid = voxel::decodeGrid(slice, box_size_,
                                              origins[static_cast<std::size_t>(j)], vparams_);
      out[i] = voxel::gridToParticles(out_grid, rq.region, vparams_, job_rng);
    }
  }
  return out;
}

}  // namespace asura::core
