#pragma once
/// \file context.hpp
/// \brief Per-step tree/neighbour pipeline cache (the once-per-pass tree
/// pipeline).
///
/// The seed rebuilt a Morton tree up to six times per Simulation::step —
/// the gravity tree twice and the gas tree four times across the two force
/// passes — even though particle positions are frozen between the drift and
/// the end of the step. StepContext owns the trees, the Morton-sorted
/// target groups and the per-thread scratch arenas, so each force pass
/// builds each tree at most once and the second pass reuses the first
/// pass's trees outright when nothing moved. On a single rank, full-set
/// target groups are cut from their tree's Morton order, so each rebuild
/// costs one sort.
///
/// # Pipeline invariants (the contract every caller relies on)
///
/// **Cache validity.** A cached tree/group set is valid from the moment it
/// is built until `invalidate()` is called. Callers MUST invalidate when
/// any of the following change: particle *positions* (drift, surrogate
/// replacement), particle *species* (star formation converts gas), the
/// particle *count* (exchange, star formation), or the imported LET entry
/// set. Changes to thermodynamic state (u, rho, pres, cs, du_dt) and to
/// velocities do NOT require invalidation — trees store only pos/mass/eps/h.
///
/// **Smoothing lengths.** The density solve updates Particle::h; the cached
/// gas tree is brought up to date with `refreshGasSmoothing()` (entry h +
/// per-node max_h, an O(N + nodes) sweep) instead of a rebuild. The hydro
/// force pass therefore sees exactly the supports a fresh build would —
/// positions unchanged implies identical Morton order and topology.
///
/// **Mismatch guards.** As a belt-and-braces check, cached products also
/// remember the (count, leaf_size/group_size, n_local, LET size) they were
/// built from and rebuild automatically when a caller asks with different
/// parameters. This guards against count changes; *silent position
/// mutation cannot be detected* and is the caller's responsibility.
///
/// # Exchange cache (distributed steps)
///
/// On a multi-rank step the context additionally caches the *imported*
/// communication products: the gravity LET entry set (letImports) and the
/// hydro ghost list (ghostImports). Their validity contract is distinct
/// from the tree cache — a small drift does NOT invalidate them:
///
///  * **valid while** every rank's locals have drifted less than half the
///    exchange skin since the sets were built, the domain decomposition is
///    unchanged, no particle migrated ranks, no local count/species change
///    occurred, and no local gather support escaped the margin-inflated
///    reach the ghosts were exported with (the stale-reach rule);
///  * **invalidated by** a new decomposition, any owned-particle migration,
///    star formation / surrogate replacement, accumulated drift beyond
///    skin/2 on any rank, or a density solve growing some local h past the
///    exported reach. The *decision* to re-exchange is collective (an
///    allreduce over the per-rank dirty flags) so every rank re-enters the
///    exchange together — the cache only stores the data, flags and
///    counters; DistributedEngine owns the comm protocol.
///
/// `invalidate()` (the position/species/count tree invalidation) does NOT
/// clear the exchange cache: the whole point is that trees rebuild from
/// locals + the *cached* imports without re-walking exportLet or
/// re-selecting ghosts. letImportsUpdated()/ghostImportsUpdated() bump
/// epochs the gravity-tree guard keys on, so a same-size re-exchange can
/// never serve a stale tree.
///
/// **Scratch arenas.** `arena(tid)` hands each OpenMP thread a private
/// ThreadArena holding interaction-list and SoA staging buffers. Arenas are
/// grown on demand and never shrink, so steady-state force passes perform
/// no per-group allocation. A ThreadArena must only ever be touched by the
/// thread that owns the index — there is no internal locking.
///
/// **SPH payload.** `sphPayload()` holds the per-pass neighbour payload, one
/// SphPayload record per gas-tree entry in entry order. Each SPH pass
/// refills it before its group loop, so it is never stale across passes.
///
/// **Thread safety.** StepContext itself is NOT thread-safe: the accessor
/// methods (gravityTree, gasTree, …Groups, refreshGasSmoothing,
/// invalidate, beginStep) must be called from serial code (outside any
/// parallel region). The returned trees/groups are immutable during the
/// parallel force loops and may be read concurrently. One StepContext per
/// Simulation (or per thread of independent simulations).
///
/// **Observability.** Every tree build and refresh is counted
/// (buildsThisStep/totalBuilds, refreshesThisStep/totalRefreshes);
/// Simulation::step resets the per-step counts via beginStep() and exports
/// them through StepStats so tests can assert the 6-to-≤3 reduction.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fdps/particle.hpp"
#include "fdps/tree.hpp"

namespace asura::fdps {

/// Per-thread scratch for tree walks and SoA-staged interaction kernels.
/// Owned by StepContext; indexed by omp_get_thread_num().
struct ThreadArena {
  // Tree-walk outputs.
  std::vector<std::uint32_t> idx;  ///< EP indices / neighbour candidates
  std::vector<Monopole> sp;        ///< accepted multipoles

  // SoA source staging, single precision (mixed-precision gravity kernel).
  std::vector<float> fx, fy, fz, fm, fe2;
  // SoA source staging, double precision (F64 gravity, SPH candidates).
  std::vector<double> sx, sy, sz, sm, se2;

  // SPH candidate staging, filled once per group from the gas tree's SoA
  // mirror and the SphPayload: positions (sx/sy/sz), the support H for the
  // hydro sweep and the originating particle index for its self test.
  std::vector<double> qh;
  std::vector<std::uint32_t> qidx;
  // Per-target scratch of the SPH passes, sized to the candidate count plus
  // the selection kernels' store slack: the density pass's short list
  // (candidate slots within the search radius, `near`, with their squared
  // distances, `r2`) and the final survivor slots (`sel`).
  std::vector<std::uint32_t> near;
  std::vector<double> r2;
  std::vector<std::uint32_t> sel;

  /// Saitoh–Makino wake requests collected by the hydro force pass (packed
  /// neighbour<<32|target); merged serially after the parallel region so the
  /// published list is canonically ordered regardless of scheduling.
  std::vector<std::uint64_t> wake;

  // Target-side staging.
  std::vector<util::Vec3d> tpos, tacc;
  std::vector<double> teps, tpot;

  // Target-side staging for the PIKG mixed-F32 gravity kernel: group-centre-
  // relative positions in single precision, accumulator outputs in double
  // (the §4.3 mixed-precision reduction).
  std::vector<float> tx, ty, tz, te2;
  std::vector<double> tax, tay, taz, tpt;

  // Per-target packed neighbour lists, gathered from the SphPayload records
  // through the compacted `sel`, handed to the PIKG SPH kernels.
  std::vector<double> kx, ky, kz, km, kvx, kvy, kvz, khf, khh, khi, kh4, kp2,
      krho, kcs, kbal;
};

/// One gas entry's SPH neighbour payload: every j-quantity the density and
/// hydro kernels read, computed once per gas entry at the start of a pass
/// instead of once per (group, candidate) pair. StepContext::sphPayload()
/// holds one record per gas-tree entry, in entry order, so packing a
/// survivor touches its two cache lines (the first alone in the density
/// pass) instead of one line per field, and no kernel touches a ~272-byte
/// Particle or re-evaluates the EOS for a neighbour. Owned by the
/// StepContext — never a function-level static — so concurrently hosted
/// simulations each fill their own.
struct alignas(64) SphPayload {
  // Line 1 (both passes): kinematics and identity. Position and mass come
  // from the tree entry, velocity and rung from the originating particle.
  double x = 0.0, y = 0.0, z = 0.0, m = 0.0;
  double vx = 0.0, vy = 0.0, vz = 0.0;
  std::uint32_t idx = 0;  ///< originating index into the work array
  std::uint8_t rung = 0;
  // Line 2 (hydro only): support H and its derived forms, density, P/rho^2
  // and sound speed from the predicted u, and the Balsara switch.
  alignas(64) double h = 0.0;
  double hh = 0.0, hinv = 0.0, h4 = 0.0, rho = 0.0, p2 = 0.0, cs = 0.0, bal = 0.0;
};

static_assert(sizeof(SphPayload) == 128, "SphPayload must span exactly two cache lines");

class StepContext {
 public:
  StepContext();

  /// Reset the per-step counters (call once at the top of Simulation::step).
  void beginStep();

  /// Drop every cached tree/group: positions, species, counts or the LET
  /// import set changed.
  void invalidate();

  /// Gravity tree over all `particles` plus the imported LET entries.
  /// Builds lazily; returns the cached tree while valid.
  SourceTree& gravityTree(std::span<const Particle> particles,
                          std::span<const SourceEntry> let_entries, int leaf_size);

  /// Gas-only tree over the working array (locals + ghosts).
  SourceTree& gasTree(std::span<const Particle> work, int leaf_size);

  /// Gravity target groups over all `particles`, cut from the sorted
  /// entries of gravityTree(particles, let_entries, leaf_size) (built here
  /// if needed), so a rebuild costs one sort for the tree and its groups.
  /// With LET imports in the tree the targets are sorted on their own (see
  /// makeTargetGroups), so the groups always equal activeGravityGroups()
  /// over every particle. Valid until the tree rebuilds or positions change.
  const std::vector<TargetGroup>& gravityGroups(std::span<const Particle> particles,
                                                std::span<const SourceEntry> let_entries,
                                                int leaf_size, int group_size);

  /// h-homogeneous gas target groups over the local prefix, cut from the
  /// sorted entries of gasTree(work, leaf_size) (built here if needed) when
  /// the work array holds no ghosts; with ghosts the local gas is sorted on
  /// its own.
  const std::vector<TargetGroup>& gasGroups(std::span<const Particle> work,
                                            std::size_t n_local, int leaf_size,
                                            int group_size);

  /// Propagate updated Particle::h into the cached gas tree (entry h and
  /// node max_h) — an O(N + nodes) sweep instead of a rebuild.
  void refreshGasSmoothing(std::span<const Particle> work);

  /// Block-timestep drift support: propagate updated particle positions into
  /// the cached trees and recompute their moments in place (O(N + nodes))
  /// instead of invalidating. Topology and Morton order stay from the last
  /// build, so per-sub-step cost is a sweep, not a sort. The cached
  /// *full-set* target groups are invalidated (their bboxes went stale) and
  /// rebuilt lazily on next request; since the tree's order no longer
  /// matches the positions, that rebuild sorts the targets itself. The
  /// sub-step loop walks the per-call active groups below, whose bboxes
  /// are always current. A gravity tree holding LET imports cannot be
  /// position-refreshed (the import set has no local backing array) and is
  /// invalidated instead.
  void refreshGravityPositions(std::span<const Particle> particles);
  void refreshGasPositions(std::span<const Particle> work);

  /// Target groups over an explicit active subset (indices into the
  /// particle array), Morton-sorted by their current positions (the cached
  /// trees' order goes stale under the in-place refreshes), built into
  /// member storage to keep the allocation churn bounded; the reference is
  /// valid until the next call on the same slot. Gravity and gas actives
  /// use separate slots so one sub-step can hold both; the gas slot groups
  /// h-homogeneously like gasGroups(). The gas slot caches by subset *content*: the
  /// density and hydro-force passes of one sub-step call with the same
  /// active set and no intervening drift, so the second call is a hit.
  /// invalidate() and the position refreshes clear it (positions moved, so
  /// the bboxes went stale even for an identical subset).
  const std::vector<TargetGroup>& activeGravityGroups(
      std::span<const Particle> particles, std::span<const std::uint32_t> subset,
      int group_size);
  const std::vector<TargetGroup>& activeGasGroups(std::span<const Particle> work,
                                                  std::span<const std::uint32_t> subset,
                                                  int group_size);

  // --- distributed exchange cache -----------------------------------------
  // Storage, validity flags and counters for the imported LET entry set and
  // ghost list (see the "Exchange cache" invariants above). The comm
  // protocol that fills these lives in core::DistributedEngine; serial runs
  // never touch them.

  /// Imported gravity LET entries (remote monopoles + boundary particles).
  [[nodiscard]] std::vector<SourceEntry>& letImports() { return let_imports_; }
  /// Imported hydro ghosts in source-rank order. Canonical storage: the
  /// driver appends a copy to the working particle array between exchanges
  /// and moves the (drift-coasted) suffix back here when it detaches.
  [[nodiscard]] std::vector<Particle>& ghostImports() { return ghost_imports_; }

  [[nodiscard]] bool letValid() const { return let_valid_; }
  [[nodiscard]] bool ghostsValid() const { return ghosts_valid_; }
  /// Drop both imported sets (domain change, migration, count/species
  /// change, skin escape). Tree caches are NOT touched — callers decide.
  void invalidateExchange() { let_valid_ = false; ghosts_valid_ = false; }

  /// Record a completed LET exchange: `export_walks` exportLet tree walks
  /// were performed (P-1 for a flat exchange). Bumps the LET epoch so the
  /// cached gravity tree rebuilds over the new import set.
  void noteLetExchange(int export_walks) {
    let_valid_ = true;
    ++let_epoch_;
    let_exchanges_step_ += 1;
    let_walks_step_ += export_walks;
    ++let_exchanges_total_;
  }
  void noteLetReuse() { ++let_reuses_step_; }
  /// Record a completed full ghost exchange (selection scan + alltoall).
  void noteGhostExchange() {
    ghosts_valid_ = true;
    ghost_exchanges_step_ += 1;
    ++ghost_exchanges_total_;
  }
  /// Record a ghost *value* refresh: same ghost list, payloads re-shipped
  /// along the remembered export index lists (no selection, no reach
  /// allgather, no exportLet walk).
  void noteGhostValueRefresh() { ++ghost_refreshes_step_; }
  /// Record a LET *value* refresh: same entry set, values recomputed from
  /// live particles along the remembered walk structure (no exportLet walk).
  /// Counts as neither an exchange nor a reuse; bumps the LET epoch because
  /// the imported values changed under the cached gravity tree.
  void noteLetValueRefresh() {
    ++let_epoch_;
    ++let_refreshes_step_;
  }

  /// Checkpoint restore: install previously exchanged import sets with their
  /// validity flags, without counting an exchange (nothing was shipped). The
  /// LET epoch still bumps so a cached gravity tree can never serve the
  /// pre-restore import set.
  void restoreExchangeCache(std::vector<SourceEntry> let, std::vector<Particle> ghosts,
                            bool let_valid, bool ghosts_valid) {
    let_imports_ = std::move(let);
    ghost_imports_ = std::move(ghosts);
    let_valid_ = let_valid;
    ghosts_valid_ = ghosts_valid;
    ++let_epoch_;
  }
  void noteGhostReuse() { ++ghost_reuses_step_; }

  [[nodiscard]] int letExchangesThisStep() const { return let_exchanges_step_; }
  [[nodiscard]] int letExportWalksThisStep() const { return let_walks_step_; }
  [[nodiscard]] int letReusesThisStep() const { return let_reuses_step_; }
  [[nodiscard]] int ghostExchangesThisStep() const { return ghost_exchanges_step_; }
  [[nodiscard]] int ghostValueRefreshesThisStep() const { return ghost_refreshes_step_; }
  [[nodiscard]] int letValueRefreshesThisStep() const { return let_refreshes_step_; }
  [[nodiscard]] int ghostReusesThisStep() const { return ghost_reuses_step_; }
  [[nodiscard]] std::uint64_t letExchangesTotal() const { return let_exchanges_total_; }
  [[nodiscard]] std::uint64_t ghostExchangesTotal() const { return ghost_exchanges_total_; }

  /// Drop only the cached *active* target groups. The timestep limiter
  /// calls this after mid-step wakes change the next closing set: the
  /// content-keyed gas slot must never serve a pre-wake subset. In the
  /// current sub-step loop this is belt-and-braces — every drift already
  /// clears the slot through refreshGasPositions()/invalidate() before the
  /// next force pass — but the wake path owns the contract explicitly so a
  /// reordering of the loop (e.g. hoisting the refresh out of quiet
  /// sub-steps) cannot silently revive stale groups.
  void invalidateActiveGroups();

  [[nodiscard]] ThreadArena& arena(int tid) { return arenas_[static_cast<std::size_t>(tid)]; }
  [[nodiscard]] int numArenas() const { return static_cast<int>(arenas_.size()); }

  /// The SPH passes' j-payload, one record per gas-tree entry (filled by
  /// each pass's prologue, read-only inside its group loop).
  [[nodiscard]] std::vector<SphPayload>& sphPayload() { return sph_payload_; }

  /// Grow the arena pool to the current omp_get_max_threads(). Called from
  /// the serial prologue of every force pass so a later omp_set_num_threads
  /// increase cannot index past the pool built at construction time.
  void ensureArenas();

  [[nodiscard]] int buildsThisStep() const { return builds_step_; }
  [[nodiscard]] std::uint64_t totalBuilds() const { return builds_total_; }
  [[nodiscard]] int refreshesThisStep() const { return refreshes_step_; }
  [[nodiscard]] std::uint64_t totalRefreshes() const { return refreshes_total_; }

 private:
  SourceTree gravity_tree_, gas_tree_;
  std::vector<TargetGroup> gravity_groups_, gas_groups_;
  std::vector<TargetGroup> active_gravity_groups_, active_gas_groups_;
  std::vector<std::uint32_t> active_gas_subset_;  ///< content key of the gas slot
  bool active_gas_groups_valid_ = false;
  int active_gas_gs_ = 0;

  bool gravity_tree_valid_ = false, gas_tree_valid_ = false;
  bool gravity_groups_valid_ = false, gas_groups_valid_ = false;
  // Build-parameter fingerprints for the mismatch guard.
  std::size_t gravity_n_ = 0, gravity_let_n_ = 0, gas_n_ = 0;
  std::uint64_t gravity_let_epoch_ = 0;  ///< let_epoch_ the tree was built at
  std::size_t gas_grp_local_ = 0;
  int gravity_leaf_ = 0, gas_leaf_ = 0, gravity_gs_ = 0, gas_gs_ = 0;

  std::vector<ThreadArena> arenas_;
  std::vector<SphPayload> sph_payload_;

  int builds_step_ = 0, refreshes_step_ = 0;
  std::uint64_t builds_total_ = 0, refreshes_total_ = 0;

  // --- distributed exchange cache ---
  std::vector<SourceEntry> let_imports_;
  std::vector<Particle> ghost_imports_;
  bool let_valid_ = false, ghosts_valid_ = false;
  std::uint64_t let_epoch_ = 0;
  int let_exchanges_step_ = 0, let_walks_step_ = 0, let_reuses_step_ = 0;
  int let_refreshes_step_ = 0;
  int ghost_exchanges_step_ = 0, ghost_refreshes_step_ = 0, ghost_reuses_step_ = 0;
  std::uint64_t let_exchanges_total_ = 0, ghost_exchanges_total_ = 0;
};

}  // namespace asura::fdps
