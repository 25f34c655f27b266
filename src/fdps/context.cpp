#include "fdps/context.hpp"

#include <algorithm>

#include "util/omp.hpp"

namespace asura::fdps {

using util::ompMaxThreads;

StepContext::StepContext() : arenas_(static_cast<std::size_t>(ompMaxThreads())) {}

void StepContext::ensureArenas() {
  const auto want = static_cast<std::size_t>(std::max(1, ompMaxThreads()));
  if (arenas_.size() < want) arenas_.resize(want);
}

void StepContext::beginStep() {
  builds_step_ = 0;
  refreshes_step_ = 0;
  let_exchanges_step_ = 0;
  let_walks_step_ = 0;
  let_reuses_step_ = 0;
  let_refreshes_step_ = 0;
  ghost_exchanges_step_ = 0;
  ghost_refreshes_step_ = 0;
  ghost_reuses_step_ = 0;
}

void StepContext::invalidate() {
  gravity_tree_valid_ = false;
  gas_tree_valid_ = false;
  gravity_groups_valid_ = false;
  gas_groups_valid_ = false;
  active_gas_groups_valid_ = false;
}

void StepContext::invalidateActiveGroups() { active_gas_groups_valid_ = false; }

SourceTree& StepContext::gravityTree(std::span<const Particle> particles,
                                     std::span<const SourceEntry> let_entries,
                                     int leaf_size) {
  ensureArenas();
  if (!gravity_tree_valid_ || gravity_n_ != particles.size() ||
      gravity_let_n_ != let_entries.size() || gravity_leaf_ != leaf_size ||
      gravity_let_epoch_ != let_epoch_) {
    std::vector<SourceEntry> sources = makeSourceEntries(particles);
    sources.insert(sources.end(), let_entries.begin(), let_entries.end());
    gravity_tree_.build(std::move(sources), leaf_size);
    gravity_tree_valid_ = true;
    gravity_groups_valid_ = false;  // cut from the previous tree's order
    gravity_n_ = particles.size();
    gravity_let_n_ = let_entries.size();
    gravity_let_epoch_ = let_epoch_;
    gravity_leaf_ = leaf_size;
    ++builds_step_;
    ++builds_total_;
  }
  return gravity_tree_;
}

SourceTree& StepContext::gasTree(std::span<const Particle> work, int leaf_size) {
  ensureArenas();
  if (!gas_tree_valid_ || gas_n_ != work.size() || gas_leaf_ != leaf_size) {
    gas_tree_.build(makeSourceEntries(work, /*gas_only=*/true), leaf_size);
    gas_tree_valid_ = true;
    gas_groups_valid_ = false;  // cut from the previous tree's order
    gas_n_ = work.size();
    gas_leaf_ = leaf_size;
    ++builds_step_;
    ++builds_total_;
  }
  return gas_tree_;
}

const std::vector<TargetGroup>& StepContext::gravityGroups(
    std::span<const Particle> particles, std::span<const SourceEntry> let_entries,
    int leaf_size, int group_size) {
  const SourceTree& tree = gravityTree(particles, let_entries, leaf_size);
  if (!gravity_groups_valid_ || gravity_gs_ != group_size) {
    gravity_groups_ = makeTargetGroups(tree, particles, group_size);
    gravity_groups_valid_ = true;
    gravity_gs_ = group_size;
  }
  return gravity_groups_;
}

const std::vector<TargetGroup>& StepContext::gasGroups(std::span<const Particle> work,
                                                       std::size_t n_local, int leaf_size,
                                                       int group_size) {
  n_local = std::min(n_local, work.size());
  const SourceTree& tree = gasTree(work, leaf_size);
  if (!gas_groups_valid_ || gas_grp_local_ != n_local || gas_gs_ != group_size) {
    gas_groups_ = makeGasTargetGroups(tree, work.subspan(0, n_local), group_size);
    gas_groups_valid_ = true;
    gas_grp_local_ = n_local;
    gas_gs_ = group_size;
  }
  return gas_groups_;
}

void StepContext::refreshGasSmoothing(std::span<const Particle> work) {
  if (!gas_tree_valid_) return;
  gas_tree_.refreshSmoothing(work);
  ++refreshes_step_;
  ++refreshes_total_;
}

void StepContext::refreshGravityPositions(std::span<const Particle> particles) {
  gravity_groups_valid_ = false;  // bboxes went stale with the drift
  if (!gravity_tree_valid_) return;
  if (gravity_n_ != particles.size()) {
    gravity_tree_valid_ = false;
    return;
  }
  // LET import entries are all multipole-tagged (let.cpp sanitizes raw
  // boundary particles to idx = kMultipole), so refreshPositions leaves
  // them in place — the coasting approximation the exchange skin bounds —
  // while local entries take their drifted positions and every node moment
  // is recomputed.
  gravity_tree_.refreshPositions(particles);
  ++refreshes_step_;
  ++refreshes_total_;
}

void StepContext::refreshGasPositions(std::span<const Particle> work) {
  gas_groups_valid_ = false;
  active_gas_groups_valid_ = false;
  if (!gas_tree_valid_) return;
  if (gas_n_ != work.size()) {
    gas_tree_valid_ = false;
    return;
  }
  gas_tree_.refreshPositions(work);
  ++refreshes_step_;
  ++refreshes_total_;
}

const std::vector<TargetGroup>& StepContext::activeGravityGroups(
    std::span<const Particle> particles, std::span<const std::uint32_t> subset,
    int group_size) {
  active_gravity_groups_ = makeTargetGroups(particles, subset, group_size);
  return active_gravity_groups_;
}

const std::vector<TargetGroup>& StepContext::activeGasGroups(
    std::span<const Particle> work, std::span<const std::uint32_t> subset,
    int group_size) {
  // Content-keyed cache: the density and hydro passes of one sub-step ask
  // for the same subset back-to-back with no drift in between.
  if (active_gas_groups_valid_ && active_gas_gs_ == group_size &&
      active_gas_subset_.size() == subset.size() &&
      std::equal(subset.begin(), subset.end(), active_gas_subset_.begin())) {
    return active_gas_groups_;
  }
  active_gas_groups_ = makeGasTargetGroups(work, subset, group_size);
  active_gas_subset_.assign(subset.begin(), subset.end());
  active_gas_gs_ = group_size;
  active_gas_groups_valid_ = true;
  return active_gas_groups_;
}

}  // namespace asura::fdps
