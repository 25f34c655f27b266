#pragma once
/// \file tree.hpp
/// \brief Linear Barnes-Hut octree with monopole moments (paper §3.4).
///
/// FDPS assigns particles to a tree and provides O(N log N) interaction
/// calculation. This reimplementation:
///  * sorts source entries by 63-bit Morton key;
///  * builds a pointer-free node array by bit-partitioning the sorted keys;
///  * computes monopole moments (mass, centre of mass) and per-node maximum
///    smoothing length bottom-up;
///  * serves three traversals:
///     - gravity interaction lists for a target group box (MAC: s/d < theta),
///     - neighbour candidate gathering for SPH (gather & scatter radii),
///     - LET export walks for remote domain boxes (in let.hpp).
///
/// The group-wise traversal ("interaction list shared by n_g particles",
/// §5.2.4) walks once per target group. Gravity groups are octree cells of
/// at most n_g targets, as FDPS forms its i-groups; they are cut from the
/// Morton order the tree build already sorted, so a tree costs one sort.
/// The same n_g knob trades list length against walk cost exactly as
/// discussed in the paper.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fdps/box.hpp"
#include "fdps/particle.hpp"
#include "kernels/neighbour.hpp"

namespace asura::fdps {

/// A gravity/neighbour source: either a real particle (idx < kMultipole) or
/// a LET monopole standing in for a remote subtree.
struct SourceEntry {
  Vec3d pos{};
  double mass = 0.0;
  double eps = 1.0;        ///< softening (mass-weighted mean for monopoles)
  double h = 0.0;          ///< SPH support radius; 0 for collisionless/monopole
  std::uint32_t idx = 0;   ///< index into the originating array
  static constexpr std::uint32_t kMultipole = 0xffffffffu;
  [[nodiscard]] bool isMultipole() const { return idx == kMultipole; }
};

static_assert(std::is_trivially_copyable_v<SourceEntry>);

/// Monopole pseudo-particle emitted by the MAC.
struct Monopole {
  Vec3d com{};
  double mass = 0.0;
  double eps = 1.0;
};

/// Provenance of one exported LET entry, in terms of the exporting tree's
/// Morton-sorted entry order: count > 0 is a monopole over entries
/// [first, first+count); count == 0 is the raw entry at `first`. Together
/// with the tree's entry->particle permutation this is enough to recompute
/// the entry's *values* from live particle state in a fixed summation order
/// — the payload-style LET refresh.
struct LetExportItem {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

static_assert(std::is_trivially_copyable_v<LetExportItem>);

class SourceTree {
 public:
  struct Node {
    Box bbox;                 ///< tight bounding box of contents
    double mass = 0.0;
    Vec3d com{};
    double eps_mean = 1.0;    ///< mass-weighted softening
    double max_h = 0.0;       ///< max SPH support in subtree (scatter search)
    std::uint32_t first = 0;  ///< entry range [first, first+count)
    std::uint32_t count = 0;
    std::int32_t first_child = -1;  ///< index of first child; -1 for leaves
    std::int32_t n_children = 0;    ///< children are contiguous
    [[nodiscard]] bool isLeaf() const { return first_child < 0; }
    /// Cell size used by the multipole acceptance criterion.
    [[nodiscard]] double size() const {
      const Vec3d e = bbox.extent();
      return std::max({e.x, e.y, e.z});
    }
  };

  /// Build over a copy of the entries (sorted internally by Morton key).
  void build(std::vector<SourceEntry> entries, int leaf_size = 16);

  /// Refresh the SPH support radii stored in the tree (entry h and per-node
  /// max_h) from the originating particle array, without rebuilding topology
  /// or sort order. Valid only while particle *positions* are unchanged since
  /// build(); multipole entries (LET imports) keep their h.
  void refreshSmoothing(std::span<const Particle> particles);

  /// Refresh entry positions (and h) from the originating particle array and
  /// recompute every node moment (bbox, mass-weighted com, max_h) bottom-up
  /// — an O(N + nodes) sweep instead of a rebuild. The Morton topology and
  /// entry order are kept, so after large displacements the tree degrades in
  /// *quality* (looser bboxes, longer walks) but never in *correctness*:
  /// MAC distances and neighbour reach tests always use the recomputed
  /// boxes. Used by the block-timestep sub-step loop, where particles drift
  /// a little every sub-step and a full rebuild per sub-step would erase the
  /// active-set savings. Only valid for trees built without LET imports
  /// (entry idx must reference `particles`).
  void refreshPositions(std::span<const Particle> particles);

  [[nodiscard]] const std::vector<SourceEntry>& entries() const { return entries_; }
  /// The Morton keys entries() were sorted by, parallel to entries(). Empty
  /// once refreshPositions() has moved the entries: the entry order is then
  /// no longer the Morton order of the current positions.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const { return keys_; }
  /// SoA mirror of the entry positions and supports, in entry order.
  [[nodiscard]] const std::vector<double>& entryX() const { return soa_x_; }
  [[nodiscard]] const std::vector<double>& entryY() const { return soa_y_; }
  [[nodiscard]] const std::vector<double>& entryZ() const { return soa_z_; }
  [[nodiscard]] const std::vector<double>& entryH() const { return soa_h_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] double totalMass() const { return nodes_.empty() ? 0.0 : nodes_[0].mass; }
  [[nodiscard]] const Box& rootBox() const;

  /// Gravity traversal: fill `ep` with indices (into entries()) of sources
  /// that must be treated particle-particle and `sp` with accepted
  /// monopoles, for targets inside `target`.
  void gatherInteraction(const Box& target, double theta, std::vector<std::uint32_t>& ep,
                         std::vector<Monopole>& sp) const;

  /// Neighbour traversal: replaces `out` with the indices of the entries e
  /// with Box::distance(target, e.pos) <= max(gather_radius, e.h), in walk
  /// order (a superset filter — callers do the exact per-pair test). A node
  /// is opened unless its box lies farther than max(gather_radius, node
  /// max_h); `tests.open` decides that for all children of an opened node
  /// at once over the per-link node mirror, and `tests.leaf` tests each
  /// opened leaf's entries over the entry mirror. Every backend of
  /// kernels/neighbour.hpp returns the same list; the SPH passes hand in
  /// the one their SphParams::isa resolves to.
  void gatherNeighbors(const Box& target, double gather_radius,
                       std::vector<std::uint32_t>& out,
                       pikg::nbr::WalkTests tests = {}) const;

  /// LET export walk: emit monopole entries for subtrees satisfying the MAC
  /// with respect to a *remote domain box*, raw entries otherwise. When
  /// `items` is non-null, one LetExportItem per emitted entry records which
  /// entry range it came from, so the payload can later be recomputed from
  /// live particle state without re-walking (see refreshLetValues).
  void exportLet(const Box& remote_box, double theta, std::vector<SourceEntry>& out,
                 std::vector<LetExportItem>* items = nullptr) const;

 private:
  void buildTopology(int leaf_size);
  void computeMoments();
  /// Octant boundaries of a Morton-sorted entry range at `level`.
  void splitOctants(std::uint32_t first, std::uint32_t count, int level,
                    std::uint32_t (&child_first)[9]) const;
  /// Depth-first expansion of `nodes[root]` (first/count already set),
  /// appending descendants in pre-order and computing leaf moments. Shared
  /// by the serial (global arrays) and parallel (thread-local arrays +
  /// splice) build paths so their node layouts cannot diverge.
  void buildSubtree(std::int32_t root, int root_level, int leaf_size,
                    std::vector<Node>& nodes, std::vector<std::int32_t>& links) const;
  /// Copy entry positions and supports into the SoA mirror.
  void mirrorEntries();
  /// Copy every linked node's box and max_h into the per-link mirror.
  void mirrorNodes();

  std::vector<SourceEntry> entries_;
  /// SoA mirror of entries_[i].pos and .h for the vectorized leaf test;
  /// build() and both refreshes keep it in sync with entries_.
  std::vector<double> soa_x_, soa_y_, soa_z_, soa_h_;
  /// SoA mirror of the child nodes by link slot, 7 rows of
  /// child_links_.size(): bbox lo x/y/z, hi x/y/z and max_h of
  /// nodes_[child_links_[k]], so one node's children are contiguous lanes
  /// for the vectorized node test. Kept in sync with every moment update.
  std::vector<double> link_soa_;
  std::vector<std::uint64_t> keys_;  ///< Morton keys parallel to entries_
  std::vector<Node> nodes_;
  /// Child-node indices; Node::first_child indexes into this table because
  /// direct children are not contiguous in nodes_ (grandchildren interleave
  /// during the depth-first build).
  std::vector<std::int32_t> child_links_;

  /// Persistent sort/permute scratch: rebuilding every step out of fresh
  /// allocations costs more in page faults than in arithmetic, so a tree
  /// that lives in a StepContext keeps its working set warm across steps.
  std::vector<std::uint64_t> sort_key_scratch_;
  std::vector<std::uint32_t> sort_idx_a_, sort_idx_b_, sort_counts_;
  std::vector<SourceEntry> entry_scratch_;
};

/// A run of Morton-sorted local targets sharing one interaction list (the
/// paper's n_g grouping).
struct TargetGroup {
  Box bbox;                            ///< tight box of the members
  std::vector<std::uint32_t> indices;  ///< indices into the particle array
};

/// Gravity target groups over `particles`, Morton-sorted by their current
/// positions and cut into octree cells as FDPS forms its i-groups: a cell
/// of at most `group_size` targets is one group; a larger cell splits into
/// its octants, where consecutive small children (in octant order) merge
/// while their sum stays at or below `group_size`, and each larger child
/// splits in turn. Each group's box is the tight box of its members.
std::vector<TargetGroup> makeTargetGroups(std::span<const Particle> particles,
                                          int group_size);

/// Active-subset variant: group only the particles named by `subset`
/// (indices into `particles`), Morton-sorted by their *current* positions so
/// group bboxes are exact even while the cached source trees run on
/// refreshed-in-place moments. This is what the block-timestep sub-steps use
/// to walk only the active rungs. For an all-active subset in ascending
/// order the groups equal the full-set ones.
std::vector<TargetGroup> makeTargetGroups(std::span<const Particle> particles,
                                          std::span<const std::uint32_t> subset,
                                          int group_size);

/// Full-set variant cut from `tree`'s sorted entries instead of a sort of
/// its own, when the tree was built over exactly `particles`; it yields the
/// groups makeTargetGroups(particles, group_size) would. A tree that also
/// holds LET imports, or whose order went stale under refreshPositions(),
/// falls back to that sort: imports widen the root cube, which would change
/// the targets' order and cells.
std::vector<TargetGroup> makeTargetGroups(const SourceTree& tree,
                                          std::span<const Particle> particles,
                                          int group_size);

/// Longest box side, in units of the smallest member support H, that an SPH
/// target group may span (see makeGasTargetGroups). Swept on the MW-mini SN
/// workload (4-core Xeon, AVX-512): 1, 1.5, 2, 3 and 4 left 267, 363, 485,
/// 718 and 912 density candidates per target. 2 was the fastest step, with
/// 1.5 and 3 about 4-6% slower and 1 about 19% slower (more, smaller walks).
inline constexpr double kGasGroupExtentPerH = 2.0;

/// SPH target groups over the gas in `particles`: a Morton run closes when
/// it holds `group_size` members or when the next member would stretch its
/// box's longest side past kGasGroupExtentPerH times the smallest member H.
/// A group shares one neighbour walk sized by its largest H, so plain Morton
/// runs that straddle a dense clump and diffuse gas make every clump member
/// scan the diffuse member's thousands of candidates; h-homogeneous groups
/// keep the shared candidate list close to each member's own neighbourhood.
std::vector<TargetGroup> makeGasTargetGroups(std::span<const Particle> particles,
                                             int group_size);

/// Active-subset variant of makeGasTargetGroups (`subset` must name gas).
std::vector<TargetGroup> makeGasTargetGroups(std::span<const Particle> particles,
                                             std::span<const std::uint32_t> subset,
                                             int group_size);

/// Full-set variant cut from the gas `tree`'s sorted entries when the tree
/// holds exactly the gas in `particles` (see the tree overload of
/// makeTargetGroups); a tree that also holds ghosts sorts the gas itself.
std::vector<TargetGroup> makeGasTargetGroups(const SourceTree& tree,
                                             std::span<const Particle> particles,
                                             int group_size);

/// Convenience: build gravity source entries from local particles.
std::vector<SourceEntry> makeSourceEntries(std::span<const Particle> particles,
                                           bool gas_only = false);

/// Key counts below which the radix sort runs serially on 11-bit digits
/// (six passes, every histogram built in one sweep); from here on it runs
/// the OpenMP-parallel 13-bit passes. Measured as the crossover of
/// SourceTree::build with either path forced (4-core Xeon, AVX-512, GCC
/// 12.2, 3 and 4 threads, table in docs/kernels.md): the serial build takes
/// about 40% less at 2^13 keys and 13-20% less at 2^14, the two tie at
/// 2^15, and the parallel build takes 14-27% less at 2^16 and about half
/// from 2^18 on.
inline constexpr std::size_t kRadixSerialBelow = std::size_t{1} << 15;

/// Stable LSD radix sort: fill `order` with a permutation such that
/// keys[order[i]] is non-decreasing and ties keep ascending original index —
/// exactly the ordering of the comparator-based indirect std::sort it
/// replaces, at O(N) instead of O(N log N) key comparisons. Exposed for the
/// regression tests and the tree-pipeline benchmark.
void radixSortByKey(std::span<const std::uint64_t> keys,
                    std::vector<std::uint32_t>& order);

}  // namespace asura::fdps
