// HPF-style data distributions (paper section 3: "we assume a fixed, known
// processor grid and partitioning as allowed in HPF").
//
// A Distribution maps every element of an array's global index space to
// exactly one owning processor. Each array dimension is either
//   * collapsed  ("*")            — not distributed,
//   * BLOCK                        — contiguous chunks of ceil(N/P),
//   * CYCLIC                       — round-robin single elements,
//   * CYCLIC(b) / BLOCK-CYCLIC     — round-robin blocks of b.
// The distributed dimensions span a Cartesian processor arrangement; the
// arrangement's positions are linearized (first distributed dimension
// fastest) onto machine processor ids 0..P-1.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "xdp/sections/region_list.hpp"
#include "xdp/sections/section.hpp"

namespace xdp::dist {

using sec::Index;
using sec::Point;
using sec::RegionList;
using sec::Section;
using sec::Triplet;

enum class DistKind { Collapsed, Block, Cyclic, BlockCyclic };

/// Per-dimension distribution spec.
struct DimSpec {
  DistKind kind = DistKind::Collapsed;
  int procs = 1;        ///< processor arrangement extent in this dimension
  Index blockSize = 1;  ///< block size for BlockCyclic

  static DimSpec collapsed() { return {DistKind::Collapsed, 1, 1}; }
  static DimSpec block(int procs) { return {DistKind::Block, procs, 1}; }
  static DimSpec cyclic(int procs) { return {DistKind::Cyclic, procs, 1}; }
  static DimSpec blockCyclic(int procs, Index blockSize) {
    return {DistKind::BlockCyclic, procs, blockSize};
  }

  friend bool operator==(const DimSpec& a, const DimSpec& b) {
    return a.kind == b.kind && a.procs == b.procs &&
           (a.kind != DistKind::BlockCyclic || a.blockSize == b.blockSize);
  }
};

class Distribution {
 public:
  Distribution() = default;

  /// `global` must be a dense box (stride-1 triplet per dimension); `specs`
  /// has one entry per dimension. The number of machine processors is the
  /// product of `procs` over distributed dimensions.
  Distribution(Section global, std::vector<DimSpec> specs);

  int rank() const { return global_.rank(); }
  int nprocs() const { return nprocs_; }
  const Section& global() const { return global_; }
  const std::vector<DimSpec>& specs() const { return specs_; }

  /// Owning processor id of a global index (every element has exactly one).
  int ownerOf(const Point& p) const;

  /// Processor-arrangement coordinate owning index i in dimension d
  /// (0 for collapsed dimensions).
  int dimCoordOf(int d, Index i) const;

  /// Index set owned by arrangement coordinate c in dimension d, as
  /// disjoint triplets (a single triplet except for BlockCyclic). With
  /// `compact`, a BlockCyclic coordinate holding more blocks than its
  /// block size b is given as b triplets of stride P*b instead of one per
  /// block, so the list does not grow with the extent.
  std::vector<Triplet> dimLocal(int d, int c, bool compact = false) const;

  /// Arrangement coordinates of processor pid (first distributed dimension
  /// fastest); entry is 0 for collapsed dimensions.
  std::array<int, sec::kMaxRank> coordsOf(int pid) const;

  /// All elements owned by pid, as disjoint sections (`compact`: see
  /// dimLocal; the runtime's segments keep one piece per block).
  RegionList localPart(int pid, bool compact = false) const;

  /// "(*, BLOCK)"-style rendering, as in the paper's Figure 2.
  std::string str() const;

  /// True iff the two distributions assign every index the same owner.
  /// (Structural check: identical global box and specs.)
  friend bool operator==(const Distribution& a, const Distribution& b) {
    return a.global_ == b.global_ && a.specs_ == b.specs_;
  }

  /// Effective block size used in dimension d (for Block this is the
  /// computed ceil(N/P); for Cyclic 1; for Collapsed the whole extent).
  Index blockSizeOf(int d) const;

 private:
  Section global_;
  std::vector<DimSpec> specs_;
  int nprocs_ = 1;
};

}  // namespace xdp::dist
