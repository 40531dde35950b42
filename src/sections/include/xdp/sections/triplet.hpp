// Fortran-90 triplet notation lb:ub:stride — the building block of XDP
// sections (paper section 2.1: "we assume that sections are defined by
// Fortran 90 triplet notation").
//
// A Triplet denotes the arithmetic progression
//     { lb, lb+stride, lb+2*stride, ..., <= ub }
// Triplets are canonicalized on construction: ub is clamped to the last
// element actually in the set, and an empty progression is represented
// uniformly (lb=0, ub=-1, stride=1). Strides are strictly positive; a
// descending Fortran triplet (negative stride) denotes the same *set* of
// indices, so callers construct it via Triplet::descending which reverses
// it. XDP ownership is a property of index sets, not traversal order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <vector>

namespace xdp::sec {

using Index = std::int64_t;

class Triplet {
 public:
  /// Empty triplet.
  constexpr Triplet() : lb_(0), ub_(-1), stride_(1) {}

  /// Single index i (Fortran `A[i]`).
  constexpr explicit Triplet(Index i) : lb_(i), ub_(i), stride_(1) {}

  /// Range lb:ub with stride 1.
  Triplet(Index lb, Index ub);

  /// Range lb:ub:stride, stride >= 1.
  Triplet(Index lb, Index ub, Index stride);

  /// The index set of a descending Fortran triplet first:last:stride with
  /// stride < 0 (e.g. 10:2:-2 == {10,8,6,4,2} == 2:10:2 as a set).
  static Triplet descending(Index first, Index last, Index stride);

  constexpr Index lb() const { return lb_; }
  constexpr Index ub() const { return ub_; }
  constexpr Index stride() const { return stride_; }

  constexpr bool empty() const { return lb_ > ub_; }
  constexpr Index count() const {
    return empty() ? 0 : (ub_ - lb_) / stride_ + 1;
  }

  constexpr bool contains(Index i) const {
    return i >= lb_ && i <= ub_ && (i - lb_) % stride_ == 0;
  }

  /// k-th element, 0 <= k < count().
  Index at(Index k) const;

  /// Set intersection of two arithmetic progressions (exact, via the
  /// extended Euclidean algorithm / CRT — handles arbitrary strides).
  static Triplet intersect(const Triplet& a, const Triplet& b);

  /// Set difference a \ b as a disjoint union of triplets. The number of
  /// pieces is O(lcm(a.stride,b.stride)/a.stride) in the worst case;
  /// callers that need bounded output should align strides first.
  static std::vector<Triplet> subtract(const Triplet& a, const Triplet& b);

  /// The set { i : a*i + b ∈ this }, a != 0 — itself an arithmetic
  /// progression, so the result is exact. This is how a subscript affine
  /// in a loop variable is pulled back from an owned index range to the
  /// loop iterations that touch it (interpreter guard range-splitting).
  Triplet affinePreimage(Index a, Index b) const;

  /// True iff the image of the loop lb:ub:step under i -> a*i + b, a != 0,
  /// is an Index triplet whose owned pieces affinePreimage can pull back
  /// without overflow. Decided in 128 bits: the image ends a*lb+b and
  /// a*ub+b and the image stride |a*step| are Index values, and |a|,
  /// |a*lb| and |a*ub| stay below 2^62, which keeps affinePreimage's sums
  /// (a*i + |a|) in range.
  static bool affineImageFits(Index a, Index b, Index lb, Index ub,
                              Index step) {
    using I128 = __int128;
    constexpr I128 kMin = std::numeric_limits<Index>::min();
    constexpr I128 kMax = std::numeric_limits<Index>::max();
    constexpr I128 kHalf = I128{1} << 62;
    auto mag = [](I128 v) { return v < 0 ? -v : v; };
    const I128 lo = I128{a} * lb, hi = I128{a} * ub;
    return mag(a) < kHalf && mag(lo) < kHalf && mag(hi) < kHalf &&
           lo + b >= kMin && lo + b <= kMax && hi + b >= kMin &&
           hi + b <= kMax && mag(I128{a} * step) <= kMax;
  }

  /// True iff the two triplets denote the same index set.
  friend constexpr bool operator==(const Triplet& a, const Triplet& b) {
    return (a.empty() && b.empty()) ||
           (a.lb_ == b.lb_ && a.ub_ == b.ub_ && a.stride_ == b.stride_);
  }

 private:
  void canonicalize();

  Index lb_;
  Index ub_;
  Index stride_;
};

std::ostream& operator<<(std::ostream& os, const Triplet& t);

}  // namespace xdp::sec
