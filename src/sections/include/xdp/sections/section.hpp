// A Section is a rectangular, possibly strided, subset of an array's index
// space: the Cartesian product of one Triplet per dimension (paper
// section 2.1). A scalar is a rank-0 section with exactly one element.
//
// Sections are value types. All set operations (intersection, coverage,
// difference) are exact for arbitrary strides.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "xdp/sections/triplet.hpp"
#include "xdp/support/check.hpp"

namespace xdp::sec {

/// Maximum array rank supported by the runtime (HPF programs rarely exceed
/// rank 4; raising this is a recompile, not a redesign).
inline constexpr int kMaxRank = 4;

/// A point in an index space.
class Point {
 public:
  Point() : rank_(0), idx_{} {}
  Point(std::initializer_list<Index> idx);
  Point(int rank, const std::array<Index, kMaxRank>& idx)
      : rank_(rank), idx_(idx) {
    XDP_CHECK(rank >= 0 && rank <= kMaxRank, "point rank out of range");
  }

  int rank() const { return rank_; }
  Index operator[](int d) const { return idx_[static_cast<unsigned>(d)]; }
  Index& operator[](int d) { return idx_[static_cast<unsigned>(d)]; }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.rank_ != b.rank_) return false;
    for (int d = 0; d < a.rank_; ++d)
      if (a.idx_[static_cast<unsigned>(d)] != b.idx_[static_cast<unsigned>(d)])
        return false;
    return true;
  }

 private:
  int rank_;
  std::array<Index, kMaxRank> idx_;
};

std::ostream& operator<<(std::ostream& os, const Point& p);

class Section {
 public:
  /// Rank-0 (scalar) section — one element.
  Section() : rank_(0) {}

  /// Section from one triplet per dimension.
  Section(std::initializer_list<Triplet> dims);
  explicit Section(const std::vector<Triplet>& dims);
  Section(int rank, const std::array<Triplet, kMaxRank>& dims);

  /// The full index space [lb[d], ub[d]] in every dimension.
  static Section box(std::initializer_list<std::pair<Index, Index>> bounds);

  int rank() const { return rank_; }
  const Triplet& dim(int d) const {
    XDP_CHECK(d >= 0 && d < rank_, "dimension out of range");
    return dims_[static_cast<unsigned>(d)];
  }
  void setDim(int d, const Triplet& t);

  /// Number of elements (product over dims; 1 for rank 0). Raises
  /// UsageError when the product leaves Index.
  Index count() const {
    if (empty()) return 0;
    Index n = 1;
    for (int d = 0; d < rank_; ++d)
      if (__builtin_mul_overflow(n, dims_[static_cast<unsigned>(d)].count(),
                                 &n))
        countOverflow();
    return n;
  }
  bool empty() const {
    for (int d = 0; d < rank_; ++d)
      if (dims_[static_cast<unsigned>(d)].empty()) return true;
    return false;
  }
  /// True iff the section holds exactly one element (count() == 1).
  bool isPoint() const {
    for (int d = 0; d < rank_; ++d)
      if (dims_[static_cast<unsigned>(d)].lb() !=
          dims_[static_cast<unsigned>(d)].ub())
        return false;
    return true;
  }

  /// The point of per-dimension lower bounds: the first element in
  /// Fortran order, and the only one when isPoint().
  Point origin() const {
    std::array<Index, kMaxRank> idx{};
    for (int d = 0; d < rank_; ++d)
      idx[static_cast<unsigned>(d)] = dims_[static_cast<unsigned>(d)].lb();
    return Point(rank_, idx);
  }

  bool contains(const Point& p) const {
    if (p.rank() != rank_) return false;
    for (int d = 0; d < rank_; ++d)
      if (!dims_[static_cast<unsigned>(d)].contains(p[d])) return false;
    return true;
  }

  /// True iff every element of `inner` is an element of this section.
  bool containsAll(const Section& inner) const;

  static Section intersect(const Section& a, const Section& b);

  /// Exact set difference a \ b as a list of disjoint sections
  /// (slab decomposition dimension by dimension).
  static std::vector<Section> subtract(const Section& a, const Section& b);

  /// Set equality (canonical representation makes this memberwise).
  friend bool operator==(const Section& a, const Section& b);

  /// Position of `p` in this section's Fortran-order element enumeration
  /// (dimension 0 fastest). Precondition: contains(p).
  Index fortranPos(const Point& p) const;

  /// Visit every point in Fortran order (first dimension fastest).
  void forEach(const std::function<void(const Point&)>& fn) const;

  /// All points, materialized (test/debug helper — O(count) memory).
  std::vector<Point> points() const;

  std::string str() const;

 private:
  [[noreturn]] void countOverflow() const;

  int rank_;
  std::array<Triplet, kMaxRank> dims_{};
};

std::ostream& operator<<(std::ostream& os, const Section& s);

}  // namespace xdp::sec
