// A RegionList is a set of array indices maintained as a list of pairwise
// disjoint Sections. It is the representation of (a) a processor's local
// partition under a distribution (which for CYCLIC/BLOCK-CYCLIC is not a
// single rectangle) and (b) arbitrary owned index sets after run-time
// ownership transfers have fragmented the original distribution.
#pragma once

#include <functional>
#include <vector>

#include "xdp/sections/section.hpp"

namespace xdp::sec {

class RegionList {
 public:
  RegionList() = default;
  explicit RegionList(Section s);
  explicit RegionList(std::vector<Section> disjoint);

  const std::vector<Section>& sections() const { return sections_; }
  bool empty() const { return sections_.empty(); }
  Index count() const;

  bool contains(const Point& p) const;

  /// True iff every element of `query` is in this set. This is exactly the
  /// paper's iown() evaluation algorithm (section 3.1): intersect the query
  /// with every piece and check the union of the intersections equals the
  /// query — since the pieces are disjoint, a cardinality sum suffices.
  /// A one-point query is a single contains() test.
  bool covers(const Section& query) const;

  /// True iff some element of `query` is in this set (a one-point query
  /// is a contains() test).
  bool overlaps(const Section& query) const;

  /// Add a section. Any elements already present are not duplicated
  /// (the incoming section is diffed against existing pieces first).
  void add(const Section& s);

  /// Remove every element of `s` from the set.
  void subtract(const Section& s);

  /// Elements of `query` that are in this set, as disjoint sections.
  std::vector<Section> intersect(const Section& query) const;

  /// Set equality against another region list (by mutual coverage).
  bool sameSet(const RegionList& other) const;

  void forEach(const std::function<void(const Point&)>& fn) const;

 private:
  std::vector<Section> sections_;
};

std::ostream& operator<<(std::ostream& os, const RegionList& rl);

}  // namespace xdp::sec
