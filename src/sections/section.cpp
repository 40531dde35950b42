#include "xdp/sections/section.hpp"

#include <ostream>
#include <sstream>

#include "xdp/support/check.hpp"

namespace xdp::sec {

Point::Point(std::initializer_list<Index> idx) : rank_(0), idx_{} {
  XDP_CHECK(idx.size() <= kMaxRank, "point rank exceeds kMaxRank");
  for (Index i : idx) idx_[static_cast<unsigned>(rank_++)] = i;
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  os << "(";
  for (int d = 0; d < p.rank(); ++d) {
    if (d) os << ",";
    os << p[d];
  }
  return os << ")";
}

Section::Section(std::initializer_list<Triplet> dims) : rank_(0) {
  XDP_CHECK(dims.size() <= kMaxRank, "section rank exceeds kMaxRank");
  for (const Triplet& t : dims) dims_[static_cast<unsigned>(rank_++)] = t;
}

Section::Section(const std::vector<Triplet>& dims) : rank_(0) {
  XDP_CHECK(dims.size() <= kMaxRank, "section rank exceeds kMaxRank");
  for (const Triplet& t : dims) dims_[static_cast<unsigned>(rank_++)] = t;
}

Section::Section(int rank, const std::array<Triplet, kMaxRank>& dims)
    : rank_(rank), dims_(dims) {
  XDP_CHECK(rank >= 0 && rank <= kMaxRank, "section rank out of range");
}

Section Section::box(std::initializer_list<std::pair<Index, Index>> bounds) {
  Section s;
  XDP_CHECK(bounds.size() <= kMaxRank, "section rank exceeds kMaxRank");
  for (const auto& [lb, ub] : bounds)
    s.dims_[static_cast<unsigned>(s.rank_++)] = Triplet(lb, ub);
  return s;
}

void Section::setDim(int d, const Triplet& t) {
  XDP_CHECK(d >= 0 && d < rank_, "dimension out of range");
  dims_[static_cast<unsigned>(d)] = t;
}

void Section::countOverflow() const {
  throw UsageError("element count of section " + str() +
                   " overflows 64-bit indexing");
}

bool Section::containsAll(const Section& inner) const {
  if (inner.empty()) return true;
  if (inner.rank() != rank_) return false;
  Section i = intersect(*this, inner);
  return i.count() == inner.count();
}

Section Section::intersect(const Section& a, const Section& b) {
  XDP_CHECK(a.rank_ == b.rank_, "rank mismatch in section intersection");
  Section out;
  out.rank_ = a.rank_;
  for (int d = 0; d < a.rank_; ++d)
    out.dims_[static_cast<unsigned>(d)] =
        Triplet::intersect(a.dims_[static_cast<unsigned>(d)],
                           b.dims_[static_cast<unsigned>(d)]);
  return out;
}

std::vector<Section> Section::subtract(const Section& a, const Section& b) {
  std::vector<Section> out;
  if (a.empty()) return out;
  if (a.rank_ != b.rank_ || Section::intersect(a, b).empty()) {
    out.push_back(a);
    return out;
  }
  // Slab decomposition: pieces where dims < d are clipped to b and dim d is
  // outside b. The pieces are pairwise disjoint and their union is a \ b.
  for (int d = 0; d < a.rank_; ++d) {
    std::vector<Triplet> rest = Triplet::subtract(
        a.dims_[static_cast<unsigned>(d)], b.dims_[static_cast<unsigned>(d)]);
    for (const Triplet& t : rest) {
      Section piece = a;
      for (int e = 0; e < d; ++e)
        piece.dims_[static_cast<unsigned>(e)] =
            Triplet::intersect(a.dims_[static_cast<unsigned>(e)],
                               b.dims_[static_cast<unsigned>(e)]);
      piece.dims_[static_cast<unsigned>(d)] = t;
      if (!piece.empty()) out.push_back(piece);
    }
  }
  return out;
}

bool operator==(const Section& a, const Section& b) {
  if (a.empty() && b.empty()) return true;
  if (a.rank_ != b.rank_) return false;
  for (int d = 0; d < a.rank_; ++d)
    if (!(a.dims_[static_cast<unsigned>(d)] ==
          b.dims_[static_cast<unsigned>(d)]))
      return false;
  return true;
}

Index Section::fortranPos(const Point& p) const {
  XDP_CHECK(p.rank() == rank_, "fortranPos: rank mismatch");
  Index pos = 0;
  Index mult = 1;
  for (int d = 0; d < rank_; ++d) {
    const Triplet& t = dims_[static_cast<unsigned>(d)];
    pos += ((p[d] - t.lb()) / t.stride()) * mult;
    mult *= t.count();
  }
  return pos;
}

void Section::forEach(const std::function<void(const Point&)>& fn) const {
  if (empty()) return;
  Point p(rank_, {});
  // Iterate in Fortran order: dimension 0 varies fastest.
  std::array<Index, kMaxRank> k{};
  for (int d = 0; d < rank_; ++d) p[d] = dims_[static_cast<unsigned>(d)].lb();
  if (rank_ == 0) {
    fn(p);
    return;
  }
  while (true) {
    fn(p);
    int d = 0;
    while (d < rank_) {
      auto du = static_cast<unsigned>(d);
      if (++k[du] < dims_[du].count()) {
        p[d] = dims_[du].at(k[du]);
        break;
      }
      k[du] = 0;
      p[d] = dims_[du].lb();
      ++d;
    }
    if (d == rank_) return;
  }
}

std::vector<Point> Section::points() const {
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(count()));
  forEach([&](const Point& p) { out.push_back(p); });
  return out;
}

std::string Section::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Section& s) {
  os << "[";
  for (int d = 0; d < s.rank(); ++d) {
    if (d) os << ",";
    os << s.dim(d);
  }
  return os << "]";
}

}  // namespace xdp::sec
