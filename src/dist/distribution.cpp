#include "xdp/dist/distribution.hpp"

#include <sstream>

#include "xdp/support/check.hpp"

namespace xdp::dist {

Distribution::Distribution(Section global, std::vector<DimSpec> specs)
    : global_(std::move(global)), specs_(std::move(specs)) {
  XDP_CHECK(static_cast<int>(specs_.size()) == global_.rank(),
            "one DimSpec required per array dimension");
  nprocs_ = 1;
  for (int d = 0; d < global_.rank(); ++d) {
    const Triplet& t = global_.dim(d);
    XDP_CHECK(t.stride() == 1 && !t.empty(),
              "global shape must be a dense, non-empty box");
    const DimSpec& s = specs_[static_cast<unsigned>(d)];
    if (s.kind == DistKind::Collapsed) continue;
    XDP_CHECK(s.procs >= 1, "distributed dimension needs procs >= 1");
    XDP_CHECK(s.kind != DistKind::BlockCyclic || s.blockSize >= 1,
              "BlockCyclic needs blockSize >= 1");
    nprocs_ *= s.procs;
  }
}

Index Distribution::blockSizeOf(int d) const {
  const DimSpec& s = specs_[static_cast<unsigned>(d)];
  const Triplet& t = global_.dim(d);
  Index n = t.count();
  switch (s.kind) {
    case DistKind::Collapsed:
      return n;
    case DistKind::Block:
      return (n + s.procs - 1) / s.procs;
    case DistKind::Cyclic:
      return 1;
    case DistKind::BlockCyclic:
      return s.blockSize;
  }
  return n;
}

int Distribution::dimCoordOf(int d, Index i) const {
  const DimSpec& s = specs_[static_cast<unsigned>(d)];
  if (s.kind == DistKind::Collapsed) return 0;
  const Triplet& t = global_.dim(d);
  XDP_CHECK(i >= t.lb() && i <= t.ub(), "index outside global bounds");
  Index off = i - t.lb();
  switch (s.kind) {
    case DistKind::Block:
      return static_cast<int>(off / blockSizeOf(d));
    case DistKind::Cyclic:
      return static_cast<int>(off % s.procs);
    case DistKind::BlockCyclic:
      return static_cast<int>((off / s.blockSize) % s.procs);
    case DistKind::Collapsed:
      break;
  }
  return 0;
}

int Distribution::ownerOf(const Point& p) const {
  XDP_CHECK(p.rank() == rank(), "point rank mismatch");
  int pid = 0;
  int mult = 1;
  for (int d = 0; d < rank(); ++d) {
    const DimSpec& s = specs_[static_cast<unsigned>(d)];
    if (s.kind == DistKind::Collapsed) continue;
    pid += dimCoordOf(d, p[d]) * mult;
    mult *= s.procs;
  }
  return pid;
}

std::array<int, sec::kMaxRank> Distribution::coordsOf(int pid) const {
  XDP_CHECK(pid >= 0 && pid < nprocs_, "pid out of range");
  std::array<int, sec::kMaxRank> c{};
  int rem = pid;
  for (int d = 0; d < rank(); ++d) {
    const DimSpec& s = specs_[static_cast<unsigned>(d)];
    if (s.kind == DistKind::Collapsed) {
      c[static_cast<unsigned>(d)] = 0;
      continue;
    }
    c[static_cast<unsigned>(d)] = rem % s.procs;
    rem /= s.procs;
  }
  return c;
}

std::vector<Triplet> Distribution::dimLocal(int d, int c,
                                            bool compact) const {
  const DimSpec& s = specs_[static_cast<unsigned>(d)];
  const Triplet& t = global_.dim(d);
  std::vector<Triplet> out;
  switch (s.kind) {
    case DistKind::Collapsed:
      out.push_back(t);
      break;
    case DistKind::Block: {
      Index bs = blockSizeOf(d);
      Index lo = t.lb() + c * bs;
      Index hi = std::min(t.ub(), lo + bs - 1);
      if (lo <= hi) out.emplace_back(lo, hi);
      break;
    }
    case DistKind::Cyclic: {
      Index lo = t.lb() + c;
      if (lo <= t.ub()) out.emplace_back(lo, t.ub(), s.procs);
      break;
    }
    case DistKind::BlockCyclic: {
      const Index b = s.blockSize;
      const Index period = static_cast<Index>(s.procs) * b;
      const Index first = t.lb() + c * b;
      if (compact && first <= t.ub() && (t.ub() - first) / period >= b) {
        // More blocks than elements per block: offset o of every block.
        for (Index o = 0; o < b && first + o <= t.ub(); ++o)
          out.emplace_back(first + o, t.ub(), period);
        break;
      }
      for (Index start = first; start <= t.ub(); start += period) {
        out.emplace_back(start, std::min(t.ub(), start + b - 1));
      }
      break;
    }
  }
  return out;
}

RegionList Distribution::localPart(int pid, bool compact) const {
  // A distribution may use fewer processors than the machine has; the
  // remaining processors simply own nothing initially.
  if (pid >= nprocs_) return RegionList();
  auto coords = coordsOf(pid);
  // Cartesian product of the per-dimension triplet lists.
  std::vector<Section> product{Section(std::vector<Triplet>{})};
  for (int d = 0; d < rank(); ++d) {
    auto trips = dimLocal(d, coords[static_cast<unsigned>(d)], compact);
    std::vector<Section> next;
    for (const Section& partial : product) {
      for (const Triplet& t : trips) {
        std::vector<Triplet> dims;
        for (int e = 0; e < partial.rank(); ++e) dims.push_back(partial.dim(e));
        dims.push_back(t);
        next.emplace_back(dims);
      }
    }
    product = std::move(next);
  }
  // Filter out any degenerate empty sections (an empty per-dim list above
  // already yields an empty product).
  std::vector<Section> nonEmpty;
  for (Section& s : product) {
    if (s.rank() == rank() && !s.empty()) nonEmpty.push_back(std::move(s));
  }
  return RegionList(std::move(nonEmpty));
}

std::string Distribution::str() const {
  std::ostringstream os;
  os << "(";
  for (int d = 0; d < rank(); ++d) {
    if (d) os << ", ";
    const DimSpec& s = specs_[static_cast<unsigned>(d)];
    switch (s.kind) {
      case DistKind::Collapsed:
        os << "*";
        break;
      case DistKind::Block:
        os << "BLOCK";
        break;
      case DistKind::Cyclic:
        os << "CYCLIC";
        break;
      case DistKind::BlockCyclic:
        os << "CYCLIC(" << s.blockSize << ")";
        break;
    }
  }
  os << ")";
  return os.str();
}

}  // namespace xdp::dist
