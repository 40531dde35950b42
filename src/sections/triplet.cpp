#include "xdp/sections/triplet.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "xdp/support/check.hpp"

namespace xdp::sec {
namespace {

/// Extended gcd: returns g = gcd(a,b) and x,y with a*x + b*y = g.
Index extGcd(Index a, Index b, Index& x, Index& y) {
  if (b == 0) {
    x = 1;
    y = 0;
    return a;
  }
  Index x1 = 0, y1 = 0;
  Index g = extGcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

/// Floor division for possibly-negative numerators.
constexpr Index floorDiv(Index a, Index b) {
  Index q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

Triplet::Triplet(Index lb, Index ub) : lb_(lb), ub_(ub), stride_(1) {
  canonicalize();
}

Triplet::Triplet(Index lb, Index ub, Index stride)
    : lb_(lb), ub_(ub), stride_(stride) {
  XDP_CHECK(stride >= 1, "triplet stride must be >= 1 (use descending())");
  canonicalize();
}

Triplet Triplet::descending(Index first, Index last, Index stride) {
  XDP_CHECK(stride <= -1, "descending() requires a negative stride");
  if (first < last) return Triplet();  // empty descending range
  // Elements are first, first+stride, ... >= last. As an ascending set the
  // smallest element is first - k*|stride| for the largest k fitting.
  Index s = -stride;
  Index k = (first - last) / s;
  return Triplet(first - k * s, first, s);
}

void Triplet::canonicalize() {
  if (lb_ > ub_) {
    lb_ = 0;
    ub_ = -1;
    stride_ = 1;
    return;
  }
  ub_ = lb_ + ((ub_ - lb_) / stride_) * stride_;
  if (lb_ == ub_) stride_ = 1;
}

Index Triplet::at(Index k) const {
  XDP_CHECK(k >= 0 && k < count(), "triplet element index out of range");
  return lb_ + k * stride_;
}

Triplet Triplet::intersect(const Triplet& a, const Triplet& b) {
  if (a.empty() || b.empty()) return Triplet();
  if (std::max(a.lb_, b.lb_) > std::min(a.ub_, b.ub_)) return Triplet();
  if (a.stride_ == 1 && b.stride_ == 1) {
    // Two ranges (points included): the overlap, already canonical.
    Triplet t;
    t.lb_ = std::max(a.lb_, b.lb_);
    t.ub_ = std::min(a.ub_, b.ub_);
    return t;
  }
  // Solve a.lb + i*a.stride == b.lb + j*b.stride.
  Index x = 0, y = 0;
  Index g = extGcd(a.stride_, b.stride_, x, y);
  Index diff = b.lb_ - a.lb_;
  if (diff % g != 0) return Triplet();  // progressions never meet
  // Everything below runs in __int128: the combined stride m = lcm can
  // exceed Index width even for representable inputs, and the Bezout
  // product x * (diff/g) * stride overflows even __int128 unless i0 is
  // first reduced modulo m / a.stride = b.stride / g (the solution is
  // only defined mod that anyway).
  const __int128 sa = a.stride_;
  const __int128 sb = b.stride_;
  const __int128 m = sa / g * sb;  // lcm(sa, sb) < 2^126
  const __int128 q = sb / g;       // = m / sa
  const __int128 i0 = static_cast<__int128>(x) % q *
                      ((static_cast<__int128>(diff) / g) % q) % q;
  const __int128 lo = std::max(a.lb_, b.lb_);
  const __int128 hi = std::min(a.ub_, b.ub_);
  // cand is one common element (|i0| < q keeps |i0*sa| < m); shift its
  // residue class mod m to the first element >= lo.
  const __int128 cand = static_cast<__int128>(a.lb_) + i0 * sa;
  __int128 off = (cand - lo) % m;
  if (off < 0) off += m;
  const __int128 first = lo + off;
  if (first > hi) return Triplet();
  const __int128 last = first + (hi - first) / m * m;
  if (first == last)
    return Triplet(static_cast<Index>(first), static_cast<Index>(first));
  // Two or more common elements with their gap wider than Index only
  // happens for ranges spanning more than 2^63; such a triplet has no
  // representation, so reject it rather than return a corrupt one.
  XDP_CHECK(m <= std::numeric_limits<Index>::max(),
            "triplet intersection stride exceeds Index range");
  return Triplet(static_cast<Index>(first), static_cast<Index>(last),
                 static_cast<Index>(m));
}

std::vector<Triplet> Triplet::subtract(const Triplet& a, const Triplet& b) {
  std::vector<Triplet> out;
  if (a.empty()) return out;
  Triplet i = intersect(a, b);
  if (i.empty()) {
    out.push_back(a);
    return out;
  }
  // Positions (in units of a.stride from a.lb) of the removed elements form
  // an arithmetic progression: start p0, step q, count i.count().
  Index p0 = (i.lb() - a.lb_) / a.stride_;
  Index q = i.stride() / a.stride_;
  Index pLast = (i.ub() - a.lb_) / a.stride_;
  Index n = a.count();
  // Head: positions [0, p0).
  if (p0 > 0)
    out.emplace_back(a.lb_, a.lb_ + (p0 - 1) * a.stride_, a.stride_);
  // Middle: for each residue r in (0, q), positions p0+r, p0+r+q, ... < pLast.
  if (q > 1) {
    for (Index r = 1; r < q; ++r) {
      Index start = p0 + r;
      if (start > pLast) break;
      // Last position of this residue class that is < pLast + q but also <= n-1
      // and within the removed span [p0, pLast].
      Index stop = std::min(pLast, n - 1);
      Index k = floorDiv(stop - start, q);
      if (k < 0) continue;
      Index end = start + k * q;
      out.emplace_back(a.lb_ + start * a.stride_, a.lb_ + end * a.stride_,
                       q * a.stride_);
    }
  }
  // Tail: positions (pLast, n).
  if (pLast + 1 <= n - 1)
    out.emplace_back(a.lb_ + (pLast + 1) * a.stride_,
                     a.lb_ + (n - 1) * a.stride_, a.stride_);
  return out;
}

Triplet Triplet::affinePreimage(Index a, Index b) const {
  XDP_CHECK(a != 0, "affinePreimage of a constant map is not a set of i");
  if (empty()) return Triplet();
  const Index mag = a > 0 ? a : -a;
  // The image of Z under i -> a*i + b is the residue class b (mod |a|).
  // Materialize its elements inside [lb_, ub_] as a triplet and intersect
  // with this progression; every surviving value pulls back to exactly one
  // integer i = (v - b) / a.
  const Index first = b + floorDiv(lb_ - b + mag - 1, mag) * mag;
  if (first > ub_) return Triplet();
  Triplet image = intersect(Triplet(first, ub_, mag), *this);
  if (image.empty()) return Triplet();
  const Index iFromLow = (image.lb() - b) / a;
  const Index iFromHigh = (image.ub() - b) / a;
  if (image.count() == 1) return Triplet(iFromLow);
  // image.stride is a multiple of |a| (all its elements share the residue
  // class of b mod |a|), so the preimage stride is integral.
  const Index istep = image.stride() / mag;
  return a > 0 ? Triplet(iFromLow, iFromHigh, istep)
               : Triplet(iFromHigh, iFromLow, istep);
}

std::ostream& operator<<(std::ostream& os, const Triplet& t) {
  if (t.empty()) return os << "<empty>";
  os << t.lb() << ":" << t.ub();
  if (t.stride() != 1) os << ":" << t.stride();
  return os;
}

}  // namespace xdp::sec
