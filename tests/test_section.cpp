// Tests for multi-dimensional sections: intersection, subtraction,
// coverage, Fortran-order enumeration and positions.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "xdp/sections/section.hpp"
#include "xdp/support/rng.hpp"

namespace xdp::sec {
namespace {

std::set<std::vector<Index>> pointSet(const Section& s) {
  std::set<std::vector<Index>> out;
  s.forEach([&](const Point& p) {
    std::vector<Index> v;
    for (int d = 0; d < p.rank(); ++d) v.push_back(p[d]);
    out.insert(v);
  });
  return out;
}

std::set<std::vector<Index>> pointSet(const std::vector<Section>& ss) {
  std::set<std::vector<Index>> out;
  for (const auto& s : ss) {
    auto ps = pointSet(s);
    out.insert(ps.begin(), ps.end());
  }
  return out;
}

TEST(Section, ScalarRankZero) {
  Section s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.count(), 1);  // a scalar has exactly one element
  EXPECT_FALSE(s.empty());
  int visits = 0;
  s.forEach([&](const Point& p) {
    EXPECT_EQ(p.rank(), 0);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Section, CountIsProduct) {
  Section s{Triplet(1, 4), Triplet(1, 8)};
  EXPECT_EQ(s.count(), 32);
  Section strided{Triplet(1, 10, 3), Triplet(2, 8, 2)};  // 4 * 4
  EXPECT_EQ(strided.count(), 16);
}

TEST(Section, EmptyIfAnyDimEmpty) {
  Section s{Triplet(1, 4), Triplet()};
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
}

TEST(Section, CountOverflowRaisesAndEmptyStaysExact) {
  // 2^32 x 2^32 elements: the product leaves Index. The section is not
  // empty, and its count raises instead of wrapping to 0.
  const Section big{Triplet(0, 4294967295), Triplet(0, 4294967295)};
  EXPECT_FALSE(big.empty());
  EXPECT_FALSE(big.isPoint());
  EXPECT_THROW(big.count(), UsageError);
  const Section withEmpty{Triplet(0, 4294967295), Triplet(0, 4294967295),
                          Triplet()};
  EXPECT_TRUE(withEmpty.empty());
  EXPECT_EQ(withEmpty.count(), 0);
  const Section point{Triplet(7), Triplet(4294967295)};
  EXPECT_TRUE(point.isPoint());
  EXPECT_EQ(point.count(), 1);
  EXPECT_FALSE((Section{Triplet(1, 3, 2)}.isPoint()));
  EXPECT_TRUE(Section().isPoint());  // rank 0: one element
}

TEST(Section, Contains) {
  Section s{Triplet(1, 10, 3), Triplet(5, 5)};
  EXPECT_TRUE(s.contains(Point{4, 5}));
  EXPECT_FALSE(s.contains(Point{5, 5}));
  EXPECT_FALSE(s.contains(Point{4, 6}));
  EXPECT_FALSE(s.contains(Point{4}));  // rank mismatch
}

TEST(Section, ContainsAll) {
  Section outer{Triplet(1, 8), Triplet(1, 8)};
  Section inner{Triplet(2, 6, 2), Triplet(3, 5)};
  EXPECT_TRUE(outer.containsAll(inner));
  EXPECT_FALSE(inner.containsAll(outer));
  EXPECT_TRUE(outer.containsAll(Section{Triplet(), Triplet(1, 3)}));  // empty
}

TEST(Section, IntersectPerDim) {
  Section a{Triplet(1, 8), Triplet(1, 8)};
  Section b{Triplet(5, 12), Triplet(0, 4, 2)};
  Section i = Section::intersect(a, b);
  EXPECT_EQ(i, (Section{Triplet(5, 8), Triplet(2, 4, 2)}));
}

TEST(Section, FortranOrderEnumeration) {
  // Dimension 0 varies fastest (paper arrays are Fortran-style).
  Section s{Triplet(1, 2), Triplet(10, 11)};
  std::vector<Point> pts = s.points();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0], (Point{1, 10}));
  EXPECT_EQ(pts[1], (Point{2, 10}));
  EXPECT_EQ(pts[2], (Point{1, 11}));
  EXPECT_EQ(pts[3], (Point{2, 11}));
}

TEST(Section, FortranPosRoundTrip) {
  Section s{Triplet(2, 10, 2), Triplet(1, 3), Triplet(0, 4, 4)};
  Index expected = 0;
  s.forEach([&](const Point& p) {
    EXPECT_EQ(s.fortranPos(p), expected);
    ++expected;
  });
  EXPECT_EQ(expected, s.count());
}

TEST(Section, SubtractProducesDisjointExactCover) {
  Section a{Triplet(1, 8), Triplet(1, 8)};
  Section b{Triplet(3, 6), Triplet(3, 6)};
  auto rest = Section::subtract(a, b);
  auto expect = pointSet(a);
  for (const auto& v : pointSet(b)) expect.erase(v);
  EXPECT_EQ(pointSet(rest), expect);
  Index total = 0;
  for (const auto& s : rest) total += s.count();
  EXPECT_EQ(total, static_cast<Index>(expect.size())) << "pieces overlap";
}

class SectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SectionProperty, SubtractMatchesBruteForce2D) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    auto randTrip = [&] {
      return Triplet(rng.range(-5, 8), rng.range(-5, 16), rng.range(1, 4));
    };
    Section a{randTrip(), randTrip()};
    Section b{randTrip(), randTrip()};
    auto rest = Section::subtract(a, b);
    auto expect = pointSet(a);
    for (const auto& v : pointSet(b)) expect.erase(v);
    EXPECT_EQ(pointSet(rest), expect);
    Index total = 0;
    for (const auto& s : rest) total += s.count();
    EXPECT_EQ(total, static_cast<Index>(expect.size()));
  }
}

TEST_P(SectionProperty, IntersectMatchesBruteForce3D) {
  Rng rng(GetParam() ^ 0x5555);
  for (int iter = 0; iter < 40; ++iter) {
    auto randTrip = [&] {
      return Triplet(rng.range(0, 6), rng.range(0, 12), rng.range(1, 3));
    };
    Section a{randTrip(), randTrip(), randTrip()};
    Section b{randTrip(), randTrip(), randTrip()};
    Section i = Section::intersect(a, b);
    auto expect = pointSet(a);
    auto bs = pointSet(b);
    std::set<std::vector<Index>> inter;
    for (const auto& v : expect)
      if (bs.count(v)) inter.insert(v);
    EXPECT_EQ(pointSet(std::vector<Section>{i}), inter);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SectionProperty,
                         ::testing::Values(7, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace xdp::sec
