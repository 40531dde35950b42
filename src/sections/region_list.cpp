#include "xdp/sections/region_list.hpp"

#include <algorithm>
#include <ostream>

#include "xdp/support/check.hpp"

namespace xdp::sec {

RegionList::RegionList(Section s) {
  if (!s.empty()) sections_.push_back(std::move(s));
}

RegionList::RegionList(std::vector<Section> disjoint) {
  for (auto& s : disjoint)
    if (!s.empty()) sections_.push_back(std::move(s));
}

Index RegionList::count() const {
  Index n = 0;
  for (const Section& s : sections_) n += s.count();
  return n;
}

bool RegionList::contains(const Point& p) const {
  for (const Section& s : sections_)
    if (s.contains(p)) return true;
  return false;
}

bool RegionList::covers(const Section& query) const {
  if (query.empty()) return true;
  if (query.isPoint()) return contains(query.origin());
  const Index n = query.count();
  Index covered = 0;
  for (const Section& s : sections_) {
    if (s.rank() != query.rank()) continue;
    covered += Section::intersect(s, query).count();
    if (covered >= n) return true;  // pieces are disjoint
  }
  return covered == n;
}

bool RegionList::overlaps(const Section& query) const {
  if (query.empty()) return false;
  if (query.isPoint()) return contains(query.origin());
  for (const Section& s : sections_) {
    if (s.rank() != query.rank()) continue;
    if (!Section::intersect(s, query).empty()) return true;
  }
  return false;
}

void RegionList::add(const Section& s) {
  if (s.empty()) return;
  // Insert only the part not already present, keeping pieces disjoint.
  std::vector<Section> fresh{s};
  for (const Section& existing : sections_) {
    std::vector<Section> next;
    for (const Section& piece : fresh) {
      if (piece.rank() != existing.rank()) {
        next.push_back(piece);
        continue;
      }
      auto rest = Section::subtract(piece, existing);
      next.insert(next.end(), rest.begin(), rest.end());
    }
    fresh = std::move(next);
    if (fresh.empty()) return;
  }
  sections_.insert(sections_.end(), fresh.begin(), fresh.end());
}

void RegionList::subtract(const Section& s) {
  if (s.empty()) return;
  std::vector<Section> out;
  for (const Section& piece : sections_) {
    if (piece.rank() != s.rank()) {
      out.push_back(piece);
      continue;
    }
    auto rest = Section::subtract(piece, s);
    out.insert(out.end(), rest.begin(), rest.end());
  }
  sections_ = std::move(out);
}

std::vector<Section> RegionList::intersect(const Section& query) const {
  std::vector<Section> out;
  for (const Section& s : sections_) {
    if (s.rank() != query.rank()) continue;
    Section i = Section::intersect(s, query);
    if (!i.empty()) out.push_back(i);
  }
  return out;
}

bool RegionList::sameSet(const RegionList& other) const {
  if (sections_.size() == other.sections_.size() &&
      std::equal(sections_.begin(), sections_.end(), other.sections_.begin()))
    return true;  // same pieces in the same order
  if (count() != other.count()) return false;
  for (const Section& s : sections_)
    if (!other.covers(s)) return false;
  return true;
}

void RegionList::forEach(const std::function<void(const Point&)>& fn) const {
  for (const Section& s : sections_) s.forEach(fn);
}

std::ostream& operator<<(std::ostream& os, const RegionList& rl) {
  os << "{";
  bool first = true;
  for (const Section& s : rl.sections()) {
    if (!first) os << " u ";
    first = false;
    os << s;
  }
  return os << "}";
}

}  // namespace xdp::sec
