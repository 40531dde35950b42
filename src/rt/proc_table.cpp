#include "xdp/rt/proc_table.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "xdp/net/wire.hpp"
#include "xdp/support/check.hpp"

namespace xdp::rt {

namespace {
/// Below this many segments a linear scan beats the binary search setup.
constexpr std::size_t kLinearScanThreshold = 8;
}  // namespace

const char* elemTypeName(ElemType t) {
  switch (t) {
    case ElemType::F64:
      return "f64";
    case ElemType::I64:
      return "i64";
    case ElemType::C128:
      return "c128";
  }
  return "?";
}

const char* segStateName(SegState s) {
  switch (s) {
    case SegState::Unowned:
      return "unowned";
    case SegState::Transitional:
      return "transitional";
    case SegState::Accessible:
      return "accessible";
  }
  return "?";
}

std::size_t ProcTable::Pool::allocate(std::size_t elems) {
  // First fit over the free list; split oversized blocks.
  for (auto it = freeList.begin(); it != freeList.end(); ++it) {
    if (it->second >= elems) {
      std::size_t off = it->first;
      if (it->second == elems) {
        freeList.erase(it);
      } else {
        it->first += elems;
        it->second -= elems;
      }
      stats.allocs += 1;
      stats.currentElems += elems;
      stats.peakElems = std::max(stats.peakElems, stats.currentElems);
      std::memset(bytes.data() + off * elemSz, 0, elems * elemSz);
      return off;
    }
  }
  std::size_t off = bytes.size() / elemSz;
  bytes.resize(bytes.size() + elems * elemSz, std::byte{0});
  stats.allocs += 1;
  stats.currentElems += elems;
  stats.peakElems = std::max(stats.peakElems, stats.currentElems);
  stats.poolElems = bytes.size() / elemSz;
  return off;
}

void ProcTable::Pool::release(std::size_t offset, std::size_t elems) {
  if (elems == 0) return;
  stats.frees += 1;
  stats.currentElems -= elems;
  // Keep the free list sorted by offset and coalesce with both neighbours,
  // so freed segment storage can back later allocations of any shape
  // (the paper's storage-reuse claim, section 2.6).
  auto it = std::lower_bound(
      freeList.begin(), freeList.end(), offset,
      [](const auto& blk, std::size_t off) { return blk.first < off; });
  it = freeList.insert(it, {offset, elems});
  if (it != freeList.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      it = freeList.erase(it);
      it = std::prev(it);
    }
  }
  auto next = std::next(it);
  if (next != freeList.end() && it->first + it->second == next->first) {
    it->second += next->second;
    freeList.erase(next);
  }
}

void ProcTable::rebuildIndex(Entry& e) {
  const std::size_t n = e.segs.size();
  e.order.resize(n);
  e.prefixMaxUb.resize(n);
  for (std::size_t i = 0; i < n; ++i) e.order[i] = static_cast<int>(i);
  if (n == 0) return;
  // Rank-0 symbols (scalars) have at most one segment; the index is only
  // consulted for rank >= 1 queries, where dim 0 is always present.
  if (e.segs.front().bounds.rank() == 0) return;
  std::sort(e.order.begin(), e.order.end(), [&](int a, int b) {
    return e.segs[static_cast<std::size_t>(a)].bounds.dim(0).lb() <
           e.segs[static_cast<std::size_t>(b)].bounds.dim(0).lb();
  });
  Index running = kMinInt;
  for (std::size_t i = 0; i < n; ++i) {
    running = std::max(
        running, e.segs[static_cast<std::size_t>(e.order[i])].bounds.dim(0).ub());
    e.prefixMaxUb[i] = running;
  }
}

template <typename Fn>
void ProcTable::forEachCandidate(const Entry& e, const Section& s,
                                       Fn&& fn) const {
  const std::size_t n = e.segs.size();
  if (s.rank() == 0 || n <= kLinearScanThreshold) {
    for (const SegmentDesc& seg : e.segs) fn(seg);
    return;
  }
  const Index qlb = s.dim(0).lb();
  const Index qub = s.dim(0).ub();
  // First position (in lb order) whose segment starts beyond the query;
  // everything at or after it cannot overlap. Walk backwards from there
  // until the running max upper bound drops below the query start —
  // everything earlier cannot overlap either.
  auto past = std::upper_bound(
      e.order.begin(), e.order.end(), qub, [&](Index v, int idx) {
        return v < e.segs[static_cast<std::size_t>(idx)].bounds.dim(0).lb();
      });
  for (auto j = static_cast<std::size_t>(past - e.order.begin()); j-- > 0;) {
    if (e.prefixMaxUb[j] < qlb) break;
    const SegmentDesc& seg = e.segs[static_cast<std::size_t>(e.order[j])];
    if (seg.bounds.dim(0).ub() >= qlb) fn(seg);
  }
}

ProcTable::ProcTable(int pid, const std::vector<SymbolDecl>& decls,
                     bool debugChecks)
    : pid_(pid), debugChecks_(debugChecks), decls_(decls) {
  entries_.reserve(decls_.size());
  for (std::size_t i = 0; i < decls_.size(); ++i) {
    const SymbolDecl& d = decls_[i];
    XDP_CHECK(d.index == static_cast<int>(i), "symbol index mismatch");
    Entry& e = entries_.emplace_back();
    e.pool.elemSz = elemSize(d.type);
    for (const Section& bounds :
         dist::segmentsOf(d.dist, pid, d.segShape)) {
      SegmentDesc seg;
      seg.status = SegState::Accessible;
      seg.bounds = bounds;
      seg.elemOffset =
          e.pool.allocate(static_cast<std::size_t>(bounds.count()));
      e.segs.push_back(std::move(seg));
    }
    rebuildIndex(e);
  }
}

const SymbolDecl& ProcTable::decl(int sym) const {
  XDP_CHECK(sym >= 0 && sym < numSymbols(), "bad symbol index");
  return decls_[static_cast<std::size_t>(sym)];
}

const ProcTable::Entry& ProcTable::entry(int sym) const {
  XDP_CHECK(sym >= 0 && sym < numSymbols(), "bad symbol index");
  return entries_[static_cast<std::size_t>(sym)];
}

ProcTable::Entry& ProcTable::entry(int sym) {
  XDP_CHECK(sym >= 0 && sym < numSymbols(), "bad symbol index");
  return entries_[static_cast<std::size_t>(sym)];
}

std::size_t ProcTable::PendingRecvs::bound(Index k, bool lower) const {
  const auto first = v_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto it =
      lower ? std::lower_bound(first, v_.end(), k,
                               [](const Section& x, Index v) {
                                 return key(x) < v;
                               })
            : std::upper_bound(first, v_.end(), k,
                               [](Index v, const Section& x) {
                                 return v < key(x);
                               });
  return static_cast<std::size_t>(it - v_.begin());
}

void ProcTable::PendingRecvs::add(const Section& s) {
  if (empty()) {
    v_.clear();
    head_ = 0;
    widest_ = 0;
  }
  Index extent = 0;  // negative for an empty dim 0
  if (s.rank() > 0 &&
      __builtin_sub_overflow(s.dim(0).ub(), s.dim(0).lb(), &extent))
    extent = kMaxInt;
  widest_ = std::max(widest_, extent);
  // After every receive with an equal key, like a multimap insert.
  const std::size_t pos = bound(key(s), /*lower=*/false);
  if (pos == v_.size()) {
    v_.push_back(s);
  } else if (pos == head_ && head_ > 0) {
    v_[--head_] = s;  // reuse a retired slot at the front
  } else {
    v_.insert(v_.begin() + static_cast<std::ptrdiff_t>(pos), s);
  }
}

void ProcTable::PendingRecvs::remove(const Section& s) {
  const Index k = key(s);
  for (std::size_t i = bound(k, /*lower=*/true);
       i < v_.size() && key(v_[i]) == k; ++i) {
    if (!(v_[i] == s)) continue;
    if (i == head_) {
      ++head_;
      // Drop the retired prefix once it outweighs the live part.
      if (head_ * 2 > v_.size()) {
        v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    } else {
      v_.erase(v_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return;
  }
}

template <typename Fn>
bool ProcTable::PendingRecvs::forEachOverlapping(const Section& s,
                                                 Fn&& fn) const {
  if (empty() || s.empty()) return false;
  Index lo = 0;
  if (s.rank() > 0 && __builtin_sub_overflow(s.dim(0).lb(), widest_, &lo))
    lo = kMinInt;
  const Index hi = s.rank() > 0 ? s.dim(0).ub() : 0;
  bool found = false;
  for (std::size_t i = bound(lo, /*lower=*/true);
       i < v_.size() && key(v_[i]) <= hi; ++i) {
    const Section& p = v_[i];
    if (p.rank() == s.rank() && !Section::intersect(p, s).empty()) {
      found = true;
      if (!fn(p)) break;
    }
  }
  return found;
}

bool ProcTable::PendingRecvs::overlaps(const Section& s) const {
  return forEachOverlapping(s, [](const Section&) { return false; });
}

int ProcTable::stateOf(int sym, const Section& s, double* arrival) const {
  // The paper's iown() algorithm: intersect the query with every segment
  // that can overlap it; since segments are disjoint, coverage holds iff
  // the intersection cardinalities sum to the query cardinality.
  // Accessibility is then a per-section property: no uncompleted receive
  // may overlap the query. The arrival fold is skipped unless asked for.
  const Entry& e = entry(sym);
  if (s.rank() > 0 && s.isPoint()) {
    // A point is covered iff one segment contains it.
    const int idx = segmentAt(e, s.origin());
    if (idx < 0) return -1;
    if (arrival != nullptr)
      *arrival = e.segs[static_cast<std::size_t>(idx)].arrival;
  } else {
    Index covered = 0;
    double maxArrival = 0.0;
    forEachCandidate(e, s, [&](const SegmentDesc& seg) {
      Section i = Section::intersect(seg.bounds, s);
      if (i.empty()) return;
      covered += i.count();
      if (arrival != nullptr) maxArrival = std::max(maxArrival, seg.arrival);
    });
    if (covered != s.count()) return -1;
    if (arrival != nullptr) *arrival = maxArrival;
  }
  if (e.pendingRecvs.empty()) return 1;  // common case: nothing in flight
  return e.pendingRecvs.overlaps(s) ? 0 : 1;
}

bool ProcTable::cacheLookup(const Entry& e, const Section& s,
                            bool wantArrival, int* state,
                            double* arrival) const {
  // Epoch-validated hit: a slot is valid while the entry epoch still
  // equals the epoch recorded at fill time, and every mutation bumps it.
  for (const CacheSlot& slot : e.cache) {
    if (!slot.valid || slot.epoch != e.epoch) continue;
    if (wantArrival && !slot.hasArrival) continue;
    if (!(slot.key == s)) continue;
    *state = slot.state;
    if (arrival != nullptr && slot.hasArrival) *arrival = slot.arrival;
    cacheHits_ += 1;
    return true;
  }
  cacheMisses_ += 1;
  return false;
}

void ProcTable::cacheStore(const Entry& e, const Section& s,
                           std::uint64_t epoch, int state, bool hasArrival,
                           double arrival) const {
  CacheSlot* victim = nullptr;
  for (CacheSlot& slot : e.cache) {
    if (slot.valid && slot.key == s) {
      victim = &slot;  // refresh in place so hot keys never evict each other
      break;
    }
  }
  if (victim == nullptr) {
    victim = &e.cache[static_cast<std::size_t>(e.cacheHand)];
    e.cacheHand = (e.cacheHand + 1) % static_cast<int>(e.cache.size());
  }
  victim->key = s;
  victim->epoch = epoch;
  victim->state = static_cast<std::int8_t>(state);
  victim->hasArrival = hasArrival;
  victim->arrival = arrival;
  victim->valid = true;
}

int ProcTable::stateCached(int sym, const Section& s, double* arrival) const {
  const Entry& e = entry(sym);
  int st = 0;
  if (cacheLookup(e, s, arrival != nullptr, &st, arrival)) return st;
  double arr = 0.0;
  st = stateOf(sym, s, arrival != nullptr ? &arr : nullptr);
  if (arrival != nullptr) *arrival = arr;
  cacheStore(e, s, e.epoch, st, arrival != nullptr, arr);
  return st;
}

bool ProcTable::iown(int sym, const Section& s) const {
  return stateCached(sym, s, nullptr) >= 0;
}

bool ProcTable::accessible(int sym, const Section& s) const {
  return stateCached(sym, s, nullptr) == 1;
}

sec::RegionList ProcTable::ownedRanges(int sym, const Section& s,
                                       bool excludeTransitional) const {
  const Entry& e = entry(sym);
  std::vector<Section> pieces;
  forEachCandidate(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (!i.empty()) pieces.push_back(std::move(i));
  });
  // Segments are pairwise disjoint, so their intersections with `s` are
  // too — RegionList can adopt them without re-diffing.
  sec::RegionList out(std::move(pieces));
  if (excludeTransitional && !out.empty()) {
    e.pendingRecvs.forEachOverlapping(s, [&](const Section& p) {
      out.subtract(p);
      return true;
    });
  }
  return out;
}

bool ProcTable::await(int sym, const Section& s, double* arrival) {
  // Fast path: an epoch-valid memo of a decided state needs no park
  // bookkeeping. A transitional memo falls through to the slow path.
  Entry& e = entry(sym);
  int cached = 0;
  if (cacheLookup(e, s, arrival != nullptr, &cached, arrival) && cached != 0)
    return cached == 1;
  while (true) {
    double arr = 0.0;
    int st = stateOf(sym, s, arrival != nullptr ? &arr : nullptr);
    if (arrival != nullptr) *arrival = arr;
    if (st != 0) {
      cacheStore(e, s, e.epoch, st, arrival != nullptr, arr);
      return st == 1;  // unowned: await returns false (Fig. 1)
    }
    FiberScheduler* sched = FiberScheduler::current();
    if (sched == nullptr) {
      std::ostringstream os;
      os << "await of transitional section " << s.str() << " of '"
         << decl(sym).name << "' on p" << pid_
         << " would block outside net::runSpmd";
      XDP_USAGE_FAIL(os.str());
    }
    // Park. Only fibers of this thread complete receives, and none runs
    // between the check above and the park, so no wake-up is lost. The
    // completion that decides the section wakes us (completeReceive).
    wait_ = CurrentWait{true, sym, s, sched, sched->self()};
    struct Unpark {
      ProcTable& t;
      ~Unpark() { t.wait_.parked = false; }
    } unpark{*this};
    sched->park();  // throws if the scheduler cancels this fiber
  }
}

ProcTable::WaitState ProcTable::waitState() const {
  return wait_.parked ? WaitState{true, wait_.sym, wait_.section}
                      : WaitState{};
}

ProcTable::CacheStats ProcTable::cacheStats() const {
  return CacheStats{cacheHits_, cacheMisses_};
}

Index ProcTable::mylb(int sym, const Section& s, int d) const {
  const Entry& e = entry(sym);
  Index best = kMaxInt;
  forEachCandidate(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    best = std::min(best, i.dim(d).lb());
  });
  return best;
}

Index ProcTable::myub(int sym, const Section& s, int d) const {
  const Entry& e = entry(sym);
  Index best = kMinInt;
  forEachCandidate(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    best = std::max(best, i.dim(d).ub());
  });
  return best;
}

int ProcTable::segmentAt(const Entry& e, const Point& p) const {
  const int hint = e.segHint;
  if (hint >= 0 && hint < static_cast<int>(e.segs.size()) &&
      e.segs[static_cast<std::size_t>(hint)].bounds.contains(p))
    return hint;
  std::array<sec::Triplet, sec::kMaxRank> dims{};
  for (int d = 0; d < p.rank(); ++d)
    dims[static_cast<std::size_t>(d)] = sec::Triplet(p[d]);
  const Section ps(p.rank(), dims);
  int found = -1;
  forEachCandidate(e, ps, [&](const SegmentDesc& seg) {
    if (found < 0 && seg.bounds.contains(p))
      found = static_cast<int>(&seg - e.segs.data());
  });
  if (found >= 0) e.segHint = found;
  return found;
}

std::byte* ProcTable::elemAt(Entry& e, int idx, const Point& p) const {
  const SegmentDesc& seg = e.segs[static_cast<std::size_t>(idx)];
  return e.pool.bytes.data() +
         (seg.elemOffset + static_cast<std::size_t>(seg.bounds.fortranPos(p))) *
             e.pool.elemSz;
}

void ProcTable::readElemsOf(const Entry& e, int sym, const Section& s,
                            std::byte* out) const {
  const std::size_t sz = e.pool.elemSz;
  if (debugChecks_ && e.pendingRecvs.overlaps(s)) {
    std::ostringstream os;
    os << "read of transitional section " << s.str() << " of symbol '"
       << decl(sym).name << "' on p" << pid_
       << " (an initiated receive has not completed)";
    XDP_USAGE_FAIL(os.str());
  }
  Index covered = 0;
  if (s.rank() > 0 && s.isPoint()) {
    const Point p = s.origin();
    const int idx = segmentAt(e, p);
    if (idx >= 0) {
      std::memcpy(out, elemAt(const_cast<Entry&>(e), idx, p), sz);
      covered = 1;
    }
  } else {
    forEachCandidate(e, s, [&](const SegmentDesc& seg) {
      Section i = Section::intersect(seg.bounds, s);
      if (i.empty()) return;
      covered += i.count();
      const std::byte* base = e.pool.bytes.data() + seg.elemOffset * sz;
      i.forEach([&](const Point& p) {
        std::memcpy(
            out + static_cast<std::size_t>(s.fortranPos(p)) * sz,
            base + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz,
            sz);
      });
    });
  }
  if (debugChecks_ && covered != s.count()) {
    std::ostringstream os;
    os << "read of unowned elements: " << s.str() << " of '"
       << decl(sym).name << "' on p" << pid_;
    XDP_USAGE_FAIL(os.str());
  }
}

std::byte* ProcTable::window1(int sym, Index lo, Index hi) {
  Entry& e = entry(sym);
  if (!e.pendingRecvs.empty()) return nullptr;
  auto holds = [&](int k) {
    if (k < 0 || k >= static_cast<int>(e.segs.size())) return false;
    const Section& b = e.segs[static_cast<std::size_t>(k)].bounds;
    return b.rank() == 1 && b.dim(0).stride() == 1 && b.dim(0).lb() <= lo &&
           hi <= b.dim(0).ub();
  };
  int k = e.segHint;
  if (!holds(k)) {
    std::array<Index, sec::kMaxRank> idx{};
    idx[0] = lo;
    k = segmentAt(e, Point(1, idx));
    if (!holds(k)) return nullptr;
  }
  const SegmentDesc& seg = e.segs[static_cast<std::size_t>(k)];
  const auto pos = static_cast<std::size_t>(lo - seg.bounds.dim(0).lb());
  return e.pool.bytes.data() + (seg.elemOffset + pos) * e.pool.elemSz;
}

void ProcTable::readElems(int sym, const Section& s, std::byte* out) const {
  readElemsOf(entry(sym), sym, s, out);
}

void ProcTable::writeElems(int sym, const Section& s, const std::byte* in) {
  Entry& e = entry(sym);
  const std::size_t sz = e.pool.elemSz;
  if (debugChecks_ && e.pendingRecvs.overlaps(s)) {
    std::ostringstream os;
    os << "write to transitional section " << s.str() << " of '"
       << decl(sym).name << "' on p" << pid_;
    XDP_USAGE_FAIL(os.str());
  }
  Index covered = 0;
  if (s.rank() > 0 && s.isPoint()) {
    const Point p = s.origin();
    const int idx = segmentAt(e, p);
    if (idx >= 0) {
      std::memcpy(elemAt(e, idx, p), in, sz);
      covered = 1;
    }
  } else {
    forEachCandidate(e, s, [&](const SegmentDesc& seg) {
      Section i = Section::intersect(seg.bounds, s);
      if (i.empty()) return;
      covered += i.count();
      std::byte* base = e.pool.bytes.data() + seg.elemOffset * sz;
      i.forEach([&](const Point& p) {
        std::memcpy(
            base + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz,
            in + static_cast<std::size_t>(s.fortranPos(p)) * sz, sz);
      });
    });
  }
  if (debugChecks_ && covered != s.count()) {
    std::ostringstream os;
    os << "write to unowned elements: " << s.str() << " of '"
       << decl(sym).name << "' on p" << pid_;
    XDP_USAGE_FAIL(os.str());
  }
}

void ProcTable::beginReceive(int sym, const Section& s) {
  Entry& e = entry(sym);
  if (debugChecks_) {
    Index covered = 0;
    if (s.rank() > 0 && s.isPoint()) {
      covered = segmentAt(e, s.origin()) >= 0 ? 1 : 0;
    } else {
      for (const SegmentDesc& seg : e.segs)
        covered += Section::intersect(seg.bounds, s).count();
    }
    if (covered != s.count()) {
      std::ostringstream os;
      os << "receive initiated into unowned section " << s.str() << " of '"
         << decl(sym).name << "' on p" << pid_;
      XDP_USAGE_FAIL(os.str());
    }
  }
  e.pendingRecvs.add(s);
  e.epoch += 1;
}

void ProcTable::completeReceive(int sym, const Section& s,
                                const std::byte* payload,
                                double arrivalTime) {
  Entry& e = entry(sym);
  const std::size_t sz = e.pool.elemSz;
  if (s.rank() > 0 && s.isPoint()) {
    const Point p = s.origin();
    const int idx = segmentAt(e, p);
    if (idx >= 0) {
      if (payload != nullptr) std::memcpy(elemAt(e, idx, p), payload, sz);
      SegmentDesc& seg = e.segs[static_cast<std::size_t>(idx)];
      seg.arrival = std::max(seg.arrival, arrivalTime);
    }
  } else {
    forEachCandidate(e, s, [&](const SegmentDesc& cseg) {
      auto& seg = const_cast<SegmentDesc&>(cseg);
      Section i = Section::intersect(seg.bounds, s);
      if (i.empty()) return;
      if (payload != nullptr) {
        std::byte* base = e.pool.bytes.data() + seg.elemOffset * sz;
        i.forEach([&](const Point& p) {
          std::memcpy(
              base + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz,
              payload + static_cast<std::size_t>(s.fortranPos(p)) * sz, sz);
        });
      }
      seg.arrival = std::max(seg.arrival, arrivalTime);
    });
  }
  // Retire exactly one outstanding receive for this section (several may
  // legally target the same name, per paper section 2.7).
  e.pendingRecvs.remove(s);
  e.epoch += 1;
  // Only a completion can decide a transitional await, and only once no
  // outstanding receive overlaps the awaited section any more.
  if (wait_.parked && wait_.sym == sym &&
      !e.pendingRecvs.overlaps(wait_.section))
    wait_.sched->wake(wait_.fiber);
}

net::Payload ProcTable::takeOwnershipOut(int sym, const Section& s,
                                         bool withValue) {
  Entry& e = entry(sym);
  const std::size_t sz = e.pool.elemSz;

  net::Payload payload;
  if (withValue) {
    payload = net::Payload(static_cast<std::size_t>(s.count()) * sz);
    readElemsOf(e, sym, s, payload.data());
  } else if (debugChecks_) {
    // Validate full ownership even when no value travels.
    if (stateOf(sym, s, nullptr) < 0) {
      std::ostringstream os;
      os << "ownership send of not-fully-owned section " << s.str()
         << " of '" << decl(sym).name << "' on p" << pid_;
      XDP_USAGE_FAIL(os.str());
    }
  }

  // Split/remove segments. New descriptors for remainder pieces get fresh
  // storage; the transferred elements' storage is released — this is the
  // paper's storage-reuse benefit (section 2.6).
  XDP_CHECK(!e.pendingRecvs.overlaps(s),
            "ownership transfer of a transitional section (missing await)");
  std::vector<SegmentDesc> kept;
  std::vector<SegmentDesc> added;
  for (SegmentDesc& seg : e.segs) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) {
      kept.push_back(std::move(seg));
      continue;
    }
    for (const Section& piece : Section::subtract(seg.bounds, s)) {
      SegmentDesc nd;
      nd.status = SegState::Accessible;
      nd.bounds = piece;
      nd.arrival = seg.arrival;
      nd.elemOffset = e.pool.allocate(static_cast<std::size_t>(piece.count()));
      // Copy the surviving values old segment -> new piece.
      const std::byte* src = e.pool.bytes.data() + seg.elemOffset * sz;
      std::byte* dst = e.pool.bytes.data() + nd.elemOffset * sz;
      piece.forEach([&](const Point& p) {
        std::memcpy(
            dst + static_cast<std::size_t>(piece.fortranPos(p)) * sz,
            src + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz, sz);
      });
      added.push_back(std::move(nd));
    }
    e.pool.release(seg.elemOffset, static_cast<std::size_t>(seg.count()));
  }
  e.segs = std::move(kept);
  e.segs.insert(e.segs.end(), std::make_move_iterator(added.begin()),
                std::make_move_iterator(added.end()));
  rebuildIndex(e);
  e.epoch += 1;
  return payload;
}

void ProcTable::beginOwnershipReceive(int sym, const Section& s) {
  Entry& e = entry(sym);
  if (debugChecks_) {
    for (const SegmentDesc& seg : e.segs) {
      if (!Section::intersect(seg.bounds, s).empty()) {
        std::ostringstream os;
        os << "ownership receive of already-owned section " << s.str()
           << " of '" << decl(sym).name << "' on p" << pid_
           << " (overlaps segment " << seg.bounds.str() << ")";
        XDP_USAGE_FAIL(os.str());
      }
    }
  }
  SegmentDesc seg;
  seg.status = SegState::Transitional;
  seg.bounds = s;
  seg.elemOffset = e.pool.allocate(static_cast<std::size_t>(s.count()));
  e.segs.push_back(std::move(seg));
  e.pendingRecvs.add(s);
  rebuildIndex(e);
  e.epoch += 1;
}

std::vector<SegmentDesc> ProcTable::segments(int sym) const {
  const Entry& e = entry(sym);
  std::vector<SegmentDesc> out = e.segs;
  // Statuses are snapshots: a segment is transitional iff an uncompleted
  // receive overlaps it (Figure 1's per-section state, segment-projected).
  for (SegmentDesc& seg : out)
    seg.status = e.pendingRecvs.overlaps(seg.bounds) ? SegState::Transitional
                                                     : SegState::Accessible;
  return out;
}

StorageStats ProcTable::storageStats(int sym) const {
  return entry(sym).pool.stats;
}

std::size_t ProcTable::totalOwnedElems() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.pool.stats.currentElems;
  return n;
}

std::size_t ProcTable::residentBytes() const {
  std::size_t n = 0;
  for (const Entry& e : entries_)
    n += e.pool.stats.currentElems * e.pool.elemSz;
  return n;
}

std::vector<std::byte> ProcTable::exportImage() const {
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const std::size_t sz = e.pool.elemSz;
    w.u32(static_cast<std::uint32_t>(e.segs.size()));
    for (const SegmentDesc& seg : e.segs) {
      net::wire::putSection(w, seg.bounds);
      w.f64(seg.arrival);
      w.bytes(e.pool.bytes.data() + seg.elemOffset * sz,
              static_cast<std::size_t>(seg.count()) * sz);
    }
    w.u32(static_cast<std::uint32_t>(e.pendingRecvs.all().size()));
    for (const Section& s : e.pendingRecvs.all()) net::wire::putSection(w, s);
    w.u64(e.epoch);
  }
  return w.take();
}

void ProcTable::restoreImage(const std::vector<std::byte>& image) {
  struct SegImg {
    Section bounds;
    double arrival;
    std::vector<std::byte> payload;
  };
  struct EntryImg {
    std::vector<SegImg> segs;
    std::vector<Section> pendingRecvs;
  };
  // Decode and validate fully before touching live entries, so a corrupt
  // image throws with the table unchanged.
  ckpt::Reader r(image);
  if (r.u32() != entries_.size())
    throw ckpt::CkptError("table image symbol count mismatch");
  std::vector<EntryImg> imgs;
  imgs.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::size_t sz = elemSize(decls_[i].type);
    EntryImg img;
    const std::uint32_t nsegs = r.u32();
    for (std::uint32_t k = 0; k < nsegs; ++k) {
      SegImg seg;
      seg.bounds = net::wire::getSection(r);
      seg.arrival = r.f64();
      seg.payload = r.bytes();
      if (seg.payload.size() !=
          static_cast<std::size_t>(seg.bounds.count()) * sz)
        throw ckpt::CkptError("table image segment payload size mismatch");
      img.segs.push_back(std::move(seg));
    }
    const std::uint32_t npend = r.u32();
    for (std::uint32_t k = 0; k < npend; ++k)
      img.pendingRecvs.push_back(net::wire::getSection(r));
    (void)r.u64();  // epoch at capture — diagnostic only, see below
    imgs.push_back(std::move(img));
  }

  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    EntryImg& img = imgs[i];
    const std::size_t sz = elemSize(decls_[i].type);
    e.pool = Pool{};
    e.pool.elemSz = sz;
    e.segs.clear();
    for (SegImg& si : img.segs) {
      SegmentDesc seg;
      seg.status = SegState::Accessible;
      seg.bounds = std::move(si.bounds);
      seg.arrival = si.arrival;
      seg.elemOffset =
          e.pool.allocate(static_cast<std::size_t>(seg.bounds.count()));
      std::memcpy(e.pool.bytes.data() + seg.elemOffset * sz,
                  si.payload.data(), si.payload.size());
      e.segs.push_back(std::move(seg));
    }
    e.pendingRecvs = PendingRecvs{};
    for (const Section& p : img.pendingRecvs) e.pendingRecvs.add(p);
    rebuildIndex(e);
    e.segHint = -1;
    // The epoch keeps running FORWARD across a rollback (never restored):
    // epochs from the abandoned timeline may live on in memo-cache slots,
    // and re-entering an already-used epoch value with different table
    // contents would validate those stale answers. Invalidate the slots
    // too, for belt and braces.
    e.epoch += 1;
    for (CacheSlot& slot : e.cache) slot.valid = false;
  }
}

}  // namespace xdp::rt
