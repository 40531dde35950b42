// The per-processor run-time XDP symbol table (paper section 3.1).
//
// "Each processor must maintain and update its own local copy of the XDP
// symbol table structure at run-time, unless all uses of the table have
// been optimized away. In contrast to a regular symbol table, the run-time
// XDP symbol table only contains information about exclusive sections."
//
// The table holds, per symbol, a dynamic array of segment descriptors and
// a storage pool. Ownership transfer removes/creates descriptors (the
// paper's "shaded" run-time fields); a section is *unowned* exactly when
// some element of it is covered by no descriptor. Segments are split when
// ownership of a sub-section leaves, so transfers work at any granularity
// the compiler chooses (the language permits single elements; segments are
// the efficiency mechanism).
//
// Ownership fast path (DESIGN.md "Ownership fast path"): the paper's
// iown() sits on the hot path of every owner-computes guard, so the table
// keeps three accelerating structures per symbol:
//   * a sorted dim-0 interval index over the segment descriptors, so
//     coverage queries intersect O(log n + k) candidates instead of every
//     segment;
//   * an *ownership epoch*, bumped by every mutating transition (receive
//     initiation/completion, ownership send/receive), which timestamps
//     any derived result;
//   * a small epoch-validated memo cache, so a repeated iown/accessible/
//     await query on the same section is one epoch compare.
// A one-element section (a point) resolves its segment through a
// last-segment hint and touches one element, with no section algebra.
//
// One thread per machine: a table is used by one thread at a time — its
// machine's fibers (xdp::FiberScheduler), or the caller between runs — so
// it takes no lock. Fabric completions call back into completeReceive on
// the sending processor's fiber.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "xdp/net/message.hpp"
#include "xdp/rt/symbol.hpp"
#include "xdp/sections/region_list.hpp"
#include "xdp/support/fiber.hpp"

namespace xdp::rt {

/// Storage accounting, for the paper's "storage it had occupied can be
/// reused for a newly acquired section" claim (section 2.6).
struct StorageStats {
  std::size_t currentElems = 0;
  std::size_t peakElems = 0;
  std::size_t poolElems = 0;  ///< backing pool size (high-water allocation)
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

class ProcTable {
 public:
  ProcTable(int pid, const std::vector<SymbolDecl>& decls, bool debugChecks);

  int pid() const { return pid_; }
  const SymbolDecl& decl(int sym) const;
  int numSymbols() const { return static_cast<int>(decls_.size()); }

  // --- intrinsics (paper Figure 1) ------------------------------------
  bool iown(int sym, const Section& s) const;
  bool accessible(int sym, const Section& s) const;
  /// Returns false immediately if `s` is unowned; otherwise parks the
  /// calling fiber until accessible and returns true. If `arrival` is
  /// non-null it receives the max virtual arrival time over the segments
  /// covering `s`. Parking needs a fiber (net::runSpmd): a transitional
  /// await anywhere else is a UsageError, since nothing could complete it.
  bool await(int sym, const Section& s, double* arrival = nullptr);
  Index mylb(int sym, const Section& s, int d) const;
  Index myub(int sym, const Section& s, int d) const;

  /// The maximal owned sub-sections of `s`, as disjoint sections, computed
  /// in one indexed pass (the query API behind interpreter guard
  /// range-splitting). With `excludeTransitional`, sub-sections overlapped
  /// by an uncompleted receive are removed, i.e. the result is the
  /// *accessible* part of `s`.
  sec::RegionList ownedRanges(int sym, const Section& s,
                              bool excludeTransitional = false) const;

  // --- element access --------------------------------------------------
  /// Gather the owned elements of `s` into `out` (count()*elemSize bytes),
  /// in `s`'s Fortran order. Unowned positions are left untouched. In
  /// debug-checks mode, reading an incompletely-owned or non-accessible
  /// section is a usage error.
  void readElems(int sym, const Section& s, std::byte* out) const;
  /// Scatter `in` (Fortran order of `s`) into the owned elements of `s`.
  void writeElems(int sym, const Section& s, const std::byte* in);

  /// Storage of elements lo..hi (lo <= hi) of rank-1 symbol `sym` when
  /// all of them lie in one accessible stride-1 segment and no receive
  /// into `sym` is outstanding: element x sits at the result + (x - lo) *
  /// elemSize. nullptr otherwise. Valid until the table changes; the
  /// bytecode VM's loop kernels hold it across a pure loop, whose body
  /// cannot change the table (a step hook may read the table meanwhile
  /// but must not change it).
  std::byte* window1(int sym, Index lo, Index hi);

  // --- transfer-engine hooks (used by Proc, not by node programs) ------
  /// Receive initiation: put every segment intersecting `s` in state
  /// transitional (paper section 2.7). `s` must be owned.
  void beginReceive(int sym, const Section& s);
  /// Receive completion: optionally scatter `payload` (Fortran order of
  /// `s`), restore segments to accessible, record `arrivalTime`, wake
  /// awaiters.
  void completeReceive(int sym, const Section& s, const std::byte* payload,
                       double arrivalTime);
  /// Ownership-send bookkeeping: remove `s` from the owned set, splitting
  /// boundary segments; returns the serialized values of `s` when
  /// `withValue` (empty otherwise). Caller must have awaited
  /// accessibility of `s` first.
  net::Payload takeOwnershipOut(int sym, const Section& s, bool withValue);
  /// Ownership-receive initiation: `s` must be entirely unowned; creates a
  /// transitional segment (zero-initialized storage) covering `s`.
  void beginOwnershipReceive(int sym, const Section& s);

  // --- introspection ----------------------------------------------------
  std::vector<SegmentDesc> segments(int sym) const;
  StorageStats storageStats(int sym) const;
  /// Sum of currently owned elements over all symbols (storage footprint).
  std::size_t totalOwnedElems() const;

  /// Bytes currently resident (owned elements x element size, summed over
  /// all symbols) — the figure per-session memory quotas are enforced
  /// against (see xdp::serve::Quotas::maxResidentBytes).
  std::size_t residentBytes() const;

  /// Memo-cache effectiveness over this table's lifetime (all symbols).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  CacheStats cacheStats() const;

  // --- hang diagnostics --------------------------------------------------
  /// What this processor's fiber is parked on in await(), if anything.
  struct WaitState {
    bool blocked = false;
    int sym = -1;
    Section section;
  };
  WaitState waitState() const;

  // --- checkpoint image (DESIGN.md §11) ---------------------------------
  /// Serialize this table's run-time contents: per symbol, the segment
  /// descriptors (bounds, arrival, element payload) and the outstanding
  /// receive sections, plus the ownership epoch. Callers export only at
  /// a capture point.
  std::vector<std::byte> exportImage() const;
  /// Inverse of exportImage: rebuild every entry from the image. Storage
  /// is reallocated, indexes rebuilt, memo caches
  /// invalidated, epochs advanced past every value ever handed out (so no
  /// stale epoch-validated cache entry can survive the rollback), and
  /// waiters woken. Throws CkptError on a malformed image.
  void restoreImage(const std::vector<std::byte>& image);

 private:
  struct Pool {
    std::vector<std::byte> bytes;
    std::vector<std::pair<std::size_t, std::size_t>> freeList;  // offset,elems
    std::size_t elemSz = 1;
    StorageStats stats;

    std::size_t allocate(std::size_t elems);
    void release(std::size_t offset, std::size_t elems);
  };
  /// One memo slot: the state (and optionally arrival fold) of a query
  /// section, valid while the entry epoch still equals `epoch`.
  struct CacheSlot {
    Section key;
    std::uint64_t epoch = 0;
    double arrival = 0.0;
    std::int8_t state = 0;        // -1 unowned / 0 transitional / 1 accessible
    bool valid = false;
    bool hasArrival = false;      // arrival fold was computed for this fill
  };
  /// Outstanding (initiated, uncompleted) receive sections of one symbol:
  /// a section is transitional iff it intersects one of them (exact
  /// per-section state), and several may name one section (paper section
  /// 2.7). Sorted by dim-0 lower bound in one vector whose retired prefix
  /// is dropped lazily, so posting in order appends, completing in order
  /// advances the front (both O(1) amortized, allocation-free once the
  /// vector has grown), and no section reaches more than `widest_` past
  /// its key, so an overlap query scans only keys in [lb - widest, ub].
  class PendingRecvs {
   public:
    bool empty() const { return head_ == v_.size(); }
    /// The outstanding sections, in key order.
    std::span<const Section> all() const {
      return std::span<const Section>(v_).subspan(head_);
    }
    void add(const Section& s);
    void remove(const Section& s);  ///< retire one receive of exactly `s`
    /// Call `fn` on the outstanding sections that intersect `s` until it
    /// returns false; true iff there was one.
    template <typename Fn>
    bool forEachOverlapping(const Section& s, Fn&& fn) const;
    bool overlaps(const Section& s) const;

   private:
    static Index key(const Section& s) {
      return s.rank() == 0 ? 0 : s.dim(0).lb();
    }
    /// First position in [head_, size) whose key is not less (lower) or
    /// greater (!lower) than `k`.
    std::size_t bound(Index k, bool lower) const;
    std::vector<Section> v_;  ///< sorted by key from head_ on
    std::size_t head_ = 0;    ///< v_[0, head_) are retired
    Index widest_ = 0;  ///< max dim-0 ub - lb since the index last emptied
  };

  struct Entry {
    std::vector<SegmentDesc> segs;
    PendingRecvs pendingRecvs;
    Pool pool;

    // --- ownership fast path ------------------------------------------
    /// Seg indices sorted by dim-0 lower bound, plus the running max of
    /// dim-0 upper bound over that order: candidates overlapping a query
    /// [qlb,qub] are a binary search plus a bounded backward walk.
    std::vector<int> order;
    std::vector<Index> prefixMaxUb;
    /// Bumped by every mutation that can change the answer of a state
    /// query: segs or pendingRecvs edits, arrival updates.
    std::uint64_t epoch = 0;
    mutable std::array<CacheSlot, 4> cache;
    mutable int cacheHand = 0;
    /// Hint for the point paths: index of the segment that served the
    /// last point access. Pure accelerator — always re-validated against
    /// the live descriptor before use.
    mutable int segHint = -1;
  };

  const Entry& entry(int sym) const;
  Entry& entry(int sym);

  /// Coverage of `s` by this table's segments: -1 if some element unowned,
  /// 0 if owned but an uncompleted receive overlaps `s` (transitional),
  /// 1 if accessible. Folds the max arrival only when `arrival` is
  /// non-null.
  int stateOf(int sym, const Section& s, double* arrival) const;

  /// Cached state query: memo hit or compute + fill. Returns the state;
  /// fills `*arrival` when non-null.
  int stateCached(int sym, const Section& s, double* arrival) const;

  /// Visit the segments that can intersect `s`, via the dim-0 index when
  /// profitable.
  template <typename Fn>
  void forEachCandidate(const Entry& e, const Section& s, Fn&& fn) const;

  /// Recompute `order`/`prefixMaxUb` after a segs mutation.
  static void rebuildIndex(Entry& e);

  bool cacheLookup(const Entry& e, const Section& s, bool wantArrival,
                   int* state, double* arrival) const;
  void cacheStore(const Entry& e, const Section& s, std::uint64_t epoch,
                  int state, bool hasArrival, double arrival) const;

  void readElemsOf(const Entry& e, int sym, const Section& s,
                   std::byte* out) const;

  /// Index of the segment containing `p`, hint-first; -1 if uncovered.
  int segmentAt(const Entry& e, const Point& p) const;
  /// Storage of the element at `p` of segment `idx`.
  std::byte* elemAt(Entry& e, int idx, const Point& p) const;

  const int pid_;
  const bool debugChecks_;
  std::vector<SymbolDecl> decls_;

  std::vector<Entry> entries_;

  mutable std::uint64_t cacheHits_ = 0;
  mutable std::uint64_t cacheMisses_ = 0;

  // The await parked on this table: only the table's own processor awaits
  // on it.
  struct CurrentWait {
    bool parked = false;
    int sym = -1;
    Section section;
    FiberScheduler* sched = nullptr;
    int fiber = -1;
  };
  CurrentWait wait_;
};

}  // namespace xdp::rt
