// Proc — the per-processor view of the XDP runtime, i.e. the API a
// compiled SPMD node program calls. Every operation of the paper's
// Figure 1 has a direct counterpart here:
//
//   intrinsic / statement      Proc method
//   -------------------------  ---------------------------------------
//   mypid                      mypid()
//   mylb(X,d) / myub(X,d)      mylb(sym,X,d) / myub(sym,X,d)
//   iown(X)                    iown(sym,X)
//   accessible(X)              accessible(sym,X)
//   await(X)                   await(sym,X)
//   E ->                       send(sym,E)
//   E -> S                     send(sym,E,S)
//   E =>                       sendOwnership(sym,E,/*withValue=*/false)
//   E -=>                      sendOwnership(sym,E,/*withValue=*/true)
//   E <- X                     recv(dstSym,E, srcSym,X)
//   U <=                       recvOwnership(sym,U,/*withValue=*/false)
//   U <=-                      recvOwnership(sym,U,/*withValue=*/true)
//
// Sends are non-blocking initiations except the ownership flavours, which
// (per Figure 1) block until the section is accessible. `recv` blocks
// until the destination is accessible, then initiates; completion is
// observed via await()/accessible().
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "xdp/rt/runtime.hpp"
#include "xdp/support/check.hpp"

namespace xdp::rt {

/// Where a send goes: an unspecified processor ("E ->", the default), or
/// a bound destination set ("E -> S"). A view: the pids must outlive the
/// call, which a temporary vector argument does.
struct Dests {
  Dests() = default;
  Dests(std::nullopt_t) {}
  Dests(std::span<const int> p) : pids(p), bound(true) {}
  Dests(const std::vector<int>& p) : pids(p), bound(true) {}
  Dests(const std::optional<std::vector<int>>& p) {
    if (p.has_value()) *this = Dests(*p);
  }

  std::span<const int> pids;
  bool bound = false;
};

class Proc {
 public:
  Proc(Runtime& rt, int pid);

  // --- intrinsics -------------------------------------------------------
  int mypid() const { return pid_; }
  int nprocs() const { return rt_.nprocs(); }
  bool iown(int sym, const Section& s) const;
  bool accessible(int sym, const Section& s) const;
  /// Blocks until `s` is accessible (true), or returns false if unowned.
  /// Synchronizes the virtual clock with the awaited data's arrival time.
  bool await(int sym, const Section& s);
  Index mylb(int sym, const Section& s, int d) const;
  Index myub(int sym, const Section& s, int d) const;
  /// The owned (or, with `excludeTransitional`, accessible) sub-sections
  /// of `s`, disjoint, from one indexed table pass. One call answers what
  /// a per-element iown loop over `s` would.
  sec::RegionList ownedRanges(int sym, const Section& s,
                              bool excludeTransitional = false) const;

  // --- transfer statements ----------------------------------------------
  /// "E ->" / "E -> S": initiate a send of the name and value of `e`.
  void send(int sym, const Section& e, Dests dests = {});
  /// "E =>" / "E -=>": block until accessible, then send ownership
  /// (and, for withValue, the data) to `dests` or an unspecified processor.
  void sendOwnership(int sym, const Section& e, bool withValue,
                     Dests dests = {});
  /// "E <- X": block until `e` accessible, then initiate a receive of the
  /// message named (srcSym, x) into `e`. Element counts must match.
  void recv(int dstSym, const Section& e, int srcSym, const Section& x);
  /// "U <=" / "U <=-": initiate a receive of ownership (and value) of `u`.
  void recvOwnership(int sym, const Section& u, bool withValue);

  // --- aggregated transfers (paper 3.2's proposed extension) -------------
  // A *set* of sections moves as ONE message: one alpha, one match. The
  // sections are packed in order; the matching receive must name the same
  // set. `sendOwnershipMulti` additionally relinquishes every section
  // (blocking until each is accessible, like "-=>").
  void sendMulti(int sym, const std::vector<Section>& secs,
                 Dests dests = {});
  void recvMulti(int dstSym, const std::vector<Section>& dsts, int srcSym,
                 const std::vector<Section>& names);
  void sendOwnershipMulti(int sym, const std::vector<Section>& secs,
                          bool withValue, Dests dests = {});
  void recvOwnershipMulti(int sym, const std::vector<Section>& secs,
                          bool withValue);

  // --- local data access --------------------------------------------------
  template <typename T>
  std::vector<T> read(int sym, const Section& s) const {
    checkType<T>(sym);
    std::vector<T> out(static_cast<std::size_t>(s.count()));
    table().readElems(sym, s, reinterpret_cast<std::byte*>(out.data()));
    return out;
  }
  template <typename T>
  void write(int sym, const Section& s, std::span<const T> values) {
    checkType<T>(sym);
    XDP_CHECK(static_cast<Index>(values.size()) == s.count(),
              "write: value count != section count");
    table().writeElems(sym, s,
                       reinterpret_cast<const std::byte*>(values.data()));
  }
  template <typename T>
  T get(int sym, const Point& p) const {
    return read<T>(sym, pointSection(p))[0];
  }
  template <typename T>
  void set(int sym, const Point& p, const T& v) {
    write<T>(sym, pointSection(p), std::span<const T>(&v, 1));
  }

  // --- machine ------------------------------------------------------------
  /// Advance this processor's virtual clock by `dt` (modeled local work).
  void compute(double dt);
  void barrier();
  double clock() const;
  ProcTable& table() const;

 private:
  template <typename T>
  void checkType(int sym) const {
    XDP_CHECK(table().decl(sym).type == elemTypeOf<T>(),
              "element type mismatch");
  }
  static Section pointSection(const Point& p);
  /// Send a packed payload to `dests` (ownership kinds: to one processor).
  void sendPayload(const net::Name& name, net::TransferKind kind,
                   net::Payload payload, Dests dests);

  Runtime& rt_;
  const int pid_;
};

}  // namespace xdp::rt
