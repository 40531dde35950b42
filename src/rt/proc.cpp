#include "xdp/rt/proc.hpp"

#include <sstream>

#include "xdp/support/check.hpp"

namespace xdp::rt {

Proc::Proc(Runtime& rt, int pid) : rt_(rt), pid_(pid) {}

ProcTable& Proc::table() const { return rt_.table(pid_); }

Section Proc::pointSection(const Point& p) {
  std::vector<sec::Triplet> dims;
  for (int d = 0; d < p.rank(); ++d) dims.emplace_back(p[d]);
  return Section(dims);
}

bool Proc::iown(int sym, const Section& s) const {
  return table().iown(sym, s);
}

bool Proc::accessible(int sym, const Section& s) const {
  return table().accessible(sym, s);
}

bool Proc::await(int sym, const Section& s) {
  double arrival = 0.0;
  if (!table().await(sym, s, &arrival)) return false;
  // Synchronizing with received data: pull this processor's virtual clock
  // to the data's arrival time (overlap already performed locally is kept)
  // and charge the receive-side overhead once.
  if (arrival > 0.0) {
    rt_.fabric().syncClock(pid_, arrival);
    rt_.fabric().advance(pid_, rt_.fabric().model().alpha);
  }
  return true;
}

Index Proc::mylb(int sym, const Section& s, int d) const {
  return table().mylb(sym, s, d);
}

Index Proc::myub(int sym, const Section& s, int d) const {
  return table().myub(sym, s, d);
}

sec::RegionList Proc::ownedRanges(int sym, const Section& s,
                                  bool excludeTransitional) const {
  return table().ownedRanges(sym, s, excludeTransitional);
}

void Proc::sendPayload(const net::Name& name, net::TransferKind kind,
                       net::Payload payload, Dests dests) {
  if (!dests.bound) {
    rt_.fabric().send(pid_, name, kind, std::move(payload), std::nullopt);
    return;
  }
  if (kind != net::TransferKind::Data)
    XDP_CHECK(dests.pids.size() == 1,
              "ownership can be sent to exactly one processor");
  rt_.fabric().sendToSet(pid_, name, kind, std::move(payload), dests.pids);
}

void Proc::send(int sym, const Section& e, Dests dests) {
  ProcTable& t = table();
  net::Payload payload(static_cast<std::size_t>(e.count()) *
                       elemSize(t.decl(sym).type));
  t.readElems(sym, e, payload.data());
  sendPayload(net::Name{sym, e, {}}, net::TransferKind::Data,
              std::move(payload), dests);
}

void Proc::sendOwnership(int sym, const Section& e, bool withValue,
                         Dests dests) {
  ProcTable& t = table();
  // "Owner send operations block until the section is accessible."
  double arrival = 0.0;
  if (!t.await(sym, e, &arrival)) {
    if (rt_.options().debugChecks) {
      std::ostringstream os;
      os << "ownership send of unowned section " << e.str() << " on p"
         << pid_;
      XDP_USAGE_FAIL(os.str());
    }
    return;  // undefined behaviour in XDP; we make it a silent no-op
  }
  net::Payload payload = t.takeOwnershipOut(sym, e, withValue);
  sendPayload(net::Name{sym, e, {}},
              withValue ? net::TransferKind::OwnershipAndValue
                        : net::TransferKind::Ownership,
              std::move(payload), dests);
}

void Proc::recv(int dstSym, const Section& e, int srcSym, const Section& x) {
  ProcTable& t = table();
  XDP_CHECK(e.count() == x.count(),
            "receive: destination and name sections differ in size");
  XDP_CHECK(t.decl(dstSym).type == t.decl(srcSym).type,
            "receive: element type mismatch");
  // "E <- X blocks until E is accessible, then initiates the receive."
  if (!t.await(dstSym, e, nullptr)) {
    if (rt_.options().debugChecks) {
      std::ostringstream os;
      os << "receive into unowned section " << e.str() << " on p" << pid_;
      XDP_USAGE_FAIL(os.str());
    }
    return;
  }
  t.beginReceive(dstSym, e);
  rt_.fabric().postReceive(pid_, net::Name{srcSym, x, {}},
                           net::TransferKind::Data,
                           net::RecvDesc{dstSym, e, {}, false});
}

void Proc::recvOwnership(int sym, const Section& u, bool withValue) {
  table().beginOwnershipReceive(sym, u);
  rt_.fabric().postReceive(pid_, net::Name{sym, u, {}},
                           withValue ? net::TransferKind::OwnershipAndValue
                                     : net::TransferKind::Ownership,
                           net::RecvDesc{sym, u, {}, withValue});
}

namespace {

net::Name multiName(int sym, const std::vector<Section>& secs) {
  XDP_CHECK(!secs.empty(), "aggregated transfer needs at least one section");
  net::Name n;
  n.symbol = sym;
  n.section = secs.front();
  n.rest.assign(secs.begin() + 1, secs.end());
  return n;
}

net::RecvDesc multiDesc(int sym, const std::vector<Section>& secs,
                        bool withValue) {
  return net::RecvDesc{sym, secs.front(),
                       std::vector<Section>(secs.begin() + 1, secs.end()),
                       withValue};
}

}  // namespace

void Proc::sendMulti(int sym, const std::vector<Section>& secs,
                     Dests dests) {
  ProcTable& t = table();
  const std::size_t sz = elemSize(t.decl(sym).type);
  std::size_t total = 0;
  for (const Section& s : secs) total += static_cast<std::size_t>(s.count());
  net::Payload payload(total * sz);
  std::size_t off = 0;
  for (const Section& s : secs) {
    t.readElems(sym, s, payload.data() + off);
    off += static_cast<std::size_t>(s.count()) * sz;
  }
  sendPayload(multiName(sym, secs), net::TransferKind::Data,
              std::move(payload), dests);
}

void Proc::recvMulti(int dstSym, const std::vector<Section>& dsts,
                     int srcSym, const std::vector<Section>& names) {
  ProcTable& t = table();
  XDP_CHECK(dsts.size() == names.size(),
            "aggregated receive: destination/name section counts differ");
  for (std::size_t k = 0; k < dsts.size(); ++k) {
    XDP_CHECK(dsts[k].count() == names[k].count(),
              "aggregated receive: section size mismatch");
    if (!t.await(dstSym, dsts[k], nullptr)) {
      if (rt_.options().debugChecks)
        XDP_USAGE_FAIL("aggregated receive into unowned section");
      return;
    }
  }
  const net::Name name = multiName(srcSym, names);
  for (const Section& d : dsts) t.beginReceive(dstSym, d);
  rt_.fabric().postReceive(pid_, name, net::TransferKind::Data,
                           multiDesc(dstSym, dsts, false));
}

void Proc::sendOwnershipMulti(int sym, const std::vector<Section>& secs,
                              bool withValue, Dests dests) {
  ProcTable& t = table();
  std::vector<std::byte> packed;
  for (const Section& s : secs) {
    double arrival = 0.0;
    if (!t.await(sym, s, &arrival)) {
      if (rt_.options().debugChecks)
        XDP_USAGE_FAIL("aggregated ownership send of unowned section");
      return;
    }
    net::Payload part = t.takeOwnershipOut(sym, s, withValue);
    packed.insert(packed.end(), part.data(), part.data() + part.size());
  }
  sendPayload(multiName(sym, secs),
              withValue ? net::TransferKind::OwnershipAndValue
                        : net::TransferKind::Ownership,
              net::Payload(packed), dests);
}

void Proc::recvOwnershipMulti(int sym, const std::vector<Section>& secs,
                              bool withValue) {
  const net::Name name = multiName(sym, secs);
  ProcTable& t = table();
  for (const Section& s : secs) t.beginOwnershipReceive(sym, s);
  rt_.fabric().postReceive(pid_, name,
                           withValue ? net::TransferKind::OwnershipAndValue
                                     : net::TransferKind::Ownership,
                           multiDesc(sym, secs, withValue));
}

void Proc::compute(double dt) { rt_.fabric().advance(pid_, dt); }

void Proc::barrier() { rt_.fabric().barrier(pid_); }

double Proc::clock() const { return rt_.fabric().clock(pid_); }

}  // namespace xdp::rt
