#include "xdp/net/fabric.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "xdp/net/wire.hpp"
#include "xdp/support/check.hpp"

namespace xdp::net {

const char* transferKindName(TransferKind k) {
  switch (k) {
    case TransferKind::Data:
      return "data";
    case TransferKind::Ownership:
      return "ownership";
    case TransferKind::OwnershipAndValue:
      return "ownership+value";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Name& n) {
  return os << "sym#" << n.symbol << n.section;
}

NetStats& NetStats::operator+=(const NetStats& o) {
  messagesSent += o.messagesSent;
  bytesSent += o.bytesSent;
  messagesReceived += o.messagesReceived;
  bytesReceived += o.bytesReceived;
  rendezvousSends += o.rendezvousSends;
  directSends += o.directSends;
  ownershipTransfers += o.ownershipTransfers;
  unexpectedMessages += o.unexpectedMessages;
  return *this;
}

Fabric::Fabric(int nprocs, CostModel model)
    : nprocs_(nprocs), model_(model), eps_(static_cast<std::size_t>(nprocs)) {
  XDP_CHECK(nprocs >= 1, "fabric needs at least one endpoint");
  if (auto plan = currentGlobalFaultPlan())
    injector_ = std::make_unique<FaultInjector>(*plan, nprocs_);
}

Fabric::~Fabric() = default;

void Fabric::checkPid(int pid, const char* what) const {
  if (pid < 0 || pid >= nprocs_) {
    std::ostringstream os;
    os << what << ": pid " << pid << " out of range [0, " << nprocs_ << ")";
    XDP_USAGE_FAIL(os.str());
  }
}

double Fabric::clock(int pid) const {
  checkPid(pid, "clock");
  return ep(pid).clock;
}

void Fabric::advance(int pid, double dt) {
  checkPid(pid, "advance");
  ep(pid).clock += dt;
}

void Fabric::syncClock(int pid, double t) {
  checkPid(pid, "syncClock");
  Endpoint& e = ep(pid);
  e.clock = std::max(e.clock, t);
}

double Fabric::makespan() const {
  double m = 0.0;
  for (const auto& e : eps_) m = std::max(m, e.clock);
  return m;
}

void Fabric::resetClocks() {
  for (auto& e : eps_) e.clock = 0.0;
}

// --- slabs and FIFOs ---------------------------------------------------------

template <class T>
void Fabric::linkBack(std::vector<T>& slab, Link T::*link, Fifo& q,
                      std::uint32_t i) {
  Link& l = slab[i].*link;
  l.prev = q.tail;
  l.next = kNil;
  if (q.tail != kNil)
    (slab[q.tail].*link).next = i;
  else
    q.head = i;
  q.tail = i;
  q.size += 1;
}

template <class T>
void Fabric::unlink(std::vector<T>& slab, Link T::*link, Fifo& q,
                    std::uint32_t i) {
  Link& l = slab[i].*link;
  if (l.prev != kNil)
    (slab[l.prev].*link).next = l.next;
  else
    q.head = l.next;
  if (l.next != kNil)
    (slab[l.next].*link).prev = l.prev;
  else
    q.tail = l.prev;
  l.prev = l.next = kNil;
  q.size -= 1;
}

std::uint32_t Fabric::newReceive() {
  if (!freeRecvs_.empty()) {
    const std::uint32_t r = freeRecvs_.back();
    freeRecvs_.pop_back();
    return r;
  }
  recvs_.emplace_back();
  return static_cast<std::uint32_t>(recvs_.size() - 1);
}

void Fabric::freeReceive(std::uint32_t r) { freeRecvs_.push_back(r); }

void Fabric::retireReceive(std::uint32_t r) {
  PendingReceive& pr = recvs_[r];
  unlink(recvs_, &PendingReceive::atEp, ep(pr.pid).pending, r);
  if (pr.interest) {
    unlink(recvs_, &PendingReceive::atMatcher, interest_, r);
    pr.interest = false;
  }
  freeReceive(r);
}

void Fabric::park(Fifo& q, Message msg) {
  std::uint32_t m;
  if (!freeParked_.empty()) {
    m = freeParked_.back();
    freeParked_.pop_back();
  } else {
    parked_.emplace_back();
    m = static_cast<std::uint32_t>(parked_.size() - 1);
  }
  parked_[m].msg = std::move(msg);
  linkBack(parked_, &Parked::link, q, m);
}

Message Fabric::unpark(Fifo& q, std::uint32_t m) {
  unlink(parked_, &Parked::link, q, m);
  freeParked_.push_back(m);
  return std::move(parked_[m].msg);
}

std::uint32_t Fabric::addPending(int pid, const Name& name, TransferKind kind,
                                 double postClock, RecvDesc desc,
                                 bool interest) {
  const std::uint32_t r = newReceive();
  PendingReceive& pr = recvs_[r];
  pr.id = nextId_++;
  pr.pid = pid;
  pr.name = name;
  pr.kind = kind;
  pr.postClock = postClock;
  pr.desc = std::move(desc);
  pr.interest = interest;
  linkBack(recvs_, &PendingReceive::atEp, ep(pid).pending, r);
  if (interest) linkBack(recvs_, &PendingReceive::atMatcher, interest_, r);
  return r;
}

void Fabric::clearQueues() {
  for (auto& e : eps_) {
    e.unexpected = Fifo{};
    e.pending = Fifo{};
  }
  matcherMsgs_ = Fifo{};
  interest_ = Fifo{};
  recvs_.clear();
  freeRecvs_.clear();
  parked_.clear();
  freeParked_.clear();
}

// --- delivery ---------------------------------------------------------------

bool Fabric::dupSuppressed(const Message& msg) {
  if (msg.dupId == 0 || completedDups_.count(msg.dupId) == 0) return false;
  dupSuppressedCount_ += 1;
  return true;
}

bool Fabric::deliver(int pid, double postClock, const RecvDesc& desc,
                     Message& msg) {
  if (msg.dupId != 0 && !completedDups_.insert(msg.dupId).second) {
    // The twin already completed a receive (exactly-once semantics).
    dupSuppressedCount_ += 1;
    return false;
  }
  Endpoint& e = ep(pid);
  e.stats.messagesReceived += 1;
  e.stats.bytesReceived += msg.payload.size();
  // Unexpected-message criterion in *virtual* time: the message landed
  // before the receive was posted, so the fabric buffered it and the data
  // only becomes usable once the extra copy is done. The copy is charged
  // through the arrival time alone: the receiver pays it when it awaits
  // the data. This may run on the sender's fiber, so it must not write
  // the receiver's clock — that would land at a schedule-dependent point
  // of the receiver's timeline.
  if (msg.arrival < postClock) {
    e.stats.unexpectedMessages += 1;
    msg.arrival = postClock + model_.unexpectedCost(msg.payload.size());
  }
  complete_(pid, desc, msg);
  return true;
}

void Fabric::purgeDuplicate(std::uint64_t dupId) {
  auto drop = [&](Fifo& q) {
    for (std::uint32_t m = q.head; m != kNil; m = parked_[m].link.next) {
      if (parked_[m].msg.dupId == dupId) {
        (void)unpark(q, m);
        dupSuppressedCount_ += 1;
        return true;
      }
    }
    return false;
  };
  if (drop(matcherMsgs_)) return;
  for (auto& e : eps_)
    if (drop(e.unexpected)) return;
}

void Fabric::deliverDirect(int dst, Message msg) {
  Endpoint& e = ep(dst);
  for (std::uint32_t r = e.pending.head; r != kNil; r = recvs_[r].atEp.next) {
    const PendingReceive& pr = recvs_[r];
    if (!matches(pr.name, pr.kind, msg.name, msg.kind)) continue;
    const std::uint64_t dupId = msg.dupId;
    if (deliver(dst, pr.postClock, pr.desc, msg)) {
      // The completed receive's rendezvous interest goes with it.
      retireReceive(r);
      if (dupId != 0) purgeDuplicate(dupId);
    }
    // On suppression the receive stays posted (its real message is the
    // twin that already completed elsewhere); this copy is simply gone.
    return;
  }
  if (!dupSuppressed(msg)) park(e.unexpected, std::move(msg));
}

void Fabric::routeRendezvous(Message msg) {
  if (dupSuppressed(msg)) return;  // twin already completed a receive
  // FCFS: hand to the first registered receive interest with this name.
  for (std::uint32_t r = interest_.head; r != kNil;
       r = recvs_[r].atMatcher.next) {
    const PendingReceive& pr = recvs_[r];
    if (!matches(pr.name, pr.kind, msg.name, msg.kind)) continue;
    const std::uint64_t dupId = msg.dupId;
    if (deliver(pr.pid, pr.postClock, pr.desc, msg)) {
      retireReceive(r);
      if (dupId != 0) purgeDuplicate(dupId);
    }
    return;
  }
  park(matcherMsgs_, std::move(msg));
}

void Fabric::route(Message msg, std::optional<int> dest) {
  if (dest.has_value()) {
    deliverDirect(*dest, std::move(msg));
    return;
  }
  routeRendezvous(std::move(msg));
}

void Fabric::send(int src, const Name& name, TransferKind kind,
                  Payload payload, std::optional<int> dest) {
  checkPid(src, "send source");
  if (dest.has_value()) checkPid(*dest, "send destination");
  // A yield point (see file comment).
  if (FiberScheduler* s = FiberScheduler::current()) s->yieldIfBehind();
  const std::size_t bytes = payload.size();
  // Admission first, with no state changed: a rejected send (quota
  // throw) costs the fabric nothing.
  if (sendHook_) sendHook_(src, bytes);

  Message msg;
  msg.name = name;
  msg.kind = kind;
  msg.src = src;
  msg.payload = std::move(payload);
  Endpoint& s = ep(src);
  s.clock += model_.sendCost(bytes);
  s.stats.messagesSent += 1;
  s.stats.bytesSent += bytes;
  if (kind != TransferKind::Data) s.stats.ownershipTransfers += 1;
  msg.arrival = s.clock + model_.latency;
  if (dest.has_value()) {
    s.stats.directSends += 1;
  } else {
    s.stats.rendezvousSends += 1;
    msg.arrival += model_.matchHop;  // extra control hop via the matchmaker
  }
  if (injector_) {
    faultSend(src, std::move(msg), dest);
    return;
  }
  route(std::move(msg), dest);
}

void Fabric::faultSend(int src, Message msg, std::optional<int> dest) {
  // Decide every fate first, then route: `out` preserves the required
  // delivery order.
  FaultInjector& in = *injector_;
  if (in.crashNow(src)) {
    if (in.plan().crashFate != CrashFate::Recover || !crashHook_) {
      std::ostringstream os;
      os << "fault injection: endpoint p" << src << " crashed (plan allows "
         << in.plan().crashAfterSends << " sends)";
      throw FaultAbort(os.str());
    }
    // The crashed endpoint's send is lost.
    crashHook_(src);
    throw ckpt::RollbackSignal{src};
  }
  std::vector<std::pair<Message, std::optional<int>>> out;
  const FaultInjector::Outcome o = in.classify(src);
  msg.arrival += o.extraDelay;
  // Never let two same-name messages from one source overtake each other
  // (MPI's non-overtaking rule): release a held twin-channel message
  // first.
  if (in.hasHeld(src) && in.heldName(src) == msg.name) {
    FaultInjector::Held h = in.takeHeld(src);
    out.emplace_back(std::move(h.msg), h.dest);
  }
  if (!o.drop) {  // on drop: sender paid for it; the fabric lost it
    std::optional<Message> dup;
    if (o.duplicate) {
      msg.dupId = in.newDupId();
      dup = msg;  // deep copy, including the shared dupId
    }
    if (o.hold && !in.hasHeld(src)) {
      in.hold(src, std::move(msg), dest);
      if (dup.has_value()) out.emplace_back(std::move(*dup), dest);
    } else {
      out.emplace_back(std::move(msg), dest);
      if (dup.has_value()) out.emplace_back(std::move(*dup), dest);
      if (in.hasHeld(src)) {
        // This send releases the previously held message *after* the new
        // one: the adjacent pair has been reordered.
        FaultInjector::Held h = in.takeHeld(src);
        out.emplace_back(std::move(h.msg), h.dest);
      }
    }
  }
  for (auto& [m, d] : out) route(std::move(m), d);
}

void Fabric::sendToSet(int src, const Name& name, TransferKind kind,
                       Payload payload, std::span<const int> dests) {
  XDP_CHECK(!dests.empty(), "sendToSet: empty destination set");
  for (std::size_t k = 0; k + 1 < dests.size(); ++k)
    send(src, name, kind, payload, dests[k]);
  send(src, name, kind, std::move(payload), dests.back());
}

void Fabric::setCompletion(CompletionFn fn) { complete_ = std::move(fn); }

ReceiveId Fabric::postReceive(int pid, const Name& name, TransferKind kind,
                              RecvDesc desc) {
  checkPid(pid, "postReceive");
  // A yield point (see file comment). Nothing below yields, so the
  // pairing decision sees the queues exactly as they are now.
  if (FiberScheduler* s = FiberScheduler::current()) s->yieldIfBehind();
  XDP_CHECK(complete_ != nullptr, "postReceive: no completion routine");
  Endpoint& e = ep(pid);
  const double postClock = e.clock;
  // Complete from the unexpected queue (a directly-addressed message that
  // already arrived; whether it counts as "unexpected" is decided on
  // virtual clocks in deliver), then from the matcher's parked
  // unspecified sends; otherwise post and register interest.
  for (Fifo* q : {&e.unexpected, &matcherMsgs_}) {
    for (std::uint32_t m = q->head; m != kNil;) {
      const std::uint32_t next = parked_[m].link.next;
      const Message& pm = parked_[m].msg;
      if (matches(name, kind, pm.name, pm.kind)) {
        Message msg = unpark(*q, m);
        const std::uint64_t dupId = msg.dupId;
        if (deliver(pid, postClock, desc, msg)) {
          if (dupId != 0) purgeDuplicate(dupId);
          return nextId_++;
        }
        // A suppressed duplicate, now dropped; keep scanning.
      }
      m = next;
    }
  }
  return recvs_[addPending(pid, name, kind, postClock, std::move(desc),
                           /*interest=*/true)]
      .id;
}

void Fabric::barrier(int pid) {
  checkPid(pid, "barrier");
  // A processor entering a barrier will not send again until released;
  // anything the injector held back for it must land now.
  if (injector_ && injector_->hasHeld(pid)) {
    FaultInjector::Held due = injector_->takeHeld(pid);
    route(std::move(due.msg), due.dest);
  }
  const double myClock = ep(pid).clock;
  if (barrierCount_ + 1 == nprocs_) {
    barrierCount_ = 0;
    const double release = std::max(barrierMax_, myClock) + model_.barrierCost;
    barrierMax_ = 0.0;
    for (auto& e : eps_) e.clock = std::max(e.clock, release);
    ++barrierGen_;
    for (int f : barrierFibers_) barrierSched_->wake(f);
    barrierFibers_.clear();
    return;
  }
  FiberScheduler* sched = FiberScheduler::current();
  if (sched == nullptr) {
    XDP_USAGE_FAIL("barrier on p" + std::to_string(pid) +
                   " would block outside net::runSpmd");
  }
  barrierMax_ = std::max(barrierMax_, myClock);
  barrierCount_ += 1;
  barrierSched_ = sched;
  barrierFibers_.push_back(sched->self());
  const std::uint64_t gen = barrierGen_;
  // Throws if the scheduler cancels this fiber (a deadlock, a recovery
  // signal); the entrant count it leaves is dropped by resetBarrier.
  while (barrierGen_ == gen) sched->park();
}

NetStats Fabric::stats(int pid) const {
  checkPid(pid, "stats");
  return ep(pid).stats;
}

NetStats Fabric::totalStats() const {
  NetStats total;
  for (const auto& e : eps_) total += e.stats;
  return total;
}

void Fabric::resetStats() {
  for (auto& e : eps_) e.stats = NetStats{};
}

std::size_t Fabric::undeliveredCount() const {
  std::size_t n = matcherMsgs_.size;
  for (const auto& e : eps_) n += e.unexpected.size;
  return n;
}

std::size_t Fabric::pendingReceiveCount() const {
  std::size_t n = 0;
  for (const auto& e : eps_) n += e.pending.size;
  return n;
}

void Fabric::clearMatchState() { (void)drain(); }

DrainReport Fabric::drain() {
  DrainReport r;
  // Interest entries mirror posted receives; each receive is counted
  // once, at its endpoint.
  r.unmatchedMessages = undeliveredCount();
  r.unmatchedReceives = pendingReceiveCount();
  clearQueues();
  r.dupEntries = completedDups_.size();
  completedDups_.clear();
  if (injector_) r.heldFaults = injector_->takeAllHeld().size();  // discard
  return r;
}

void Fabric::setSendHook(SendHook hook) { sendHook_ = std::move(hook); }

void Fabric::setFaultPlan(const FaultPlan& plan) {
  std::vector<FaultInjector::Held> due;
  if (injector_) due = injector_->takeAllHeld();
  injector_ = std::make_unique<FaultInjector>(plan, nprocs_);
  dupSuppressedCount_ = 0;
  for (auto& h : due) route(std::move(h.msg), h.dest);
}

void Fabric::clearFaultPlan() {
  if (!injector_) return;
  std::vector<FaultInjector::Held> due = injector_->takeAllHeld();
  injector_.reset();
  for (auto& h : due) route(std::move(h.msg), h.dest);
}

bool Fabric::faultPlanLossy() const {
  return injector_ != nullptr && injector_->plan().lossy();
}

FaultStats Fabric::faultStats() const {
  if (!injector_) return FaultStats{};
  FaultStats s = injector_->stats();
  s.suppressedDuplicates += dupSuppressedCount_;
  return s;
}

std::size_t Fabric::flushHeldFaults() {
  if (!injector_) return 0;
  std::vector<FaultInjector::Held> due = injector_->takeAllHeld();
  for (auto& h : due) route(std::move(h.msg), h.dest);
  return due.size();
}

std::size_t Fabric::heldFaultCount() const {
  return injector_ ? injector_->heldCount() : 0;
}

FabricSnapshot Fabric::snapshot() const {
  FabricSnapshot snap;
  for (std::size_t p = 0; p < eps_.size(); ++p) {
    const Endpoint& e = eps_[p];
    for (std::uint32_t r = e.pending.head; r != kNil; r = recvs_[r].atEp.next)
      snap.pendingReceives.push_back(FabricSnapshot::RecvInfo{
          static_cast<int>(p), recvs_[r].name, recvs_[r].kind});
    for (std::uint32_t m = e.unexpected.head; m != kNil;
         m = parked_[m].link.next) {
      const Message& msg = parked_[m].msg;
      snap.undelivered.push_back(FabricSnapshot::MsgInfo{
          msg.src, static_cast<int>(p), msg.name, msg.kind,
          msg.payload.size()});
    }
  }
  for (std::uint32_t m = matcherMsgs_.head; m != kNil;
       m = parked_[m].link.next) {
    const Message& msg = parked_[m].msg;
    snap.undelivered.push_back(FabricSnapshot::MsgInfo{
        msg.src, -1, msg.name, msg.kind, msg.payload.size()});
  }
  snap.heldFaults = heldFaultCount();
  snap.barrierWaiters = barrierCount_;
  return snap;
}

namespace {

void putNetStats(ckpt::Writer& w, const NetStats& s) {
  w.u64(s.messagesSent);
  w.u64(s.bytesSent);
  w.u64(s.messagesReceived);
  w.u64(s.bytesReceived);
  w.u64(s.rendezvousSends);
  w.u64(s.directSends);
  w.u64(s.ownershipTransfers);
  w.u64(s.unexpectedMessages);
}

NetStats getNetStats(ckpt::Reader& r) {
  NetStats s;
  s.messagesSent = r.u64();
  s.bytesSent = r.u64();
  s.messagesReceived = r.u64();
  s.bytesReceived = r.u64();
  s.rendezvousSends = r.u64();
  s.directSends = r.u64();
  s.ownershipTransfers = r.u64();
  s.unexpectedMessages = r.u64();
  return s;
}

}  // namespace

void Fabric::setCrashHook(CrashHook hook) { crashHook_ = std::move(hook); }

void Fabric::disarmCrashes() {
  if (injector_) injector_->disarmCrashes();
}

std::vector<std::byte> Fabric::exportImage() const {
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(nprocs_));
  // Each pending receive's position on its endpoint, so the matcher's
  // FCFS interest order is stored positionally (ReceiveIds are
  // regenerated on restore and must not leak into the image).
  std::vector<std::uint32_t> posOf(recvs_.size());
  for (const Endpoint& e : eps_) {
    w.f64(e.clock);
    putNetStats(w, e.stats);
    w.u32(static_cast<std::uint32_t>(e.unexpected.size));
    for (std::uint32_t m = e.unexpected.head; m != kNil;
         m = parked_[m].link.next)
      wire::putMessage(w, parked_[m].msg);
    w.u32(static_cast<std::uint32_t>(e.pending.size));
    std::uint32_t idx = 0;
    for (std::uint32_t r = e.pending.head; r != kNil;
         r = recvs_[r].atEp.next) {
      const PendingReceive& pr = recvs_[r];
      wire::putName(w, pr.name);
      w.u8(static_cast<std::uint8_t>(pr.kind));
      w.f64(pr.postClock);
      w.i64(pr.desc.dstSym);
      w.u32(static_cast<std::uint32_t>(1 + pr.desc.rest.size()));
      wire::putSection(w, pr.desc.dst);
      for (const sec::Section& s : pr.desc.rest) wire::putSection(w, s);
      w.boolean(pr.desc.withValue);
      posOf[r] = idx++;
    }
  }
  w.u32(static_cast<std::uint32_t>(matcherMsgs_.size));
  for (std::uint32_t m = matcherMsgs_.head; m != kNil;
       m = parked_[m].link.next)
    wire::putMessage(w, parked_[m].msg);
  // Interest entries, FCFS order, as (pid, pending-position).
  w.u32(static_cast<std::uint32_t>(interest_.size));
  for (std::uint32_t r = interest_.head; r != kNil;
       r = recvs_[r].atMatcher.next) {
    w.i64(recvs_[r].pid);
    w.u32(posOf[r]);
  }
  std::vector<std::uint64_t> dups(completedDups_.begin(),
                                  completedDups_.end());
  std::sort(dups.begin(), dups.end());
  w.u32(static_cast<std::uint32_t>(dups.size()));
  for (std::uint64_t d : dups) w.u64(d);
  w.u64(dupSuppressedCount_);
  w.boolean(injector_ != nullptr);
  if (injector_) injector_->exportState(w);
  return w.take();
}

void Fabric::restoreImage(const std::vector<std::byte>& image) {
  ckpt::Reader r(image);
  if (r.u32() != static_cast<std::uint32_t>(nprocs_))
    throw ckpt::CkptError("fabric image endpoint count mismatch");

  struct PendingImg {
    Name name;
    TransferKind kind;
    double postClock;
    RecvDesc desc;
  };
  struct EpImg {
    double clock;
    NetStats stats;
    std::vector<Message> unexpected;
    std::vector<PendingImg> pending;
  };
  // Decode (and validate) everything before touching live state, so a
  // malformed image throws without leaving the fabric half-restored.
  std::vector<EpImg> eps;
  eps.reserve(eps_.size());
  for (int p = 0; p < nprocs_; ++p) {
    EpImg e;
    e.clock = r.f64();
    e.stats = getNetStats(r);
    const std::uint32_t nu = r.u32();
    for (std::uint32_t k = 0; k < nu; ++k)
      e.unexpected.push_back(wire::getMessage(r));
    const std::uint32_t np = r.u32();
    for (std::uint32_t k = 0; k < np; ++k) {
      PendingImg pi;
      pi.name = wire::getName(r);
      pi.kind = static_cast<TransferKind>(r.u8());
      pi.postClock = r.f64();
      pi.desc.dstSym = static_cast<int>(r.i64());
      const std::uint32_t nd = r.u32();
      if (nd == 0)
        throw ckpt::CkptError("fabric image receive without a destination");
      pi.desc.dst = wire::getSection(r);
      for (std::uint32_t j = 1; j < nd; ++j)
        pi.desc.rest.push_back(wire::getSection(r));
      pi.desc.withValue = r.boolean();
      e.pending.push_back(std::move(pi));
    }
    eps.push_back(std::move(e));
  }
  std::vector<Message> mMsgs;
  const std::uint32_t nm = r.u32();
  for (std::uint32_t k = 0; k < nm; ++k) mMsgs.push_back(wire::getMessage(r));
  std::vector<std::pair<int, std::uint32_t>> mEntries;
  const std::uint32_t ne = r.u32();
  for (std::uint32_t k = 0; k < ne; ++k) {
    const int pid = static_cast<int>(r.i64());
    const std::uint32_t idx = r.u32();
    if (pid < 0 || pid >= nprocs_ ||
        idx >= eps[static_cast<std::size_t>(pid)].pending.size())
      throw ckpt::CkptError("fabric image matcher entry out of range");
    mEntries.emplace_back(pid, idx);
  }
  std::vector<std::uint64_t> dups;
  const std::uint32_t ndup = r.u32();
  for (std::uint32_t k = 0; k < ndup; ++k) dups.push_back(r.u64());
  const std::uint64_t dupSuppressed = r.u64();
  const bool hasInjector = r.boolean();

  // Apply: the receives are re-posted through the live path's addPending;
  // interest is registered afterwards, in the image's FCFS order.
  clearQueues();
  std::vector<std::vector<std::uint32_t>> slots(
      static_cast<std::size_t>(nprocs_));
  for (int p = 0; p < nprocs_; ++p) {
    Endpoint& e = ep(p);
    EpImg& img = eps[static_cast<std::size_t>(p)];
    e.clock = img.clock;
    e.stats = img.stats;
    for (Message& m : img.unexpected) park(e.unexpected, std::move(m));
    for (PendingImg& pi : img.pending)
      slots[static_cast<std::size_t>(p)].push_back(
          addPending(p, pi.name, pi.kind, pi.postClock, std::move(pi.desc),
                     /*interest=*/false));
  }
  for (Message& m : mMsgs) park(matcherMsgs_, std::move(m));
  for (const auto& [pid, idx] : mEntries) {
    const std::uint32_t slot = slots[static_cast<std::size_t>(pid)][idx];
    if (recvs_[slot].interest)
      throw ckpt::CkptError("fabric image repeats a matcher entry");
    recvs_[slot].interest = true;
    linkBack(recvs_, &PendingReceive::atMatcher, interest_, slot);
  }
  completedDups_.clear();
  completedDups_.insert(dups.begin(), dups.end());
  dupSuppressedCount_ = dupSuppressed;
  if (hasInjector && injector_) injector_->restoreState(r);
}

void Fabric::resetBarrier() {
  barrierCount_ = 0;
  barrierMax_ = 0.0;
  barrierFibers_.clear();
  barrierSched_ = nullptr;
}

}  // namespace xdp::net
