// The simulated message-passing machine.
//
// A Fabric has P endpoints (one per simulated processor). All operations
// but barrier() are non-blocking: XDP's blocking semantics live in the
// runtime layer; the fabric matches messages to posted receives and runs
// a completion callback when a match happens. Sends and receive posts are
// yield points (xdp::FiberScheduler::yieldIfBehind), so the matcher sees
// rendezvous traffic in virtual-time order.
//
// Two delivery routes exist, reflecting the paper's delayed communication
// binding (section 3.2):
//
//   * direct    — the send named its destination set ("E -> S", or the
//                 CommBinding pass annotated the receiver). One hop.
//   * rendezvous— "send to an unspecified processor" ("E ->", "E -=>").
//                 Sender and receiver meet at a matchmaker, FCFS per name;
//                 the message pays an extra control hop (CostModel::
//                 matchHop). This is also what makes the paper's
//                 section 2.7 pattern work: several processors may have
//                 receives outstanding for the *same* name, and each
//                 matching send is handed to the first waiter in line.
//
// Delivery is synchronous on both routes: the sending fiber itself
// delivers the message, so send() returns only after the message
// completed a receive or was parked (as unexpected, or at the matcher).
// Apart from messages a fault plan holds back (see flushHeldFaults),
// nothing is ever in flight between endpoints: when every processor is
// blocked, parked or finished, no message can still arrive and wake one
// of them.
//
// Virtual time: a completion never writes another endpoint's clock. The
// unexpected-message copy is charged through the message's arrival time,
// which the receiver syncs to when it awaits the data, so every clock
// moves only while its own processor runs (and at barrier release) and
// modeled time does not depend on the schedule.
//
// One thread per machine: a Fabric is used by one thread at a time, the
// one running its machine's fibers (DESIGN.md §5), so it takes no lock. A
// receive post and its pairing decision run with no yield between them,
// so no interest entry can go stale: a receive completed by a direct send
// drops its rendezvous interest at once.
//
// A posted receive is plain data (RecvDesc); the fabric completes every
// matched receive through the one routine installed with setCompletion,
// which must copy the payload out and must not call back into the
// fabric. Queues are threaded through slabs of recycled slots, so a
// steady stream of point messages allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "xdp/net/cost_model.hpp"
#include "xdp/net/fault.hpp"
#include "xdp/net/message.hpp"
#include "xdp/support/fiber.hpp"

namespace xdp::net {

/// Traffic counters, kept per endpoint.
struct NetStats {
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t messagesReceived = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t rendezvousSends = 0;   ///< sends routed via the matcher
  std::uint64_t directSends = 0;       ///< sends with a bound destination
  std::uint64_t ownershipTransfers = 0;///< ownership(+value) messages sent
  std::uint64_t unexpectedMessages = 0;///< arrived before a receive posted

  NetStats& operator+=(const NetStats& o);
};

/// A posted receive, as plain data: scatter the payload into `dst` (then
/// `rest`, in payload order) of symbol `dstSym` (data receives), or
/// complete those transitional sections (ownership receives, `withValue`
/// deciding whether the payload carries element values). Checkpoint
/// images store it as is, so a restored receive completes like a live one.
struct RecvDesc {
  int dstSym = -1;
  sec::Section dst;                ///< first destination section
  std::vector<sec::Section> rest;  ///< further ones (aggregated receives)
  bool withValue = false;          ///< ownership receives: scatter payload
};

/// Completes a matched receive posted at `pid`. Must copy the payload out
/// and update runtime state; must not call back into the fabric.
using CompletionFn =
    std::function<void(int pid, const RecvDesc& desc, const Message& msg)>;

/// Invoked at the top of every send (before any accounting or fault
/// decision) with the source pid and payload size. Throwing aborts the
/// send with no fabric state changed — the mechanism per-tenant traffic
/// quotas hang off (see xdp::serve). Must not call back into the fabric.
using SendHook = std::function<void(int src, std::size_t bytes)>;

/// Invoked when a crash-plan endpoint with CrashFate::Recover exhausts
/// its send budget, just before the sending fiber unwinds with
/// ckpt::RollbackSignal. The runtime's checkpoint controller hangs its
/// rollback request off this. Must not send.
using CrashHook = std::function<void(int src)>;

/// What a drain (session/region teardown) actually reclaimed, for
/// hygiene reporting: nonzero counts after a *clean* run indicate leaked
/// match state (an XDP usage error or a faulted session's residue).
struct DrainReport {
  std::size_t unmatchedMessages = 0;  ///< parked at matcher + unexpected
  std::size_t unmatchedReceives = 0;  ///< posted, never completed
  std::size_t heldFaults = 0;         ///< reorder holdbacks discarded
  /// Duplicate-suppression entries reclaimed. Informational: a clean run
  /// under duplicate faults legitimately accumulates these.
  std::size_t dupEntries = 0;

  /// Leaked state proper (excludes the informational dup bookkeeping).
  std::size_t leaked() const {
    return unmatchedMessages + unmatchedReceives + heldFaults;
  }
};

/// Identifies a posted receive (diagnostics only).
using ReceiveId = std::uint64_t;

/// Point-in-time picture of the fabric's matching state, for failure
/// diagnostics: what every hung receive is waiting for and where every
/// unmatched message is parked.
struct FabricSnapshot {
  struct RecvInfo {
    int pid = -1;
    Name name;
    TransferKind kind = TransferKind::Data;
  };
  struct MsgInfo {
    int src = -1;
    int dst = -1;  ///< -1 = parked at the rendezvous matcher
    Name name;
    TransferKind kind = TransferKind::Data;
    std::size_t bytes = 0;
  };
  std::vector<RecvInfo> pendingReceives;
  std::vector<MsgInfo> undelivered;
  std::size_t heldFaults = 0;  ///< messages parked inside the fault injector
  int barrierWaiters = 0;      ///< entrants of the current incomplete barrier
};

class Fabric {
 public:
  /// If a FaultScope is live, the new fabric adopts its plan.
  Fabric(int nprocs, CostModel model = {});
  ~Fabric();

  int nprocs() const { return nprocs_; }
  const CostModel& model() const { return model_; }

  /// --- virtual time ---------------------------------------------------
  /// All clock operations validate `pid` and throw UsageError on an
  /// out-of-range value.
  double clock(int pid) const;
  void advance(int pid, double dt);
  /// clock(pid) = max(clock(pid), t) — used when a processor synchronizes
  /// on a message that arrived at virtual time t.
  void syncClock(int pid, double t);
  /// Max clock over all endpoints (the modeled makespan).
  double makespan() const;
  void resetClocks();

  /// --- point-to-point -------------------------------------------------

  /// Send `payload` under `name`. If `dest` is set, route directly;
  /// otherwise go through the rendezvous matcher. Advances the sender's
  /// clock by the send overhead. Non-blocking.
  void send(int src, const Name& name, TransferKind kind, Payload payload,
            std::optional<int> dest);

  /// Broadcast/multicast form "E -> S": one message per destination; the
  /// last destination's message takes `payload` itself.
  void sendToSet(int src, const Name& name, TransferKind kind,
                 Payload payload, std::span<const int> dests);

  /// Install the routine that completes matched receives. Set it while
  /// no traffic runs.
  void setCompletion(CompletionFn fn);

  /// Post a receive for `name` at `pid`. If a matching message is already
  /// queued (directly addressed or waiting at the matcher), the receive
  /// completes before this returns; otherwise later, in the delivering
  /// send. Returns an id usable only for diagnostics.
  ReceiveId postReceive(int pid, const Name& name, TransferKind kind,
                        RecvDesc desc);

  /// --- collectives ----------------------------------------------------

  /// Rendezvous of all endpoints; clocks advance to max + barrierCost.
  /// Every entrant but the last parks its fiber; a barrier that would
  /// park outside net::runSpmd is a UsageError.
  void barrier(int pid);
  /// Forget the entrants of an incomplete barrier: fibers that a
  /// deadlock or a recovery signal unwound out of it. Call between runs.
  void resetBarrier();

  /// --- accounting -----------------------------------------------------
  NetStats stats(int pid) const;
  NetStats totalStats() const;
  void resetStats();

  /// Number of messages parked at the matcher / in unexpected queues
  /// (diagnostic; nonzero after a run usually means a send had no
  /// matching receive — an XDP usage error).
  std::size_t undeliveredCount() const;

  /// Number of posted receives not yet matched (diagnostic, as above).
  std::size_t pendingReceiveCount() const;

  /// Drop all unmatched messages and posted receives (used at SPMD region
  /// boundaries so a leaked receive can never fire into a later region).
  /// Also drops fault-injector holdbacks and duplicate-suppression state.
  void clearMatchState();

  /// clearMatchState that reports what it reclaimed — the endpoint-drain
  /// half of session teardown (xdp::serve). A session that ended cleanly
  /// drains to an all-zero report; anything else is leaked state the
  /// session left behind, now reclaimed.
  DrainReport drain();

  /// Install (or, with nullptr, remove) the send admission hook. Set it
  /// while no traffic is running (before an SPMD region starts).
  void setSendHook(SendHook hook);

  /// --- fault injection -------------------------------------------------

  /// Install (or replace) a fault plan; takes effect on the next send.
  /// Replacing a plan first releases any held-back messages.
  void setFaultPlan(const FaultPlan& plan);
  /// Remove the plan, releasing any held-back messages first.
  void clearFaultPlan();
  bool hasFaultPlan() const { return injector_ != nullptr; }
  /// True iff a plan is installed and it can lose messages (see
  /// FaultPlan::lossy) — the runtime waives end-of-run usage checks then.
  bool faultPlanLossy() const;
  FaultStats faultStats() const;
  /// Deliver every message the injector is holding back (reorder faults).
  /// Returns how many were released. Called when every processor is
  /// parked, before a deadlock is declared, and at the end of an SPMD
  /// region.
  std::size_t flushHeldFaults();
  std::size_t heldFaultCount() const;

  /// --- hang diagnostics ------------------------------------------------

  /// The per-endpoint picture (pending receives + unexpected queues),
  /// matcher, injector and barrier state.
  FabricSnapshot snapshot() const;

  /// --- checkpoint image ------------------------------------------------

  /// Serialize the in-flight state: per-endpoint clocks, stats,
  /// unexpected queues and pending receives (with their RecvDescs),
  /// matcher-parked messages and FCFS interest order, duplicate
  /// bookkeeping, and the fault injector's dynamic state. Callers invoke
  /// this only at a capture point (no traffic in flight). O(size).
  std::vector<std::byte> exportImage() const;

  /// Inverse of exportImage: drop all current match state, then rebuild
  /// from `image` (fresh ReceiveIds are assigned; FCFS matcher order is
  /// preserved). Restored receives complete through the installed
  /// routine, like live ones. Throws CkptError on a malformed or
  /// mismatched image.
  void restoreImage(const std::vector<std::byte>& image);

  /// Install (or clear) the crash-recovery hook; same discipline as
  /// setSendHook (set while no traffic runs).
  void setCrashHook(CrashHook hook);

  /// Clear the injector's crash flags after a successful rollback (counts
  /// one absorbed crash). No-op without a plan.
  void disarmCrashes();
  /// Entrants of the current *incomplete* barrier (0 when no barrier is in
  /// progress). Waiters of an already-released barrier do not count.
  int barrierWaiters() const { return barrierCount_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Links of a slot on one FIFO (slot indices; kNil ends a list).
  struct Link {
    std::uint32_t prev = kNil, next = kNil;
  };
  /// A FIFO threaded through the Link fields of slab slots.
  struct Fifo {
    std::uint32_t head = kNil, tail = kNil;
    std::size_t size = 0;
  };
  /// A posted receive. It sits on its endpoint's pending FIFO and, until
  /// completed, on the matcher's FCFS interest FIFO.
  struct PendingReceive {
    ReceiveId id = 0;
    int pid = -1;
    Name name;
    TransferKind kind = TransferKind::Data;
    double postClock = 0.0;  ///< receiver's virtual clock at post time
    RecvDesc desc;
    Link atEp, atMatcher;
    bool interest = false;    ///< on the matcher's interest FIFO
    std::uint32_t pos = 0;    ///< position on atEp (exportImage scratch)
  };
  /// A message parked as unexpected at an endpoint or at the matcher.
  struct Parked {
    Message msg;
    Link link;
  };
  /// One simulated processor's mailbox.
  struct Endpoint {
    Fifo unexpected;  // Parked slots: arrived before a receive posted
    Fifo pending;     // PendingReceive slots: posted, not yet matched
    NetStats stats;
    double clock = 0.0;
  };

  Endpoint& ep(int pid) { return eps_[static_cast<std::size_t>(pid)]; }
  const Endpoint& ep(int pid) const {
    return eps_[static_cast<std::size_t>(pid)];
  }
  /// Throws UsageError unless 0 <= pid < nprocs.
  void checkPid(int pid, const char* what) const;

  // --- slabs ---------------------------------------------------------------
  /// Append slot i of `slab` to FIFO q, through the slot's `link` member.
  template <class T>
  static void linkBack(std::vector<T>& slab, Link T::*link, Fifo& q,
                       std::uint32_t i);
  /// Remove slot i of `slab` from FIFO q.
  template <class T>
  static void unlink(std::vector<T>& slab, Link T::*link, Fifo& q,
                     std::uint32_t i);
  std::uint32_t newReceive();
  void freeReceive(std::uint32_t r);
  /// Unlink a receive from its endpoint and, if still there, from the
  /// matcher's interest FIFO, and recycle its slot.
  void retireReceive(std::uint32_t r);
  void park(Fifo& q, Message msg);
  Message unpark(Fifo& q, std::uint32_t m);
  /// Append a receive (its desc already set) to pid's pending FIFO and
  /// the matcher's interest FIFO: the live post and restore share this.
  std::uint32_t addPending(int pid, const Name& name, TransferKind kind,
                           double postClock, RecvDesc desc, bool interest);
  /// Drop every queued message and receive.
  void clearQueues();

  /// Route a message: deliver directly or via the rendezvous matcher.
  void route(Message msg, std::optional<int> dest);

  /// Deliver msg at dst: complete the first matching pending receive or
  /// park the message as unexpected.
  void deliverDirect(int dst, Message msg);

  /// Rendezvous half of route(): hand the message to the first registered
  /// receive interest with a matching name, or park it at the matcher.
  void routeRendezvous(Message msg);

  /// Complete the receive (pid, postClock, desc) with `msg`: count it,
  /// apply the unexpected-message penalty when the message's (virtual)
  /// arrival precedes the receive's (virtual) post time — it delays the
  /// message's arrival and never touches a clock — and run the completion
  /// routine. The caller retires the receive and purges a duplicate's
  /// twin. Returns false — completing nothing — iff `msg` is a duplicate
  /// whose twin already completed (exactly-once).
  bool deliver(int pid, double postClock, const RecvDesc& desc,
               Message& msg);

  /// True iff this message is a fault-injected duplicate whose twin has
  /// already completed a receive; counts the suppression.
  bool dupSuppressed(const Message& msg);

  /// Remove the not-yet-completed twin of a completed duplicate from
  /// every parking queue.
  void purgeDuplicate(std::uint64_t dupId);

  /// The fault-injected send path: crash, drop, duplicate, delay, hold.
  void faultSend(int src, Message msg, std::optional<int> dest);

  static bool matches(const Name& a, TransferKind ka, const Name& b,
                      TransferKind kb) {
    return ka == kb && a == b;
  }

  const int nprocs_;
  const CostModel model_;

  /// Send admission hook; set only while no traffic runs.
  SendHook sendHook_;
  /// Crash-recovery hook; same discipline as sendHook_.
  CrashHook crashHook_;
  /// Receive completion routine; same discipline.
  CompletionFn complete_;

  std::vector<Endpoint> eps_;

  /// Slabs: a freed slot goes on its free list and is reused by the next
  /// post or park, so steady-state traffic allocates nothing.
  std::vector<PendingReceive> recvs_;
  std::vector<std::uint32_t> freeRecvs_;
  std::vector<Parked> parked_;
  std::vector<std::uint32_t> freeParked_;

  /// Rendezvous matcher: unspecified sends waiting for a receive, and
  /// receive interest in FCFS (post) order.
  Fifo matcherMsgs_;
  Fifo interest_;

  ReceiveId nextId_ = 1;

  /// Exactly-once bookkeeping for fault-injected duplicates.
  std::unordered_set<std::uint64_t> completedDups_;
  std::uint64_t dupSuppressedCount_ = 0;

  std::unique_ptr<FaultInjector> injector_;  // null = no faults

  // Reusable barrier. The parked entrants are fibers of barrierSched_.
  int barrierCount_ = 0;
  std::uint64_t barrierGen_ = 0;
  double barrierMax_ = 0.0;
  FiberScheduler* barrierSched_ = nullptr;
  std::vector<int> barrierFibers_;
};

}  // namespace xdp::net
