// Fabric tests: direct and rendezvous delivery, name matching, unexpected
// messages, FCFS multi-receiver matching (paper section 2.7), virtual
// clocks and the barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fabric_receives.hpp"
#include "xdp/net/spmd.hpp"
#include "xdp/support/check.hpp"

namespace xdp::net {
namespace {

using sec::Index;
using sec::Section;
using sec::Triplet;

Name name(int sym, Index lb, Index ub) {
  return Name{sym, Section{Triplet(lb, ub)}, {}};
}

std::vector<std::byte> bytes(std::initializer_list<int> vs) {
  std::vector<std::byte> out;
  for (int v : vs) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(Fabric, DirectSendBeforeReceiveIsQueued) {
  ClosureFabric f(2);
  f.send(0, name(1, 1, 4), TransferKind::Data, bytes({1, 2, 3, 4}), 1);
  EXPECT_EQ(f.undeliveredCount(), 1u);
  std::vector<std::byte> got;
  f.postReceive(1, name(1, 1, 4), TransferKind::Data,
                [&](const Message& m) { got = m.payload.toVector(); });
  EXPECT_EQ(got, bytes({1, 2, 3, 4}));
  EXPECT_EQ(f.undeliveredCount(), 0u);
}

TEST(Fabric, ReceiveBeforeDirectSendCompletesOnDelivery) {
  ClosureFabric f(2);
  std::vector<std::byte> got;
  f.postReceive(1, name(1, 1, 2), TransferKind::Data,
                [&](const Message& m) { got = m.payload.toVector(); });
  EXPECT_TRUE(got.empty());
  f.send(0, name(1, 1, 2), TransferKind::Data, bytes({7, 8}), 1);
  EXPECT_EQ(got, bytes({7, 8}));
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

TEST(Fabric, NamesMustMatchExactly) {
  ClosureFabric f(2);
  f.send(0, name(1, 1, 4), TransferKind::Data, bytes({1}), 1);
  bool fired = false;
  f.postReceive(1, name(1, 1, 5), TransferKind::Data,
                [&](const Message&) { fired = true; });
  EXPECT_FALSE(fired);  // different section: no match
  f.postReceive(1, name(2, 1, 4), TransferKind::Data,
                [&](const Message&) { fired = true; });
  EXPECT_FALSE(fired);  // different symbol: no match
  EXPECT_EQ(f.undeliveredCount(), 1u);
  EXPECT_EQ(f.pendingReceiveCount(), 2u);
}

TEST(Fabric, KindsMustMatch) {
  ClosureFabric f(2);
  f.send(0, name(1, 1, 4), TransferKind::Ownership, {}, 1);
  bool fired = false;
  f.postReceive(1, name(1, 1, 4), TransferKind::Data,
                [&](const Message&) { fired = true; });
  EXPECT_FALSE(fired);
  f.postReceive(1, name(1, 1, 4), TransferKind::Ownership,
                [&](const Message&) { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(Fabric, RendezvousSendFindsLaterReceiver) {
  ClosureFabric f(4);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({42}), std::nullopt);
  std::vector<std::byte> got;
  f.postReceive(3, name(1, 1, 1), TransferKind::Data,
                [&](const Message& m) { got = m.payload.toVector(); });
  EXPECT_EQ(got, bytes({42}));
}

TEST(Fabric, RendezvousReceiverFindsLaterSend) {
  ClosureFabric f(4);
  std::vector<std::byte> got;
  f.postReceive(2, name(1, 1, 1), TransferKind::Data,
                [&](const Message& m) { got = m.payload.toVector(); });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({9}), std::nullopt);
  EXPECT_EQ(got, bytes({9}));
}

TEST(Fabric, MultiReceiverFcfs) {
  // Paper section 2.7: several processors post receives for the same name;
  // sends are matched to waiters in FCFS order.
  ClosureFabric f(4);
  std::vector<int> order;
  for (int p : {3, 1, 2})
    f.postReceive(p, name(1, 1, 1), TransferKind::Data,
                  [&order, p](const Message&) { order.push_back(p); });
  for (int i = 0; i < 3; ++i)
    f.send(0, name(1, 1, 1), TransferKind::Data, bytes({i}), std::nullopt);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(Fabric, DirectDeliveryCancelsMatcherInterest) {
  ClosureFabric f(3);
  int fires = 0;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message&) { ++fires; });
  // Complete it via the direct route.
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  EXPECT_EQ(fires, 1);
  // A later unspecified send must NOT be routed to the completed receive.
  f.send(2, name(1, 1, 1), TransferKind::Data, bytes({2}), std::nullopt);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(f.undeliveredCount(), 1u);
}

TEST(Fabric, SendToSetBroadcasts) {
  ClosureFabric f(4);
  std::atomic<int> got{0};
  for (int p : {1, 2, 3})
    f.postReceive(p, name(1, 1, 1), TransferKind::Data,
                  [&](const Message&) { got++; });
  f.sendToSet(0, name(1, 1, 1), TransferKind::Data, bytes({5}),
              std::vector<int>{1, 2, 3});
  EXPECT_EQ(got, 3);
  auto s = f.stats(0);
  EXPECT_EQ(s.messagesSent, 3u);
  EXPECT_EQ(s.directSends, 3u);
}

TEST(Fabric, StatsCountBytesAndKinds) {
  ClosureFabric f(2);
  f.postReceive(1, name(1, 1, 4), TransferKind::Data,
                [](const Message&) {});
  f.send(0, name(1, 1, 4), TransferKind::Data, bytes({1, 2, 3, 4}), 1);
  f.postReceive(1, name(2, 1, 1), TransferKind::OwnershipAndValue,
                [](const Message&) {});
  f.send(0, name(2, 1, 1), TransferKind::OwnershipAndValue, bytes({1}),
         std::nullopt);
  auto s0 = f.stats(0);
  EXPECT_EQ(s0.messagesSent, 2u);
  EXPECT_EQ(s0.bytesSent, 5u);
  EXPECT_EQ(s0.directSends, 1u);
  EXPECT_EQ(s0.rendezvousSends, 1u);
  EXPECT_EQ(s0.ownershipTransfers, 1u);
  auto s1 = f.stats(1);
  EXPECT_EQ(s1.messagesReceived, 2u);
  EXPECT_EQ(s1.bytesReceived, 5u);
  auto total = f.totalStats();
  EXPECT_EQ(total.messagesSent, total.messagesReceived);
}

TEST(Fabric, ClocksAdvanceWithSends) {
  CostModel m;
  m.alpha = 1.0;
  m.beta = 0.5;
  m.latency = 10.0;
  ClosureFabric f(2, m);
  f.send(0, name(1, 1, 4), TransferKind::Data, bytes({1, 2, 3, 4}), 1);
  // Sender pays alpha + 4*beta = 3.0.
  EXPECT_DOUBLE_EQ(f.clock(0), 3.0);
  double arrival = -1;
  f.postReceive(1, name(1, 1, 4), TransferKind::Data,
                [&](const Message& msg) { arrival = msg.arrival; });
  EXPECT_DOUBLE_EQ(arrival, 13.0);  // send cost + latency
  EXPECT_DOUBLE_EQ(f.makespan(), 3.0);
  f.syncClock(1, arrival);
  EXPECT_DOUBLE_EQ(f.clock(1), 13.0);
}

TEST(Fabric, RendezvousPaysExtraHop) {
  CostModel m;
  m.alpha = 1.0;
  m.beta = 0.0;
  m.latency = 10.0;
  m.matchHop = 100.0;
  ClosureFabric f(2, m);
  double direct = -1, matched = -1;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message& msg) { direct = msg.arrival; });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({0}), 1);
  f.postReceive(1, name(2, 1, 1), TransferKind::Data,
                [&](const Message& msg) { matched = msg.arrival; });
  f.send(0, name(2, 1, 1), TransferKind::Data, bytes({0}), std::nullopt);
  EXPECT_GT(matched - direct, 99.0);  // matchHop dominates
}

TEST(Fabric, UnexpectedMessageJudgedOnVirtualClocks) {
  CostModel m;
  m.alpha = 1.0;
  m.beta = 0.0;
  m.latency = 10.0;
  m.unexpectedAlpha = 100.0;
  m.unexpectedBeta = 0.0;
  ClosureFabric f(2, m);
  // Case 1: message physically queued first, but the receiver's clock at
  // post time (0) precedes the arrival (11) => NOT unexpected.
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  double arrival1 = -1;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message& msg) { arrival1 = msg.arrival; });
  EXPECT_DOUBLE_EQ(arrival1, 11.0);  // no penalty
  EXPECT_EQ(f.stats(1).unexpectedMessages, 0u);

  // Case 2: receiver's clock has advanced past the arrival => unexpected:
  // the data is usable only after the copy. The copy is charged through
  // the arrival time alone — the receiver pays it when it awaits the
  // data — so completing the receive leaves the receiver's clock alone.
  f.send(0, name(2, 1, 1), TransferKind::Data, bytes({1}), 1);
  f.advance(1, 500.0);
  const double postClock = f.clock(1);
  double arrival2 = -1;
  f.postReceive(1, name(2, 1, 1), TransferKind::Data,
                [&](const Message& msg) { arrival2 = msg.arrival; });
  EXPECT_EQ(f.stats(1).unexpectedMessages, 1u);
  EXPECT_DOUBLE_EQ(arrival2, postClock + 100.0);
  EXPECT_DOUBLE_EQ(f.clock(1), postClock);  // no completion writes a clock
}

TEST(Fabric, PrePostedReceiveNeverPaysThePenalty) {
  CostModel m;
  m.unexpectedAlpha = 100.0;
  ClosureFabric f(2, m);
  f.advance(1, 0.0);
  double arrival = -1;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message& msg) { arrival = msg.arrival; });
  f.advance(0, 50.0);  // sender is "later" in virtual time
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  EXPECT_EQ(f.stats(1).unexpectedMessages, 0u);
  EXPECT_GT(arrival, 50.0);  // plain arrival, no penalty added
}

TEST(Fabric, BarrierAlignsClocks) {
  ClosureFabric f(3);
  f.advance(0, 5.0);
  f.advance(1, 1.0);
  runSpmd(3, [&](int pid) { f.barrier(pid); });
  double expect = 5.0 + f.model().barrierCost;
  for (int p = 0; p < 3; ++p) EXPECT_DOUBLE_EQ(f.clock(p), expect);
}

TEST(Fabric, BarrierIsReusable) {
  ClosureFabric f(2);
  runSpmd(2, [&](int pid) {
    for (int i = 0; i < 100; ++i) f.barrier(pid);
  });
  SUCCEED();
}

TEST(Fabric, ConcurrentSendsAndReceivesDontLoseMessages) {
  ClosureFabric f(8);
  std::atomic<int> received{0};
  const int kPer = 50;
  runSpmd(8, [&](int pid) {
    if (pid % 2 == 0) {
      for (int i = 0; i < kPer; ++i)
        f.send(pid, name(pid, i, i), TransferKind::Data, bytes({1}),
               pid + 1);
    } else {
      for (int i = 0; i < kPer; ++i)
        f.postReceive(pid, name(pid - 1, i, i), TransferKind::Data,
                      [&](const Message&) { received++; });
    }
  });
  EXPECT_EQ(received, 4 * kPer);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

// Regression: these used to index eps_[pid] unchecked, so a bad pid was
// silent UB. Every pid-taking operation must reject it loudly instead.
TEST(Fabric, OutOfRangePidThrowsUsageError) {
  ClosureFabric f(2);
  EXPECT_THROW(f.clock(-1), UsageError);
  EXPECT_THROW(f.clock(2), UsageError);
  EXPECT_THROW(f.advance(-1, 1.0), UsageError);
  EXPECT_THROW(f.advance(2, 1.0), UsageError);
  EXPECT_THROW(f.syncClock(-1, 1.0), UsageError);
  EXPECT_THROW(f.syncClock(2, 1.0), UsageError);
  EXPECT_THROW(f.stats(-1), UsageError);
  EXPECT_THROW(f.stats(2), UsageError);
  EXPECT_THROW(f.barrier(-1), UsageError);
  EXPECT_THROW(
      f.send(-1, name(1, 0, 0), TransferKind::Data, bytes({1}), std::nullopt),
      UsageError);
  EXPECT_THROW(f.send(0, name(1, 0, 0), TransferKind::Data, bytes({1}), 2),
               UsageError);
  EXPECT_THROW(
      f.postReceive(2, name(1, 0, 0), TransferKind::Data, [](const Message&) {}),
      UsageError);
  // The fabric must be unharmed: a full exchange still works.
  f.send(0, name(1, 0, 0), TransferKind::Data, bytes({7}), 1);
  int got = -1;
  f.postReceive(1, name(1, 0, 0), TransferKind::Data,
                [&](const Message& m) { got = static_cast<int>(m.payload[0]); });
  EXPECT_EQ(got, 7);
}

TEST(Fabric, ClearMatchStateDropsEverything) {
  ClosureFabric f(2);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  f.postReceive(0, name(9, 1, 1), TransferKind::Data, [](const Message&) {});
  f.clearMatchState();
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

// A checkpoint image of 4 096 outstanding receives (two names, posted
// alternately on three endpoints, every one with rendezvous interest)
// restores with its FCFS interest order: unbound sends of each name then
// complete the receives in post order. The export writes each interest
// entry's position in one pass (it used to search the pending queues).
TEST(Fabric, ExportRestoreKeepsFcfsInterestOrder) {
  constexpr int kRecvs = 4096;
  ClosureFabric f(4);
  std::vector<int> order;
  for (int k = 0; k < kRecvs; ++k)
    f.postReceive(1 + k % 3, name(1 + k % 2, 0, 0), TransferKind::Data,
                  [&order, k](const Message&) { order.push_back(k); });
  const std::vector<std::byte> image = f.exportImage();
  f.clearMatchState();
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  f.restoreImage(image);
  ASSERT_EQ(f.pendingReceiveCount(), static_cast<std::size_t>(kRecvs));
  EXPECT_EQ(f.exportImage(), image);
  for (int sym : {2, 1})
    for (int k = 0; k < kRecvs / 2; ++k)
      f.send(0, name(sym, 0, 0), TransferKind::Data, bytes({k}), std::nullopt);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kRecvs));
  for (int k = 0; k < kRecvs / 2; ++k) {
    EXPECT_EQ(order[static_cast<std::size_t>(k)], 2 * k + 1);
    EXPECT_EQ(order[static_cast<std::size_t>(kRecvs / 2 + k)], 2 * k);
  }
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  EXPECT_EQ(f.undeliveredCount(), 0u);
}

}  // namespace
}  // namespace xdp::net
