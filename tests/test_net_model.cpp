// Cost-model arithmetic and virtual-clock bookkeeping details not covered
// by the scenario tests.
#include <gtest/gtest.h>

#include "fabric_receives.hpp"
#include "xdp/net/spmd.hpp"

namespace xdp::net {
namespace {

using sec::Section;
using sec::Triplet;

Name nm(int sym) { return Name{sym, Section{Triplet(1, 1)}, {}}; }

TEST(NetModel, SendCostIsAlphaPlusBetaBytes) {
  CostModel m;
  m.alpha = 2.0;
  m.beta = 0.5;
  EXPECT_DOUBLE_EQ(m.sendCost(0), 2.0);
  EXPECT_DOUBLE_EQ(m.sendCost(10), 7.0);
  EXPECT_DOUBLE_EQ(m.unexpectedCost(10),
                   m.unexpectedAlpha + 10 * m.unexpectedBeta);
}

TEST(NetModel, SendToSetAccumulatesPerDestination) {
  CostModel m;
  m.alpha = 1.0;
  m.beta = 0.0;
  ClosureFabric f(4, m);
  for (int p : {1, 2, 3})
    f.postReceive(p, nm(1), TransferKind::Data, [](const Message&) {});
  f.sendToSet(0, nm(1), TransferKind::Data,
              std::vector<std::byte>(8, std::byte{0}),
              std::vector<int>{1, 2, 3});
  EXPECT_DOUBLE_EQ(f.clock(0), 3.0);  // one alpha per copy
}

TEST(NetModel, MakespanIsMaxClock) {
  ClosureFabric f(3);
  f.advance(0, 1.0);
  f.advance(1, 7.0);
  f.advance(2, 3.0);
  EXPECT_DOUBLE_EQ(f.makespan(), 7.0);
  f.resetClocks();
  EXPECT_DOUBLE_EQ(f.makespan(), 0.0);
}

TEST(NetModel, SyncClockNeverMovesBackwards) {
  ClosureFabric f(1);
  f.advance(0, 10.0);
  f.syncClock(0, 4.0);
  EXPECT_DOUBLE_EQ(f.clock(0), 10.0);
  f.syncClock(0, 12.0);
  EXPECT_DOUBLE_EQ(f.clock(0), 12.0);
}

TEST(NetModel, MultiSectionNamesCompareWholeSet) {
  Name a{1, Section{Triplet(1, 2)}, {Section{Triplet(5, 6)}}};
  Name b{1, Section{Triplet(1, 2)}, {Section{Triplet(5, 6)}}};
  Name c{1, Section{Triplet(1, 2)}, {Section{Triplet(5, 7)}}};
  Name d{1, Section{Triplet(1, 2)}, {}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(NetModel, StatsAccumulateAndReset) {
  ClosureFabric f(2);
  f.postReceive(1, nm(1), TransferKind::Data, [](const Message&) {});
  f.send(0, nm(1), TransferKind::Data, std::vector<std::byte>(4), 1);
  NetStats total = f.totalStats();
  EXPECT_EQ(total.messagesSent, 1u);
  EXPECT_EQ(total.bytesSent, 4u);
  EXPECT_EQ(total.messagesReceived, 1u);
  f.resetStats();
  EXPECT_EQ(f.totalStats().messagesSent, 0u);
  // Clocks are independent of stats resets.
  EXPECT_GT(f.clock(0), 0.0);
}

TEST(NetModel, BarrierCostIsChargedOnce) {
  CostModel m;
  m.barrierCost = 5.0;
  ClosureFabric f(2, m);
  f.advance(0, 2.0);
  runSpmd(2, [&](int pid) { f.barrier(pid); });
  EXPECT_DOUBLE_EQ(f.clock(0), 7.0);
  EXPECT_DOUBLE_EQ(f.clock(1), 7.0);
}

TEST(NetModel, ManyBarriersUnderContention) {
  ClosureFabric f(6);
  runSpmd(6, [&](int pid) {
    for (int i = 0; i < 200; ++i) {
      f.advance(pid, 0.001 * (pid + 1));
      f.barrier(pid);
    }
  });
  // All clocks equal after the last barrier.
  double c0 = f.clock(0);
  for (int p = 1; p < 6; ++p) EXPECT_DOUBLE_EQ(f.clock(p), c0);
  // Deterministic value: each round advances max slice (0.006) + cost.
  EXPECT_NEAR(c0, 200 * (0.006 + f.model().barrierCost), 1e-9);
}

}  // namespace
}  // namespace xdp::net
