// Runtime semantics tests: every intrinsic and data-transfer statement of
// the paper's Figure 1, on the simulated SPMD machine.
#include <gtest/gtest.h>

#include <numeric>

#include "xdp/rt/dump.hpp"
#include "xdp/rt/proc.hpp"

namespace xdp::rt {
namespace {

using dist::DimSpec;
using sec::Triplet;

RuntimeOptions debug() {
  RuntimeOptions o;
  o.debugChecks = true;
  return o;
}

TEST(RtBasic, InitialOwnershipFollowsDistribution) {
  Runtime rt(4, debug());
  int A = rt.declareArray<double>(
      "A", Section{Triplet(1, 16)},
      Distribution(Section{Triplet(1, 16)}, {DimSpec::block(4)}));
  rt.run([&](Proc& p) {
    // Each processor exclusively owns its block and nothing else.
    Section mine{Triplet(4 * p.mypid() + 1, 4 * p.mypid() + 4)};
    EXPECT_TRUE(p.iown(A, mine));
    EXPECT_TRUE(p.accessible(A, mine));
    Section all{Triplet(1, 16)};
    EXPECT_FALSE(p.iown(A, all));
    Section other{Triplet(((p.mypid() + 1) % 4) * 4 + 1,
                          ((p.mypid() + 1) % 4) * 4 + 4)};
    EXPECT_FALSE(p.iown(A, other));
  });
}

TEST(RtBasic, MylbMyubAndSentinels) {
  Runtime rt(2, debug());
  int A = rt.declareArray<double>(
      "A", Section{Triplet(1, 4), Triplet(1, 8)},
      Distribution(Section{Triplet(1, 4), Triplet(1, 8)},
                   {DimSpec::collapsed(), DimSpec::block(2)}));
  rt.run([&](Proc& p) {
    Section all{Triplet(1, 4), Triplet(1, 8)};
    if (p.mypid() == 0) {
      EXPECT_EQ(p.mylb(A, all, 1), 1);
      EXPECT_EQ(p.myub(A, all, 1), 4);
    } else {
      EXPECT_EQ(p.mylb(A, all, 1), 5);
      EXPECT_EQ(p.myub(A, all, 1), 8);
    }
    EXPECT_EQ(p.mylb(A, all, 0), 1);
    EXPECT_EQ(p.myub(A, all, 0), 4);
    // Query restricted to a section this processor does not own at all.
    Section theirs{Triplet(1, 4),
                   Triplet(p.mypid() == 0 ? 5 : 1, p.mypid() == 0 ? 8 : 4)};
    EXPECT_EQ(p.mylb(A, theirs, 1), kMaxInt);
    EXPECT_EQ(p.myub(A, theirs, 1), kMinInt);
  });
}

TEST(RtBasic, LocalReadWriteRoundTrip) {
  Runtime rt(2, debug());
  int A = rt.declareArray<double>(
      "A", Section{Triplet(1, 8)},
      Distribution(Section{Triplet(1, 8)}, {DimSpec::block(2)}));
  rt.run([&](Proc& p) {
    Section mine{Triplet(4 * p.mypid() + 1, 4 * p.mypid() + 4)};
    std::vector<double> vals{10, 11, 12, 13};
    for (auto& v : vals) v += p.mypid() * 100;
    p.write<double>(A, mine, vals);
    auto back = p.read<double>(A, mine);
    EXPECT_EQ(back, vals);
    // Point get/set.
    p.set<double>(A, Point{4 * p.mypid() + 2}, -1.0);
    EXPECT_EQ(p.get<double>(A, Point{4 * p.mypid() + 2}), -1.0);
  });
}

TEST(RtBasic, SimpleExampleOwnerComputes) {
  // The paper's section 2.2 program: A[i] = A[i] + B[i] with all arrays
  // block-distributed and T[mypid] the per-processor temporary.
  const int P = 4, N = 16;
  Runtime rt(P, debug());
  Section gN{Triplet(1, N)};
  Section gP{Triplet(0, P - 1)};
  Distribution dN(gN, {DimSpec::block(P)});
  // B deliberately distributed CYCLIC so transfers really happen.
  Distribution dNc(gN, {DimSpec::cyclic(P)});
  Distribution dP(gP, {DimSpec::block(P)});
  int A = rt.declareArray<double>("A", gN, dN);
  int B = rt.declareArray<double>("B", gN, dNc);
  int T = rt.declareArray<double>("T", gP, dP);

  rt.run([&](Proc& p) {
    // Initialize: A[i] = i, B[i] = 10*i (owners write their own parts).
    for (Index i = 1; i <= N; ++i) {
      Section si{Triplet(i)};
      if (p.iown(A, si)) p.set<double>(A, Point{i}, static_cast<double>(i));
      if (p.iown(B, si))
        p.set<double>(B, Point{i}, 10.0 * static_cast<double>(i));
    }
    p.barrier();
    for (Index i = 1; i <= N; ++i) {
      Section si{Triplet(i)};
      Section tp{Triplet(p.mypid())};
      // iown(B[i]) : { B[i] -> }
      if (p.iown(B, si)) p.send(B, si);
      // iown(A[i]) : { T[mypid] <- B[i]; await(T[mypid]); A[i] += T }
      if (p.iown(A, si)) {
        p.recv(T, tp, B, si);
        EXPECT_TRUE(p.await(T, tp));
        double a = p.get<double>(A, Point{i});
        double t = p.get<double>(T, Point{p.mypid()});
        p.set<double>(A, Point{i}, a + t);
      }
    }
    p.barrier();
    // Verify: A[i] == 11*i on the owner.
    for (Index i = 1; i <= N; ++i) {
      Section si{Triplet(i)};
      if (p.iown(A, si)) {
        EXPECT_DOUBLE_EQ(p.get<double>(A, Point{i}), 11.0 * i);
      }
    }
  });
  // Matching sends/receives all consumed.
  EXPECT_EQ(rt.fabric().undeliveredCount(), 0u);
}

TEST(RtBasic, VectorizedSectionTransfer) {
  // Whole-section send/recv (message vectorization): one message instead
  // of four.
  const int P = 2, N = 8;
  Runtime rt(P, debug());
  Section g{Triplet(1, N)};
  Distribution d(g, {DimSpec::block(P)});
  int A = rt.declareArray<double>("A", g, d);
  int R = rt.declareArray<double>(
      "R", Section{Triplet(1, N), Triplet(0, P - 1)},
      Distribution(Section{Triplet(1, N), Triplet(0, P - 1)},
                   {DimSpec::collapsed(), DimSpec::block(P)}));
  rt.fabric().resetStats();
  rt.run([&](Proc& p) {
    Section mine{Triplet(4 * p.mypid() + 1, 4 * p.mypid() + 4)};
    std::vector<double> init{1, 2, 3, 4};
    p.write<double>(A, mine, init);
    p.barrier();
    int other = 1 - p.mypid();
    Section theirs{Triplet(4 * other + 1, 4 * other + 4)};
    // Both send their whole block to the other (bound destinations).
    p.send(A, mine, std::vector<int>{other});
    Section dst{Triplet(4 * other + 1, 4 * other + 4), Triplet(p.mypid())};
    p.recv(R, dst, A, theirs);
    EXPECT_TRUE(p.await(R, dst));
    auto got = p.read<double>(R, dst);
    EXPECT_EQ(got, init);  // other proc wrote the same values
  });
  auto s = rt.fabric().totalStats();
  EXPECT_EQ(s.messagesSent, 2u);  // exactly one message each way
  EXPECT_EQ(s.bytesSent, 2u * 4u * sizeof(double));
}

TEST(RtBasic, AccessibleFalseWhileReceivePending) {
  // accessible() lets a processor do background work while waiting
  // (paper section 2.3).
  Runtime rt(2, debug());
  Section g{Triplet(0, 1)};
  Distribution d(g, {DimSpec::block(2)});
  int A = rt.declareArray<double>("A", g, d);
  rt.run([&](Proc& p) {
    Section mine{Triplet(p.mypid())};
    if (p.mypid() == 1) {
      Section src{Triplet(0)};
      p.recv(A, mine, A, src);
      // The receive is initiated but cannot have completed: p0 hasn't
      // sent yet (it is blocked in the barrier below until we get there).
      EXPECT_TRUE(p.iown(A, mine));        // transitional is still owned
      EXPECT_FALSE(p.accessible(A, mine)); // but not accessible
      p.barrier();
      EXPECT_TRUE(p.await(A, mine));
      EXPECT_TRUE(p.accessible(A, mine));
      EXPECT_DOUBLE_EQ(p.get<double>(A, Point{1}), 3.25);
    } else {
      p.set<double>(A, Point{0}, 3.25);
      p.barrier();
      p.send(A, Section{Triplet(0)}, std::vector<int>{1});
    }
  });
}

TEST(RtBasic, AwaitReturnsFalseOnUnownedSection) {
  Runtime rt(2);
  Section g{Triplet(1, 8)};
  int A = rt.declareArray<double>("A", g,
                                  Distribution(g, {DimSpec::block(2)}));
  rt.run([&](Proc& p) {
    Section other{Triplet(p.mypid() == 0 ? 5 : 1, p.mypid() == 0 ? 8 : 4)};
    EXPECT_FALSE(p.await(A, other));
    // Partially-owned sections are also "unowned" in Figure 1's sense.
    EXPECT_FALSE(p.await(A, Section{Triplet(1, 8)}));
  });
}

TEST(RtBasic, DebugChecksCatchTransitionalRead) {
  Runtime rt(2, debug());
  Section g{Triplet(0, 1)};
  int A = rt.declareArray<double>("A", g,
                                  Distribution(g, {DimSpec::block(2)}));
  rt.run([&](Proc& p) {
    if (p.mypid() == 1) {
      Section mine{Triplet(1)};
      p.recv(A, mine, A, Section{Triplet(0)});
      // Reading while transitional violates the usage rules.
      EXPECT_THROW(p.read<double>(A, mine), xdp::UsageError);
      p.barrier();
      p.await(A, mine);
    } else {
      p.barrier();  // ensure the read above happens before the send
      p.send(A, Section{Triplet(0)}, std::vector<int>{1});
    }
  });
}

TEST(RtBasic, DebugChecksCatchUnownedRead) {
  Runtime rt(2, debug());
  Section g{Triplet(1, 8)};
  int A = rt.declareArray<double>("A", g,
                                  Distribution(g, {DimSpec::block(2)}));
  rt.run([&](Proc& p) {
    if (p.mypid() == 0) {
      EXPECT_THROW(p.read<double>(A, Section{Triplet(5, 8)}),
                   xdp::UsageError);
    }
  });
}

TEST(RtBasic, MulticastSendToSet) {
  const int P = 4;
  Runtime rt(P, debug());
  Section g{Triplet(0, P - 1)};
  int A = rt.declareArray<double>("A", g, Distribution(g, {DimSpec::block(P)}));
  int R = rt.declareArray<double>(
      "R", Section{Triplet(0, P - 1)},
      Distribution(Section{Triplet(0, P - 1)}, {DimSpec::block(P)}));
  rt.run([&](Proc& p) {
    Section root{Triplet(0)};
    if (p.mypid() == 0) {
      p.set<double>(A, Point{0}, 99.0);
      p.send(A, root, std::vector<int>{1, 2, 3});  // E -> S broadcast
    } else {
      Section mine{Triplet(p.mypid())};
      p.recv(R, mine, A, root);
      EXPECT_TRUE(p.await(R, mine));
      EXPECT_DOUBLE_EQ(p.get<double>(R, Point{p.mypid()}), 99.0);
    }
  });
}

TEST(RtBasic, SymbolTableDumpHasFigure2Fields) {
  Runtime rt(4);
  Section gA{Triplet(1, 4), Triplet(1, 8)};
  rt.declareArray<double>(
      "A", gA,
      Distribution(gA, {DimSpec::collapsed(), DimSpec::block(4)}),
      SegmentShape::of({2, 1}));
  rt.run([](Proc&) {});
  std::string dump = dumpSymbolTable(rt.table(3));
  EXPECT_NE(dump.find("A"), std::string::npos);
  EXPECT_NE(dump.find("(*, BLOCK)"), std::string::npos);
  EXPECT_NE(dump.find("segdesc"), std::string::npos);
  EXPECT_NE(dump.find("accessible"), std::string::npos);
}

TEST(RtBasic, FreshTablesEachRun) {
  Runtime rt(2, debug());
  Section g{Triplet(1, 4)};
  int A = rt.declareArray<double>("A", g, Distribution(g, {DimSpec::block(2)}));
  rt.run([&](Proc& p) {
    if (p.mypid() == 0) p.set<double>(A, Point{1}, 5.0);
  });
  rt.run([&](Proc& p) {
    // Zero-initialized again.
    if (p.mypid() == 0) {
      EXPECT_DOUBLE_EQ(p.get<double>(A, Point{1}), 0.0);
    }
  });
}

}  // namespace
}  // namespace xdp::rt
