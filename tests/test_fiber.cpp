// The machine's scheduler: every simulated processor is a fiber of the
// thread that runs the machine. Covers the scheduling policy (lowest
// virtual clock first, ties to the lowest id), parking and waking, the
// stall handler, failure collection, deep fiber stacks, blocking calls
// made outside any fiber, and deadlocks reported without a time window.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cfenv>
#include <string>
#include <vector>

#include "xdp/net/fabric.hpp"
#include "xdp/net/spmd.hpp"
#include "xdp/rt/proc.hpp"
#include "xdp/support/check.hpp"
#include "xdp/support/fiber.hpp"

namespace xdp {
namespace {

using dist::DimSpec;
using dist::Distribution;
using sec::Section;
using sec::Triplet;

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(FiberScheduler, LowestClockRunsFirstAndTiesGoToTheLowestId) {
  // Clocks 3, 1, 1, 0: fiber 3 runs first, then 1 before 2, then 0.
  const std::array<double, 4> clocks{3.0, 1.0, 1.0, 0.0};
  std::vector<int> order;
  net::runSpmd(
      4, [&](int pid) { order.push_back(pid); },
      [&](int pid) { return clocks[static_cast<std::size_t>(pid)]; });
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 0}));
}

TEST(FiberScheduler, YieldIfBehindHandsOverOnlyToAStrictlyLowerClock) {
  std::array<double, 2> clocks{0.0, 0.0};
  std::vector<std::string> trace;
  net::runSpmd(
      2,
      [&](int pid) {
        FiberScheduler& s = *FiberScheduler::current();
        const std::string me = "p" + std::to_string(pid);
        trace.push_back(me + " start");
        s.yieldIfBehind();  // an equal clock is not behind
        trace.push_back(me + " ahead");
        clocks[static_cast<std::size_t>(pid)] += 1.0;
        s.yieldIfBehind();  // p1 still reads 0 when p0 gets here
        trace.push_back(me + " done");
      },
      [&](int pid) { return clocks[static_cast<std::size_t>(pid)]; });
  EXPECT_EQ(trace, (std::vector<std::string>{"p0 start", "p0 ahead",
                                             "p1 start", "p1 ahead",
                                             "p1 done", "p0 done"}));
}

TEST(FiberScheduler, StallHandlerWakesParkedFibers) {
  std::vector<int> order;
  int stalls = 0;
  net::runSpmd(
      3,
      [&](int pid) {
        FiberScheduler::current()->park();
        order.push_back(pid);
      },
      {},
      [&](FiberScheduler& s) {
        // Nothing runs until the handler wakes someone: highest id first.
        ++stalls;
        for (int id = 2; id >= 0; --id) {
          if (!s.finished(id)) {
            s.wake(id);
            return;
          }
        }
      });
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(stalls, 3);
}

TEST(FiberScheduler, UnresolvedStallFailsEveryParkedFiber) {
  try {
    net::runSpmd(2, [&](int pid) {
      if (pid == 0) FiberScheduler::current()->park();
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(contains(e.what(), "deadlock")) << e.what();
  }
}

TEST(FiberScheduler, ManyThrowingFibersAreAllReported) {
  try {
    net::runSpmd(256, [](int pid) {
      throw XdpError("boom " + std::to_string(pid));
    });
    FAIL() << "expected XdpError";
  } catch (const UsageError&) {
    FAIL() << "a mixed failure set must not read as a usage error";
  } catch (const XdpError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(contains(what, "256 of 256 SPMD nodes failed")) << what;
    EXPECT_TRUE(contains(what, "p0: boom 0"));
    EXPECT_TRUE(contains(what, "p255: boom 255"));
  }
  // Uniform usage errors stay usage errors.
  EXPECT_THROW(net::runSpmd(256, [](int) { XDP_USAGE_FAIL("bad use"); }),
               UsageError);
}

/// Recursion that keeps `depth` frames of 4 KiB live at once.
std::uint64_t deepSum(int depth) {
  volatile char frame[4096];
  for (std::size_t i = 0; i < sizeof(frame); i += 512)
    frame[i] = static_cast<char>(depth);
  if (depth == 0) return 0;
  return deepSum(depth - 1) + static_cast<unsigned char>(frame[512]);
}

TEST(FiberScheduler, FiberStackHoldsAMebibyteOfFrames) {
  std::uint64_t sum = 0;
  net::runSpmd(2, [&](int pid) {
    if (pid == 1) sum = deepSum(256);  // ~1 MiB of stack
  });
  EXPECT_EQ(sum, deepSum(256));  // the same frames on the main stack
}

TEST(FiberScheduler, EachFiberKeepsItsOwnRoundingMode) {
  // MXCSR is part of a fiber's context: a fiber that changes the SSE
  // rounding mode and parks must not leak it into its peers.
  volatile double one = 1.0;
  volatile double three = 3.0;
  std::array<double, 2> quotient{};
  net::runSpmd(2, [&](int pid) {
    FiberScheduler& s = *FiberScheduler::current();
    if (pid == 0) {
      std::fesetround(FE_UPWARD);
      s.park();  // p1 runs in between and wakes p0
      quotient[0] = one / three;
      std::fesetround(FE_TONEAREST);
    } else {
      quotient[1] = one / three;
      s.wake(0);
    }
  });
  EXPECT_GT(quotient[0], quotient[1]);
  EXPECT_EQ(quotient[1], 1.0 / 3.0);
}

TEST(FiberScheduler, BlockingOutsideRunSpmdIsAUsageError) {
  // A transitional await on a plain thread could never be woken.
  const Section g{Triplet(1, 8)};
  rt::SymbolDecl decl;
  decl.index = 0;
  decl.name = "A";
  decl.global = g;
  decl.dist = Distribution(g, {DimSpec::block(1)});
  rt::ProcTable t(0, {decl}, /*debugChecks=*/false);
  t.beginReceive(0, Section{Triplet(1, 4)});
  EXPECT_TRUE(t.await(0, Section{Triplet(5, 8)}));  // accessible: no park
  EXPECT_THROW(t.await(0, Section{Triplet(1, 4)}), UsageError);

  // So is a barrier entry that would have to wait for peers.
  net::Fabric f(2);
  EXPECT_THROW(f.barrier(0), UsageError);
  EXPECT_EQ(f.barrierWaiters(), 0);
  net::Fabric solo(1);
  solo.barrier(0);  // the last entrant never waits
}

TEST(FiberScheduler, DeadlockIsReportedWithNoWindowSet) {
  rt::Runtime runtime(2);  // default options: nothing to configure
  const Section g{Triplet(1, 8)};
  const int A = runtime.declareArray<double>(
      "A", g, Distribution(g, {DimSpec::block(2)}));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    runtime.run([&](rt::Proc& p) {
      if (p.mypid() == 0) {
        p.recv(A, Section{Triplet(1, 4)}, A, Section{Triplet(5, 8)});
        p.await(A, Section{Triplet(1, 4)});
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(contains(e.summary(), "1 of 2 processors blocked"))
        << e.summary();
    EXPECT_TRUE(contains(e.report(), "p0: blocked await"));
    EXPECT_TRUE(contains(e.report(), "p1: finished"));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(seconds, 1.0);
}

}  // namespace
}  // namespace xdp
