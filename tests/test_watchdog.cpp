// Deadlock diagnosis: a run in which no processor can move while some
// have not finished is diagnosed at once by the scheduler and surfaces as
// a structured DeadlockError naming the blocked processors, the unmatched
// names and the owning sections — instead of the process hanging forever.
// Also covers the end-of-run match-state hygiene checks and multi-node
// failure aggregation.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "xdp/rt/proc.hpp"
#include "xdp/support/check.hpp"

namespace xdp::rt {
namespace {

using dist::DimSpec;
using sec::Section;
using sec::Triplet;

RuntimeOptions watched() {
  RuntimeOptions o;
  o.debugChecks = true;
  return o;
}

int declareBlocked(Runtime& rt, const char* name, sec::Index n, int procs) {
  return rt.declareArray<double>(
      name, Section{Triplet(1, n)},
      Distribution(Section{Triplet(1, n)}, {DimSpec::block(procs)}));
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(Watchdog, OrphanedReceiveIsDiagnosedAsDeadlock) {
  Runtime rt(2, watched());
  int A = declareBlocked(rt, "A", 8, 2);
  try {
    rt.run([&](Proc& p) {
      if (p.mypid() == 0) {
        // Receive a message nobody will ever send, then wait on it.
        p.recv(A, Section{Triplet(1, 4)}, A, Section{Triplet(5, 8)});
        p.await(A, Section{Triplet(1, 4)});
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(contains(e.summary(), "deadlock"));
    EXPECT_TRUE(contains(e.summary(), "1 of 2 processors blocked"));
    const std::string& rep = e.report();
    EXPECT_TRUE(contains(rep, "=== XDP deadlock report ==="));
    EXPECT_TRUE(contains(rep, "p0: blocked await"));  // who
    EXPECT_TRUE(contains(rep, "'A'"));                // on what symbol
    EXPECT_TRUE(contains(rep, "p1: finished"));
    EXPECT_TRUE(contains(rep, "pending receives (1):"));
    EXPECT_TRUE(contains(rep, "undelivered messages (0):"));
    // Owning-section state of the blocked processor rides along.
    EXPECT_TRUE(contains(rep, "symbol table, processor p0"));
    // what() = summary + report, so a bare `catch (std::exception&)`
    // logging e.what() still shows the whole story.
    EXPECT_TRUE(contains(e.what(), "=== XDP deadlock report ==="));
  }
}

TEST(Watchdog, OrphanedSendLeavesUndeliveredEvidenceInTheReport) {
  Runtime rt(2, watched());
  int A = declareBlocked(rt, "A", 8, 2);
  try {
    rt.run([&](Proc& p) {
      if (p.mypid() == 0) {
        // A send whose name matches no receive: parked at p1 forever.
        p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
      } else {
        // p1 waits for a *different* name that never arrives.
        p.recv(A, Section{Triplet(5, 7)}, A, Section{Triplet(1, 3)});
        p.await(A, Section{Triplet(5, 7)});
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string& rep = e.report();
    EXPECT_TRUE(contains(rep, "p1: blocked await"));
    EXPECT_TRUE(contains(rep, "undelivered messages (1):"));
    EXPECT_TRUE(contains(rep, "p0 -> p1"));  // the orphaned send, named
    EXPECT_TRUE(contains(rep, "pending receives (1):"));
  }
}

TEST(Watchdog, IncompleteBarrierIsDiagnosed) {
  Runtime rt(2, watched());
  try {
    rt.run([&](Proc& p) {
      if (p.mypid() == 0) p.barrier();  // p1 never arrives
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(contains(e.what(), "p0"));
    EXPECT_TRUE(contains(e.what(), "barrier"));
    EXPECT_TRUE(contains(e.report(), "waiting at barrier (1 of 2 arrived)"));
  }
}

TEST(Watchdog, AllNodeFailuresAreAggregated) {
  // Two processors hang independently; the rethrown error must name BOTH,
  // not just the lowest pid, and keep the full report of the diagnosis.
  Runtime rt(3, watched());
  int A = declareBlocked(rt, "A", 9, 3);
  try {
    rt.run([&](Proc& p) {
      if (p.mypid() == 0) {
        p.recv(A, Section{Triplet(1, 3)}, A, Section{Triplet(4, 6)});
        p.await(A, Section{Triplet(1, 3)});
      } else if (p.mypid() == 1) {
        p.recv(A, Section{Triplet(4, 6)}, A, Section{Triplet(7, 9)});
        p.await(A, Section{Triplet(4, 6)});
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(contains(e.summary(), "2 of 3 SPMD nodes failed"));
    EXPECT_TRUE(contains(e.summary(), "p0:"));
    EXPECT_TRUE(contains(e.summary(), "p1:"));
    EXPECT_TRUE(contains(e.report(), "=== XDP deadlock report ==="));
  }
}

TEST(Watchdog, RuntimeIsReusableAfterADiagnosedDeadlock) {
  Runtime rt(2, watched());
  int A = declareBlocked(rt, "A", 8, 2);
  EXPECT_THROW(rt.run([&](Proc& p) {
                 if (p.mypid() == 0) {
                   p.recv(A, Section{Triplet(1, 4)}, A, Section{Triplet(5, 8)});
                   p.await(A, Section{Triplet(1, 4)});
                 }
               }),
               DeadlockError);
  // The failed run leaked a posted receive into the fabric; the next run
  // must start from clean match state and finish with the end-of-run
  // hygiene checks green.
  rt.run([&](Proc& p) {
    if (p.mypid() == 0) {
      p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
    } else {
      p.recv(A, Section{Triplet(5, 8)}, A, Section{Triplet(1, 4)});
      EXPECT_TRUE(p.await(A, Section{Triplet(5, 8)}));
    }
  });
  EXPECT_EQ(rt.fabric().undeliveredCount(), 0u);
  EXPECT_EQ(rt.fabric().pendingReceiveCount(), 0u);
}

TEST(Watchdog, NoFalsePositiveOnASlowButLiveRun) {
  // Real time passes while processors alternate between computing,
  // sleeping and genuinely-but-temporarily blocking; no deadlock may be
  // reported.
  Runtime rt(2, watched());
  int A = declareBlocked(rt, "A", 8, 2);
  rt.run([&](Proc& p) {
    for (int it = 0; it < 8; ++it) {
      if (p.mypid() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
      } else {
        p.recv(A, Section{Triplet(5, 8)}, A, Section{Triplet(1, 4)});
        EXPECT_TRUE(p.await(A, Section{Triplet(5, 8)}));
      }
      p.barrier();
    }
  });
}

TEST(Watchdog, FinishedRunWithUnmatchedReceiveIsAUsageError) {
  // Nothing hangs — every thread returns — but the region ends with a
  // posted receive no send ever matched. Under debugChecks that is an XDP
  // usage error, reported at the region boundary.
  Runtime rt(2, watched());
  int A = declareBlocked(rt, "A", 8, 2);
  EXPECT_THROW(rt.run([&](Proc& p) {
                 if (p.mypid() == 0)
                   p.recv(A, Section{Triplet(1, 4)}, A, Section{Triplet(5, 8)});
               }),
               UsageError);
}

TEST(Watchdog, DroppedMessageHangsAreDiagnosedUnderALossyPlan) {
  // Fault injection + deadlock diagnosis, end to end: a plan that drops
  // everything turns a correct exchange into a hang, the scheduler turns
  // the hang into a DeadlockError, and the lossy plan waives the end-of-run
  // hygiene checks (the dropped send legitimately never matched).
  RuntimeOptions o = watched();
  net::FaultPlan plan;
  plan.dropProb = 1.0;
  o.faultPlan = plan;
  Runtime rt(2, o);
  int A = declareBlocked(rt, "A", 8, 2);
  try {
    rt.run([&](Proc& p) {
      if (p.mypid() == 0) {
        p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
      } else {
        p.recv(A, Section{Triplet(5, 8)}, A, Section{Triplet(1, 4)});
        p.await(A, Section{Triplet(5, 8)});
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(contains(e.report(), "p1: blocked await"));
  }
  EXPECT_GE(rt.fabric().faultStats().dropped, 1u);
}

TEST(Watchdog, CrashFaultSurfacesAsFaultAbort) {
  RuntimeOptions o = watched();
  net::FaultPlan plan;
  plan.crashPids = {0};
  plan.crashAfterSends = 0;
  o.faultPlan = plan;
  Runtime rt(2, o);
  int A = declareBlocked(rt, "A", 8, 2);
  // p1 does not depend on p0's message, so the single failure is the
  // crashed endpoint's own FaultAbort, rethrown with its type intact.
  EXPECT_THROW(rt.run([&](Proc& p) {
                 if (p.mypid() == 0)
                   p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
               }),
               FaultAbort);
}

}  // namespace
}  // namespace xdp::rt
