// Fault-injection tests: deterministic decision streams, drop/duplicate/
// delay/reorder/stall/crash semantics at the fabric level, the MPI
// non-overtaking guarantee, rendezvous FCFS under perturbation, and a
// whole application (jacobi) surviving a non-lossy fault plan unmodified
// via FaultScope.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "fabric_receives.hpp"
#include "xdp/apps/jacobi.hpp"
#include "xdp/net/spmd.hpp"
#include "xdp/rt/proc.hpp"
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

void expectEq(const NetStats& a, const NetStats& b) {
  EXPECT_EQ(a.messagesSent, b.messagesSent);
  EXPECT_EQ(a.bytesSent, b.bytesSent);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  EXPECT_EQ(a.bytesReceived, b.bytesReceived);
  EXPECT_EQ(a.rendezvousSends, b.rendezvousSends);
  EXPECT_EQ(a.directSends, b.directSends);
  EXPECT_EQ(a.unexpectedMessages, b.unexpectedMessages);
}

TEST(FaultPlan, LossyPredicate) {
  EXPECT_FALSE(FaultPlan{}.lossy());
  FaultPlan dup;
  dup.dupProb = 1.0;
  dup.delayProb = 1.0;
  dup.reorderProb = 1.0;
  EXPECT_FALSE(dup.lossy());
  FaultPlan drop;
  drop.dropProb = 0.1;
  EXPECT_TRUE(drop.lossy());
  FaultPlan crash;
  crash.crashPids = {0};
  EXPECT_TRUE(crash.lossy());
}

TEST(FaultInjection, ZeroProbabilityPlanBehavesLikeNoPlan) {
  // A completion trace (receiver, payload) of a small mixed workload.
  auto run = [](ClosureFabric& f) {
    std::vector<std::pair<int, std::vector<std::byte>>> trace;
    auto rec = [&](int pid) {
      return [&trace, pid](const Message& m) {
        trace.emplace_back(pid, m.payload.toVector());
      };
    };
    f.postReceive(1, name(1, 1, 2), TransferKind::Data, rec(1));
    f.send(0, name(1, 1, 2), TransferKind::Data, bytes({1, 2}), 1);
    f.send(0, name(2, 1, 1), TransferKind::Data, bytes({3}), std::nullopt);
    f.postReceive(2, name(2, 1, 1), TransferKind::Data, rec(2));
    f.send(3, name(3, 1, 1), TransferKind::Ownership, {}, 1);
    f.postReceive(1, name(3, 1, 1), TransferKind::Ownership, rec(1));
    return trace;
  };
  ClosureFabric plain(4);
  auto wantTrace = run(plain);

  ClosureFabric faulty(4);
  faulty.setFaultPlan(FaultPlan{});  // installed but all probabilities zero
  EXPECT_TRUE(faulty.hasFaultPlan());
  EXPECT_FALSE(faulty.faultPlanLossy());
  auto gotTrace = run(faulty);

  EXPECT_EQ(gotTrace, wantTrace);
  expectEq(faulty.totalStats(), plain.totalStats());
  const FaultStats fs = faulty.faultStats();
  EXPECT_EQ(fs.dropped, 0u);
  EXPECT_EQ(fs.duplicated, 0u);
  EXPECT_EQ(fs.delayed, 0u);
  EXPECT_EQ(fs.reordered, 0u);
  EXPECT_EQ(fs.stalled, 0u);
  EXPECT_EQ(fs.crashed, 0u);
}

TEST(FaultInjection, DecisionsAreDeterministicUnderFixedSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.dupProb = 0.4;
  plan.delayProb = 0.5;
  plan.maxDelay = 7.0;
  plan.reorderProb = 0.4;

  // Same plan, same sends => same delivery trace (receiver, payload,
  // virtual arrival), same net stats, same fault stats — twice over.
  auto run = [&plan] {
    ClosureFabric f(4);
    f.setFaultPlan(plan);
    std::vector<std::tuple<int, std::vector<std::byte>, double>> trace;
    auto rec = [&trace](int pid) {
      return [&trace, pid](const Message& m) {
        trace.emplace_back(pid, m.payload.toVector(), m.arrival);
      };
    };
    for (int sym = 1; sym <= 8; ++sym)
      f.postReceive(sym % 3 + 1, name(sym, 1, 1), TransferKind::Data,
                    rec(sym % 3 + 1));
    for (int sym = 1; sym <= 8; ++sym)
      f.send(0, name(sym, 1, 1), TransferKind::Data, bytes({sym}),
             sym % 3 + 1);
    f.flushHeldFaults();
    return std::make_tuple(trace, f.totalStats(), f.faultStats());
  };
  auto [t1, n1, f1] = run();
  auto [t2, n2, f2] = run();
  EXPECT_EQ(t1, t2);
  expectEq(n1, n2);
  EXPECT_EQ(f1.duplicated, f2.duplicated);
  EXPECT_EQ(f1.suppressedDuplicates, f2.suppressedDuplicates);
  EXPECT_EQ(f1.delayed, f2.delayed);
  EXPECT_EQ(f1.reordered, f2.reordered);
  EXPECT_EQ(t1.size(), 8u);  // non-lossy: every message completes exactly once
}

// The per-source fault decision stream is keyed by each source's own send
// ordinal, so on concurrent traffic an identical plan must produce the
// same fault statistics, receipts and stranded receives however the
// threads interleave.
TEST(FaultInjection, FaultDecisionsRepeatUnderConcurrentPairTraffic) {
  constexpr int kProcs = 8, kMsgs = 300;
  FaultPlan plan;
  plan.seed = 7;
  plan.dropProb = 0.25;
  plan.dupProb = 0.25;
  plan.delayProb = 0.25;
  plan.maxDelay = 1e-4;
  struct Observed {
    int received = 0;
    NetStats stats{};
    FaultStats faults{};
    std::size_t pendingReceives = 0;
  };
  // Even pids send `kMsgs` direct messages to their partner (pid ^ 1);
  // odd pids post the matching receives.
  auto run = [&] {
    ClosureFabric f(kProcs);
    f.setFaultPlan(plan);
    std::atomic<int> received{0};
    runSpmd(kProcs, [&](int pid) {
      const int partner = pid ^ 1;
      for (int i = 0; i < kMsgs; ++i) {
        if (pid % 2 == 0) {
          f.send(pid, name(pid, i, i), TransferKind::Data, bytes({i & 0xff}),
                 partner);
        } else {
          f.postReceive(pid, name(partner, i, i), TransferKind::Data,
                        [&](const Message&) {
                          received.fetch_add(1, std::memory_order_relaxed);
                        });
        }
      }
    });
    Observed o;
    o.received = received.load();
    o.stats = f.totalStats();
    o.faults = f.faultStats();
    o.pendingReceives = f.pendingReceiveCount();
    return o;
  };
  const Observed a = run();
  const Observed b = run();
  EXPECT_GT(a.faults.dropped, 0u);
  EXPECT_GT(a.faults.duplicated, 0u);
  EXPECT_EQ(b.received, a.received);
  EXPECT_EQ(b.faults.dropped, a.faults.dropped);
  EXPECT_EQ(b.faults.duplicated, a.faults.duplicated);
  EXPECT_EQ(b.faults.suppressedDuplicates, a.faults.suppressedDuplicates);
  EXPECT_EQ(b.faults.delayed, a.faults.delayed);
  EXPECT_EQ(b.stats.messagesReceived, a.stats.messagesReceived);
  // Un-matched receives for dropped messages must strand identically.
  EXPECT_EQ(b.pendingReceives, a.pendingReceives);
  EXPECT_EQ(a.pendingReceives, a.faults.dropped);
}

TEST(FaultInjection, DroppedMessageIsCountedAndNeverDelivered) {
  FaultPlan plan;
  plan.dropProb = 1.0;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  EXPECT_TRUE(f.faultPlanLossy());
  int fired = 0;
  f.postReceive(1, name(1, 1, 4), TransferKind::Data,
                [&](const Message&) { ++fired; });
  f.send(0, name(1, 1, 4), TransferKind::Data, bytes({1, 2, 3, 4}), 1);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(f.faultStats().dropped, 1u);
  EXPECT_EQ(f.undeliveredCount(), 0u);     // the fabric lost it, sender paid
  EXPECT_EQ(f.pendingReceiveCount(), 1u);  // the receive hangs forever
  EXPECT_EQ(f.stats(0).messagesSent, 1u);  // sender-side accounting intact
}

TEST(FaultInjection, DuplicateCompletesExactlyOnceWhenReceiveIsPosted) {
  FaultPlan plan;
  plan.dupProb = 1.0;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  int fired = 0;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message&) { ++fired; });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({9}), 1);
  EXPECT_EQ(fired, 1);  // the copy was suppressed at delivery
  EXPECT_EQ(f.faultStats().duplicated, 1u);
  EXPECT_EQ(f.faultStats().suppressedDuplicates, 1u);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

TEST(FaultInjection, ParkedDuplicateTwinIsPurgedWhenOriginalCompletes) {
  FaultPlan plan;
  plan.dupProb = 1.0;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({5}), 1);
  EXPECT_EQ(f.undeliveredCount(), 2u);  // original + copy parked unexpected
  int fired = 0;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message&) { ++fired; });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(f.undeliveredCount(), 0u);  // the twin was purged, not leaked
  EXPECT_EQ(f.faultStats().suppressedDuplicates, 1u);
}

TEST(FaultInjection, DelayPushesVirtualArrivalBackDeterministically) {
  auto arrivalOf = [](const FaultPlan* plan) {
    ClosureFabric f(2);
    if (plan) f.setFaultPlan(*plan);
    double arrival = -1.0;
    f.postReceive(1, name(1, 1, 4), TransferKind::Data,
                  [&](const Message& m) { arrival = m.arrival; });
    f.send(0, name(1, 1, 4), TransferKind::Data, bytes({1, 2, 3, 4}), 1);
    return arrival;
  };
  const double base = arrivalOf(nullptr);
  ASSERT_GE(base, 0.0);
  FaultPlan plan;
  plan.delayProb = 1.0;
  plan.maxDelay = 8.0;
  const double delayed = arrivalOf(&plan);
  EXPECT_GT(delayed, base);
  EXPECT_LE(delayed, base + plan.maxDelay);
  EXPECT_DOUBLE_EQ(delayed, arrivalOf(&plan));  // same seed => same delay
  plan.seed = 99;
  const double other = arrivalOf(&plan);
  EXPECT_NE(other, delayed);  // a different stream draws a different delay
}

TEST(FaultInjection, ReorderSwapsAdjacentMessagesWithDifferentNames) {
  FaultPlan plan;
  plan.reorderProb = 1.0;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  std::vector<int> order;  // symbol ids in completion order
  for (int sym : {1, 2})
    f.postReceive(1, name(sym, 1, 1), TransferKind::Data,
                  [&order, sym](const Message&) { order.push_back(sym); });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);  // held
  EXPECT_EQ(f.heldFaultCount(), 1u);
  EXPECT_TRUE(order.empty());
  // The next send releases the held one *after* itself: adjacent swap.
  f.send(0, name(2, 1, 1), TransferKind::Data, bytes({2}), 1);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(f.heldFaultCount(), 0u);
  EXPECT_EQ(f.faultStats().reordered, 1u);
}

TEST(FaultInjection, SameNameMessagesNeverOvertake) {
  // MPI's non-overtaking rule: per-name FIFO survives reordering, so the
  // value each receive observes stays well-defined.
  FaultPlan plan;
  plan.reorderProb = 1.0;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  std::vector<std::vector<std::byte>> payloads;
  for (int i = 0; i < 2; ++i)
    f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                  [&](const Message& m) {
                    payloads.push_back(m.payload.toVector());
                  });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);  // held
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({2}), 1);
  f.flushHeldFaults();
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], bytes({1}));  // program order preserved
  EXPECT_EQ(payloads[1], bytes({2}));
}

TEST(FaultInjection, RendezvousMatchingStaysFcfsUnderDelayAndReorder) {
  // Paper section 2.7: several processors hold receives outstanding for
  // the SAME name; the matcher serves them first-come-first-served. Fault
  // injection must not change who gets which message.
  FaultPlan plan;
  plan.delayProb = 1.0;
  plan.maxDelay = 50.0;
  plan.reorderProb = 1.0;
  ClosureFabric f(4);
  f.setFaultPlan(plan);
  std::vector<std::pair<int, std::vector<std::byte>>> got;
  for (int pid : {3, 1, 2})  // posting order != pid order
    f.postReceive(pid, name(7, 1, 1), TransferKind::Data,
                  [&got, pid](const Message& m) {
                    got.emplace_back(pid, m.payload.toVector());
                  });
  for (int i = 1; i <= 3; ++i)
    f.send(0, name(7, 1, 1), TransferKind::Data, bytes({i}), std::nullopt);
  f.flushHeldFaults();
  ASSERT_EQ(got.size(), 3u);
  // i-th send completes the i-th posted receive, in posting order.
  EXPECT_EQ(got[0], std::make_pair(3, bytes({1})));
  EXPECT_EQ(got[1], std::make_pair(1, bytes({2})));
  EXPECT_EQ(got[2], std::make_pair(2, bytes({3})));
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  EXPECT_EQ(f.undeliveredCount(), 0u);
}

TEST(FaultInjection, StalledEndpointPaysFixedDelayPerSend) {
  auto arrivalOf = [](const FaultPlan* plan) {
    ClosureFabric f(2);
    if (plan) f.setFaultPlan(*plan);
    double arrival = -1.0;
    f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                  [&](const Message& m) { arrival = m.arrival; });
    f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
    return arrival;
  };
  const double base = arrivalOf(nullptr);
  FaultPlan plan;
  plan.stallPids = {0};
  plan.stallDelay = 3.0;
  EXPECT_DOUBLE_EQ(arrivalOf(&plan), base + 3.0);
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({2}), 1);
  f.send(1, name(2, 1, 1), TransferKind::Data, bytes({3}), 0);  // not stalled
  EXPECT_EQ(f.faultStats().stalled, 2u);
}

TEST(FaultInjection, CrashedEndpointThrowsFaultAbortAfterItsBudget) {
  FaultPlan plan;
  plan.crashPids = {0};
  plan.crashAfterSends = 2;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({2}), 1);
  EXPECT_THROW(f.send(0, name(1, 1, 1), TransferKind::Data, bytes({3}), 1),
               FaultAbort);
  // The endpoint stays dead; other endpoints are unaffected.
  EXPECT_THROW(f.send(0, name(1, 1, 1), TransferKind::Data, bytes({4}), 1),
               FaultAbort);
  EXPECT_NO_THROW(f.send(1, name(2, 1, 1), TransferKind::Data, bytes({5}), 0));
  EXPECT_EQ(f.faultStats().crashed, 1u);
  try {
    f.send(0, name(1, 1, 1), TransferKind::Data, {}, 1);
    FAIL() << "expected FaultAbort";
  } catch (const FaultAbort& e) {
    EXPECT_NE(std::string(e.what()).find("p0"), std::string::npos);
  }
}

TEST(FaultInjection, ReplacingThePlanReleasesHeldMessages) {
  FaultPlan plan;
  plan.reorderProb = 1.0;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  int fired = 0;
  f.postReceive(1, name(1, 1, 1), TransferKind::Data,
                [&](const Message&) { ++fired; });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  EXPECT_EQ(f.heldFaultCount(), 1u);
  f.clearFaultPlan();  // must not strand the held message
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(f.hasFaultPlan());
  EXPECT_EQ(f.heldFaultCount(), 0u);
}

TEST(FaultInjection, FaultScopeIsAdoptedByNewFabricsAndRestoredOnExit) {
  FaultPlan plan;
  plan.dupProb = 1.0;
  {
    FaultScope faults(plan);
    ClosureFabric f(2);
    EXPECT_TRUE(f.hasFaultPlan());
    ASSERT_TRUE(currentGlobalFaultPlan().has_value());
    EXPECT_EQ(currentGlobalFaultPlan()->dupProb, 1.0);
    {
      FaultPlan inner;
      inner.dropProb = 0.5;
      FaultScope nested(inner);
      EXPECT_EQ(currentGlobalFaultPlan()->dropProb, 0.5);
    }
    EXPECT_EQ(currentGlobalFaultPlan()->dupProb, 1.0);  // nesting restores
  }
  EXPECT_FALSE(currentGlobalFaultPlan().has_value());
  ClosureFabric f(2);
  EXPECT_FALSE(f.hasFaultPlan());
}

TEST(FaultInjection, NestedScopeFabricKeepsItsPlanWhenScopesUnwind) {
  // A fabric snapshots the innermost plan at construction; the scopes
  // unwinding afterwards must not reach back into it.
  Fabric* made = nullptr;
  std::optional<ClosureFabric> f;
  {
    FaultPlan outer;
    outer.dupProb = 1.0;
    FaultScope faults(outer);
    {
      FaultPlan inner;
      inner.reorderProb = 1.0;
      FaultScope nested(inner);
      f.emplace(2);
      made = &*f;
    }
  }
  ASSERT_NE(made, nullptr);
  EXPECT_TRUE(made->hasFaultPlan());
  // The inner plan (reorder, non-dup) is still live: a send with no
  // posted receive is held back, not duplicated.
  made->send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  EXPECT_EQ(made->heldFaultCount(), 1u);
  EXPECT_EQ(made->faultStats().duplicated, 0u);
  // Hygiene: draining reclaims the held message and nothing survives.
  DrainReport d = made->drain();
  EXPECT_EQ(d.heldFaults, 1u);
  EXPECT_EQ(made->heldFaultCount(), 0u);
  EXPECT_EQ(made->undeliveredCount(), 0u);
  EXPECT_EQ(made->pendingReceiveCount(), 0u);
}

TEST(FaultInjection, CrashWhilePeerIsParkedInAwait) {
  // p1 parks in await on a message only p0 can send; p0's endpoint dies
  // on its first send. The crash surfaces (aggregated under the peer's
  // diagnosed deadlock), and teardown leaves no match state.
  rt::RuntimeOptions o;
  o.debugChecks = true;
  FaultPlan plan;
  plan.crashPids = {0};
  plan.crashAfterSends = 0;
  o.faultPlan = plan;
  rt::Runtime rt(2, o);
  const Section all{Triplet(1, 8)};
  int A = rt.declareArray<double>(
      "A", all, dist::Distribution(all, {dist::DimSpec::block(2)}));
  EXPECT_THROW(rt.run([&](rt::Proc& p) {
                 if (p.mypid() == 1) {
                   p.recv(A, Section{Triplet(5, 8)}, A, Section{Triplet(1, 4)});
                   p.await(A, Section{Triplet(5, 8)});
                 } else {
                   p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
                 }
               }),
               XdpError);
  EXPECT_EQ(rt.fabric().faultStats().crashed, 1u);
  // p1's posted receive is the only survivor; draining reclaims it.
  DrainReport d = rt.fabric().drain();
  EXPECT_GE(d.unmatchedReceives, 1u);
  EXPECT_EQ(rt.fabric().undeliveredCount(), 0u);
  EXPECT_EQ(rt.fabric().pendingReceiveCount(), 0u);
  EXPECT_EQ(rt.fabric().heldFaultCount(), 0u);
}

TEST(FaultInjection, CrashBudgetExhaustsMidBurst) {
  // The crash budget runs out in the middle of a send burst: everything
  // before the budget is delivered normally, everything at/after it
  // aborts, and the fabric stays hygienic for the surviving endpoints.
  FaultPlan plan;
  plan.crashPids = {0};
  plan.crashAfterSends = 2;
  ClosureFabric f(2);
  f.setFaultPlan(plan);
  std::vector<int> got;
  for (int i = 0; i < 4; ++i)
    f.postReceive(1, name(1, i + 1, i + 1), TransferKind::Data,
                  [&, i](const Message&) { got.push_back(i); });
  f.send(0, name(1, 1, 1), TransferKind::Data, bytes({1}), 1);
  f.send(0, name(1, 2, 2), TransferKind::Data, bytes({2}), 1);
  EXPECT_THROW(f.send(0, name(1, 3, 3), TransferKind::Data, bytes({3}), 1),
               FaultAbort);
  EXPECT_THROW(f.send(0, name(1, 4, 4), TransferKind::Data, bytes({4}), 1),
               FaultAbort);
  EXPECT_EQ(got, (std::vector<int>{0, 1}));
  EXPECT_EQ(f.faultStats().crashed, 1u);
  // The two receives the dead endpoint never fed are reclaimed by drain.
  DrainReport d = f.drain();
  EXPECT_EQ(d.unmatchedReceives, 2u);
  EXPECT_EQ(d.unmatchedMessages, 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  EXPECT_EQ(f.undeliveredCount(), 0u);
}

TEST(FaultInjection, JacobiSurvivesNonLossyFaultsUnmodified) {
  // The whole point of the injector: an existing application — whose
  // driver builds its own Runtime internally — runs under duplicates,
  // delays and reordering with zero source changes, computes the exact
  // reference answer, and does so deterministically.
  apps::JacobiConfig cfg;
  cfg.rows = 12;
  cfg.cols = 10;
  cfg.nprocs = 4;
  cfg.iterations = 6;
  const auto reference = apps::jacobiReference(cfg);

  FaultPlan plan;
  plan.seed = 7;
  plan.dupProb = 0.3;
  plan.delayProb = 0.4;
  plan.maxDelay = 25.0;
  plan.reorderProb = 0.3;
  FaultScope faults(plan);
  const auto r1 = apps::runJacobi(cfg);
  const auto r2 = apps::runJacobi(cfg);
  EXPECT_EQ(r1.grid, reference);
  EXPECT_EQ(r2.grid, reference);
  expectEq(r1.net, r2.net);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
}

}  // namespace
}  // namespace xdp::net
