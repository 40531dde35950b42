// Stress suite for the fabric: the SPMD fibers drive the direct,
// rendezvous, snapshot, stats and fault paths while monitor fibers of the
// same runSpmd read the fabric between their steps (a machine is used by
// one thread at a time, DESIGN.md §5). The assertions check conservation
// (every send completes exactly one receive) and the invariants a
// monitor may rely on at any yield point. Part of the sanitize label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "fabric_receives.hpp"
#include "xdp/net/spmd.hpp"

namespace xdp::net {
namespace {

using sec::Index;
using sec::Section;
using sec::Triplet;

Name name(int sym, Index i) { return Name{sym, Section{Triplet(i, i)}, {}}; }

/// runSpmd over the fabric's processors plus one monitor fiber (pid
/// nprocs). The monitor calls `check` until every other fiber finished,
/// and at least `minChecks` times, stepping its own clock by `step` per
/// call so that the clock policy interleaves it with the traffic (it runs
/// whenever the other clocks pass its own); pick `step` near the traffic's
/// clock advance per operation.
template <class Traffic, class Check>
void runWithMonitor(Fabric& f, const Traffic& traffic, const Check& check,
                    double step, int minChecks = 50) {
  const int n = f.nprocs();
  int finished = 0;
  double monitorClock = 0.0;
  runSpmd(
      n + 1,
      [&](int pid) {
        if (pid < n) {
          traffic(pid);
          ++finished;
          return;
        }
        for (int k = 0; k < minChecks || finished < n; ++k) {
          check();
          monitorClock += step;
          FiberScheduler::current()->yieldIfBehind();
        }
      },
      [&](int pid) { return pid < n ? f.clock(pid) : monitorClock; });
}

std::vector<std::byte> payload(int v) {
  return {static_cast<std::byte>(v & 0xff),
          static_cast<std::byte>((v >> 8) & 0xff)};
}

// Disjoint pairs (2k, 2k+1) exchange direct messages concurrently; each
// pair's traffic must be invisible to every other pair.
TEST(FabricConcurrency, ConcurrentDirectPairs) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 500;
  ClosureFabric f(kProcs);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        f.send(pid, name(pid, i), TransferKind::Data, payload(i), partner);
      } else {
        f.postReceive(pid, name(partner, i), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  EXPECT_EQ(received.load(), (kProcs / 2) * kMsgs);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  NetStats t = f.totalStats();
  EXPECT_EQ(t.messagesSent, t.messagesReceived);
  EXPECT_EQ(t.directSends, static_cast<std::uint64_t>((kProcs / 2) * kMsgs));
}

// All senders publish to ONE name, all receivers post interest for it:
// maximum pressure on the matcher's FCFS pairing. Conservation must hold
// exactly.
TEST(FabricConcurrency, RendezvousManyToManySameName) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 300;
  ClosureFabric f(kProcs);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        f.send(pid, name(7, 0), TransferKind::Data, payload(i), std::nullopt);
      } else {
        f.postReceive(pid, name(7, 0), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  EXPECT_EQ(received.load(), (kProcs / 2) * kMsgs);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

// Mixed traffic: every processor's receives use its own pid as the name,
// and its partner sends to that name both directly and through the
// matcher — so direct completions continuously retire receives that
// registered rendezvous interest, while traffic stays balanced per
// endpoint and must drain completely.
TEST(FabricConcurrency, DirectAndRendezvousRaceOnOneName) {
  constexpr int kProcs = 6;
  constexpr int kRounds = 200;
  ClosureFabric f(kProcs);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kRounds; ++i) {
      // Two receives on my name, then one direct + one rendezvous send to
      // the partner's name: each endpoint's in/out totals match.
      for (int r = 0; r < 2; ++r)
        f.postReceive(pid, name(pid, 0), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      f.send(pid, name(partner, 0), TransferKind::Data, payload(i), partner);
      f.send(pid, name(partner, 0), TransferKind::Data, payload(i),
             std::nullopt);
    }
  });
  EXPECT_EQ(received.load(), kProcs * kRounds * 2);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

// A monitor fiber reads stats/clock/makespan/undeliveredCount while the
// SPMD region is live — the reads must be consistent per endpoint at any
// yield point (satellite: NetStats readable mid-run).
TEST(FabricConcurrency, StatsAndClocksReadableMidRun) {
  constexpr int kProcs = 4;
  constexpr int kMsgs = 400;
  ClosureFabric f(kProcs);
  std::atomic<int> received{0};
  runWithMonitor(
      f,
      [&](int pid) {
        const int partner = pid ^ 1;
        for (int i = 0; i < kMsgs; ++i) {
          if (pid % 2 == 0) {
            f.send(pid, name(pid, i), TransferKind::Data, payload(i),
                   partner);
            f.advance(pid, 0.25);
          } else {
            f.postReceive(pid, name(partner, i), TransferKind::Data,
                          [&](const Message&) {
                            received.fetch_add(1, std::memory_order_relaxed);
                          });
          }
        }
      },
      [&] {
        // Sum the receivers (odd pids) and the senders separately: a
        // receive count can only lag its send count.
        NetStats recv, sent;
        for (int p = 1; p < kProcs; p += 2) recv += f.stats(p);
        for (int p = 0; p < kProcs; p += 2) sent += f.stats(p);
        EXPECT_LE(recv.messagesReceived, sent.messagesSent);
        EXPECT_LE(recv.bytesReceived, sent.bytesSent);
        (void)f.totalStats();
        for (int p = 0; p < kProcs; ++p) EXPECT_GE(f.clock(p), 0.0);
        (void)f.makespan();
        (void)f.undeliveredCount();
        (void)f.pendingReceiveCount();
      },
      /*step=*/0.125);
  EXPECT_EQ(received.load(), (kProcs / 2) * kMsgs);
}

// snapshot() mid-traffic, from a monitor fiber: it must observe a
// consistent picture.
TEST(FabricConcurrency, SnapshotDuringTraffic) {
  constexpr int kProcs = 6;
  constexpr int kMsgs = 300;
  ClosureFabric f(kProcs);
  std::atomic<int> received{0};
  runWithMonitor(
      f,
      [&](int pid) {
        const int partner = pid ^ 1;
        for (int i = 0; i < kMsgs; ++i) {
          f.postReceive(pid, name(pid, 0), TransferKind::Data,
                        [&](const Message&) {
                          received.fetch_add(1, std::memory_order_relaxed);
                        });
          const bool direct = (i % 2 == 0);
          f.send(pid, name(partner, 0), TransferKind::Data, payload(i),
                 direct ? std::optional<int>(partner) : std::nullopt);
        }
      },
      [&] {
        FabricSnapshot s = f.snapshot();
        for (const auto& r : s.pendingReceives) {
          EXPECT_GE(r.pid, 0);
          EXPECT_LT(r.pid, kProcs);
        }
        for (const auto& m : s.undelivered) {
          EXPECT_GE(m.src, 0);
          EXPECT_LT(m.src, kProcs);
        }
      },
      /*step=*/f.model().alpha / 2);
  EXPECT_EQ(received.load(), kProcs * kMsgs);
  EXPECT_EQ(f.undeliveredCount(), 0u);
}

// Every message duplicated (dupProb = 1) under full concurrency: the
// dedup layer must deliver exactly once per original send, and the
// suppressed/purged twins must not leak into any queue.
TEST(FabricConcurrency, ExactlyOnceUnderConcurrentDuplication) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 200;
  FaultPlan plan;
  plan.seed = 42;
  plan.dupProb = 1.0;
  ClosureFabric f(kProcs);
  f.setFaultPlan(plan);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        const bool direct = (i % 3 != 0);
        f.send(pid, name(pid, i), TransferKind::Data, payload(i),
               direct ? std::optional<int>(partner) : std::nullopt);
      } else {
        f.postReceive(pid, name(partner, i), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  const int expected = (kProcs / 2) * kMsgs;
  EXPECT_EQ(received.load(), expected);  // exactly once, never twice
  EXPECT_EQ(f.undeliveredCount(), 0u);   // no twin stranded in a queue
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  FaultStats fs = f.faultStats();
  EXPECT_EQ(fs.duplicated, static_cast<std::uint64_t>(expected));
  EXPECT_EQ(fs.suppressedDuplicates, fs.duplicated);  // every twin killed
}

// Barriers interleaved with traffic while a monitor fiber reads makespan
// and stats: the release path must leave every read consistent.
TEST(FabricConcurrency, BarrierWithConcurrentReaders) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 50;
  ClosureFabric f(kProcs);
  std::atomic<int> received{0};
  runWithMonitor(
      f,
      [&](int pid) {
        const int partner = pid ^ 1;
        for (int r = 0; r < kRounds; ++r) {
          if (pid % 2 == 0) {
            f.send(pid, name(pid, r), TransferKind::Data, payload(r),
                   partner);
          } else {
            f.postReceive(pid, name(partner, r), TransferKind::Data,
                          [&](const Message&) {
                            received.fetch_add(1, std::memory_order_relaxed);
                          });
          }
          f.advance(pid, 0.5 + pid);
          f.barrier(pid);
        }
      },
      [&] {
        (void)f.makespan();
        (void)f.totalStats();
        (void)f.barrierWaiters();
      },
      /*step=*/0.25);
  EXPECT_EQ(received.load(), (kProcs / 2) * kRounds);
  EXPECT_EQ(f.barrierWaiters(), 0);
  // After each barrier all clocks align to max + barrierCost, so at the
  // join every clock is at least kRounds * barrierCost.
  for (int p = 0; p < kProcs; ++p)
    EXPECT_GE(f.clock(p), kRounds * f.model().barrierCost);
}

// Hot per-endpoint clock churn from every processor; totals must be
// exact.
TEST(FabricConcurrency, ClockAdvancesAreNotLost) {
  constexpr int kProcs = 4;
  constexpr int kTicks = 2000;
  ClosureFabric f(kProcs);
  runSpmd(kProcs, [&](int pid) {
    for (int i = 0; i < kTicks; ++i) f.advance(pid, 1.0);
  });
  for (int p = 0; p < kProcs; ++p)
    EXPECT_DOUBLE_EQ(f.clock(p), static_cast<double>(kTicks));
  EXPECT_DOUBLE_EQ(f.makespan(), static_cast<double>(kTicks));
}

}  // namespace
}  // namespace xdp::net
