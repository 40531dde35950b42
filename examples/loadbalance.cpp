// Load balancing with XDP, three ways (paper sections 2.6 and 2.7). A
// task's work is charged to its processor's virtual clock (Proc::compute)
// and each scheme reports the modeled makespan. The scheduler always runs
// the processor with the lowest virtual clock, so the idle worker really
// is the one that asks for the next job:
//
//   1. Static owner-computes: tasks are BLOCK-distributed; each processor
//      executes the tasks it owns. Skewed costs leave most processors
//      idle while one grinds.
//
//   2. Dynamic task farm (2.7): "the owner of a particular variable
//      initiates a sequence of sends of values of the variable, each
//      value representing a certain job to be performed. Meanwhile, any
//      processor that was otherwise idle could initiate a receive of that
//      variable, and then perform the indicated job." All sends carry the
//      *same name*; every idle worker posts a receive for that name, and
//      the matchmaker pairs them first-come-first-served — whichever
//      worker is free takes the next job. Poison-pill values terminate.
//
//   3. Ownership migration (2.6): "load balancing can be implemented by
//      migrating ownership of data while still running the same SPMD
//      program on each processor." A greedy rebalance ships task
//      ownership once; the unchanged owner-computes loop then runs each
//      task at its new home.
#include <algorithm>
#include <cstdio>

#include "xdp/apps/workloads.hpp"
#include "xdp/rt/proc.hpp"

using namespace xdp;
using dist::DimSpec;
using dist::Distribution;
using sec::Index;
using sec::Point;
using sec::Section;
using sec::Triplet;

namespace {

constexpr int kProcs = 4;
constexpr int kTasks = 64;

/// Run `node` on `runtime` and return the modeled makespan.
template <typename Fn>
double modeledTime(rt::Runtime& runtime, Fn&& node) {
  runtime.run(node);
  return runtime.fabric().makespan();
}

double staticSchedule(const std::vector<double>& costs) {
  rt::Runtime runtime(kProcs);
  Section g{Triplet(1, kTasks)};
  const int W = runtime.declareArray<double>(
      "W", g, Distribution(g, {DimSpec::block(kProcs)}),
      dist::SegmentShape::of({1}));
  return modeledTime(runtime, [&](rt::Proc& p) {
    for (Index t = 1; t <= kTasks; ++t) {
      Section st{Triplet(t)};
      if (p.iown(W, st)) p.compute(costs[static_cast<std::size_t>(t - 1)]);
    }
  });
}

double taskFarm(const std::vector<double>& costs) {
  rt::Runtime runtime(kProcs);
  Section g{Triplet(0, 0)};  // the queue variable: a single element
  const int W = runtime.declareArray<double>(
      "W", g, Distribution(g, {DimSpec::block(1)}),
      dist::SegmentShape::of({1}));
  Section gp{Triplet(0, kProcs - 1)};
  const int M = runtime.declareArray<double>(
      "M", gp, Distribution(gp, {DimSpec::block(kProcs)}));
  return modeledTime(runtime, [&](rt::Proc& p) {
    Section w0{Triplet(0)};
    if (p.mypid() == 0) {
      // Publish every job as a send of the same name W[0]; then one
      // poison pill (-1) per worker. Destinations unspecified: the
      // matchmaker hands each to the first idle receiver (FCFS).
      for (int t = 0; t < kTasks; ++t) {
        p.set<double>(W, Point{0}, costs[static_cast<std::size_t>(t)]);
        p.send(W, w0);
      }
      for (int w = 0; w < kProcs; ++w) {
        p.set<double>(W, Point{0}, -1.0);
        p.send(W, w0);
      }
    }
    // Every processor (p0 included) is a worker: pull until poisoned.
    Section slot{Triplet(p.mypid())};
    while (true) {
      p.recv(M, slot, W, w0);
      if (!p.await(M, slot)) break;
      double job = p.get<double>(M, Point{p.mypid()});
      if (job < 0) break;
      p.compute(job);
    }
  });
}

double ownershipMigration(const std::vector<double>& costs) {
  rt::Runtime runtime(kProcs);
  Section g{Triplet(1, kTasks)};
  const int W = runtime.declareArray<double>(
      "W", g, Distribution(g, {DimSpec::block(kProcs)}),
      dist::SegmentShape::of({1}));
  // Greedy LPT rebalance — the "compiler/runtime policy" choosing where
  // each task's ownership should live.
  std::vector<int> target(kTasks);
  {
    std::vector<std::pair<double, int>> order;
    for (int t = 0; t < kTasks; ++t)
      order.emplace_back(costs[static_cast<std::size_t>(t)], t);
    std::sort(order.rbegin(), order.rend());
    std::vector<double> load(kProcs, 0.0);
    for (auto& [c, t] : order) {
      int best = 0;
      for (int q = 1; q < kProcs; ++q)
        if (load[static_cast<std::size_t>(q)] <
            load[static_cast<std::size_t>(best)])
          best = q;
      target[static_cast<std::size_t>(t)] = best;
      load[static_cast<std::size_t>(best)] += c;
    }
  }
  const Index blk = kTasks / kProcs;
  return modeledTime(runtime, [&](rt::Proc& p) {
    const int me = p.mypid();
    for (Index t = 1; t <= kTasks; ++t) {
      Section st{Triplet(t)};
      const int from = static_cast<int>((t - 1) / blk);
      const int to = target[static_cast<std::size_t>(t - 1)];
      if (from == to) continue;
      if (me == from) p.sendOwnership(W, st, true, std::vector<int>{to});
      if (me == to) p.recvOwnership(W, st, true);
    }
    // The same owner-computes loop as the static schedule: ownership,
    // not code, decides who runs what.
    for (Index t = 1; t <= kTasks; ++t) {
      Section st{Triplet(t)};
      if (p.await(W, st)) p.compute(costs[static_cast<std::size_t>(t - 1)]);
    }
  });
}

}  // namespace

int main() {
  const double cost0 = 4e-4;  // ~26ms total work, ideal ~6.4ms on 4 procs
  std::printf("%-8s %12s %12s %12s   (modeled seconds, lower is better)\n",
              "skew", "static", "task farm", "migration");
  for (double skew : {1.0, 1.05, 1.1, 1.2}) {
    auto costs = apps::skewedCosts(kTasks, cost0, skew, 42);
    std::printf("%-8.2f %12.4f %12.4f %12.4f\n", skew,
                staticSchedule(costs), taskFarm(costs),
                ownershipMigration(costs));
  }
  std::printf("\nideal balanced time = %.4f\n", kTasks * cost0 / kProcs);
  return 0;
}
