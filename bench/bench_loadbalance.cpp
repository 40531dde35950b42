// E6 — load balancing by data-ownership migration and by the section-2.7
// task farm, versus static owner-computes, under increasing task-cost
// skew.
//
// A task's work is charged to its processor's virtual clock
// (Proc::compute), and the modeled makespan (counter `modeled_s`) is the
// measured quantity: static scheduling degrades with skew while both XDP
// schemes stay near the balanced ideal. The scheduler runs the processor
// with the lowest virtual clock first, so the farm's idle worker is the
// one that draws the next job.
#include <benchmark/benchmark.h>

#include <algorithm>

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
constexpr double kCost0 = 2e-4;  // 12.8 ms of modeled work per run

std::vector<double> costsFor(const benchmark::State& state) {
  const double skew = 1.0 + static_cast<double>(state.range(0)) / 100.0;
  return apps::skewedCosts(kTasks, kCost0, skew, 42);
}

void report(benchmark::State& state, double modeled) {
  state.counters["modeled_s"] = modeled;
  state.counters["skew_pct"] = static_cast<double>(state.range(0));
}

void BM_Static(benchmark::State& state) {
  auto costs = costsFor(state);
  double modeled = 0;
  for (auto _ : state) {
    rt::Runtime runtime(kProcs);
    Section g{Triplet(1, kTasks)};
    const int W = runtime.declareArray<double>(
        "W", g, Distribution(g, {DimSpec::block(kProcs)}),
        dist::SegmentShape::of({1}));
    runtime.run([&](rt::Proc& p) {
      for (Index t = 1; t <= kTasks; ++t) {
        if (p.iown(W, Section{Triplet(t)}))
          p.compute(costs[static_cast<std::size_t>(t - 1)]);
      }
    });
    modeled = runtime.fabric().makespan();
  }
  report(state, modeled);
}

void BM_TaskFarm(benchmark::State& state) {
  auto costs = costsFor(state);
  double modeled = 0;
  for (auto _ : state) {
    rt::Runtime runtime(kProcs);
    Section g{Triplet(0, 0)};
    const int W = runtime.declareArray<double>(
        "W", g, Distribution(g, {DimSpec::block(1)}),
        dist::SegmentShape::of({1}));
    Section gp{Triplet(0, kProcs - 1)};
    const int M = runtime.declareArray<double>(
        "M", gp, Distribution(gp, {DimSpec::block(kProcs)}));
    runtime.run([&](rt::Proc& p) {
      Section w0{Triplet(0)};
      if (p.mypid() == 0) {
        for (int t = 0; t < kTasks; ++t) {
          p.set<double>(W, Point{0}, costs[static_cast<std::size_t>(t)]);
          p.send(W, w0);  // W[0] -> unspecified: FCFS at the matchmaker
        }
        for (int w = 0; w < kProcs; ++w) {
          p.set<double>(W, Point{0}, -1.0);
          p.send(W, w0);  // poison pills
        }
      }
      Section slot{Triplet(p.mypid())};
      while (true) {
        p.recv(M, slot, W, w0);
        if (!p.await(M, slot)) break;
        const double job = p.get<double>(M, Point{p.mypid()});
        if (job < 0) break;
        p.compute(job);
      }
    });
    modeled = runtime.fabric().makespan();
  }
  report(state, modeled);
}

void BM_OwnershipMigration(benchmark::State& state) {
  auto costs = costsFor(state);
  // Greedy LPT targets (the compiler/runtime rebalancing policy).
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
  double modeled = 0;
  for (auto _ : state) {
    rt::Runtime runtime(kProcs);
    Section g{Triplet(1, kTasks)};
    const int W = runtime.declareArray<double>(
        "W", g, Distribution(g, {DimSpec::block(kProcs)}),
        dist::SegmentShape::of({1}));
    runtime.run([&](rt::Proc& p) {
      const int me = p.mypid();
      for (Index t = 1; t <= kTasks; ++t) {
        const int from = static_cast<int>((t - 1) / blk);
        const int to = target[static_cast<std::size_t>(t - 1)];
        if (from == to) continue;
        Section st{Triplet(t)};
        if (me == from) p.sendOwnership(W, st, true, std::vector<int>{to});
        if (me == to) p.recvOwnership(W, st, true);
      }
      // The same SPMD loop as BM_Static: ownership decides placement.
      for (Index t = 1; t <= kTasks; ++t) {
        Section st{Triplet(t)};
        if (p.await(W, st)) p.compute(costs[static_cast<std::size_t>(t - 1)]);
      }
    });
    modeled = runtime.fabric().makespan();
  }
  report(state, modeled);
}

}  // namespace

BENCHMARK(BM_Static)
    ->Arg(0)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TaskFarm)
    ->Arg(0)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OwnershipMigration)
    ->Arg(0)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);
