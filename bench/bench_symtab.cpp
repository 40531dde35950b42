// E3 — run-time symbol table operation cost (paper section 3.1 / Fig. 2).
//
// The paper's iown() algorithm intersects the query with every segment
// descriptor; the cost therefore scales with the number of segments the
// compiler chose. This bench measures iown / accessible / mylb / await on
// a processor whose partition is split into 1..4096 segments, under BLOCK
// and CYCLIC distributions, plus the cost of the ownership-state update
// performed by a receive initiation/completion pair, and of a processor
// with thousands of receives outstanding on one array.
//
// These are real single-thread latencies (ns), directly meaningful even
// on a one-core host.
#include <benchmark/benchmark.h>

#include "xdp/rt/proc.hpp"

using namespace xdp;
using dist::DimSpec;
using dist::Distribution;
using dist::SegmentShape;
using sec::Index;
using sec::Section;
using sec::Triplet;

namespace {

constexpr Index kN = 4096;

struct Fixture {
  rt::Runtime runtime;
  int sym;

  Fixture(bool cyclic, Index nsegs)
      : runtime(1), sym(-1) {
    Section g{Triplet(1, kN)};
    Distribution d(g, {cyclic ? DimSpec::cyclic(1) : DimSpec::block(1)});
    sym = runtime.declareArray<double>(
        "A", g, d, SegmentShape::of({kN / nsegs}));
    runtime.run([](rt::Proc&) {});  // materialize tables
  }
};

void BM_Iown(benchmark::State& state) {
  Fixture f(state.range(1) != 0, state.range(0));
  rt::ProcTable& t = f.runtime.table(0);
  Section query{Triplet(kN / 4, kN / 2)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.iown(f.sym, query));
  }
  state.counters["segments"] = static_cast<double>(state.range(0));
  state.SetLabel(state.range(1) ? "cyclic" : "block");
}

void BM_Accessible(benchmark::State& state) {
  Fixture f(false, state.range(0));
  rt::ProcTable& t = f.runtime.table(0);
  Section query{Triplet(1, kN)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.accessible(f.sym, query));
  }
  state.counters["segments"] = static_cast<double>(state.range(0));
}

void BM_Mylb(benchmark::State& state) {
  Fixture f(false, state.range(0));
  rt::ProcTable& t = f.runtime.table(0);
  Section query{Triplet(1, kN)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.mylb(f.sym, query, 0));
  }
  state.counters["segments"] = static_cast<double>(state.range(0));
}

void BM_AwaitAccessibleFastPath(benchmark::State& state) {
  // await() on an already-accessible section: the fast path a compiler
  // pays when it could not prove the await removable.
  Fixture f(false, state.range(0));
  rt::ProcTable& t = f.runtime.table(0);
  Section query{Triplet(1, kN)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.await(f.sym, query, nullptr));
  }
  state.counters["segments"] = static_cast<double>(state.range(0));
}

void BM_ReceiveStateUpdate(benchmark::State& state) {
  // beginReceive + completeReceive over one segment-sized section: the
  // transitional/accessible bookkeeping of Figure 1.
  Fixture f(false, state.range(0));
  rt::ProcTable& t = f.runtime.table(0);
  const Index segElems = kN / state.range(0);
  Section s{Triplet(1, segElems)};
  std::vector<std::byte> payload(
      static_cast<std::size_t>(segElems) * sizeof(double));
  for (auto _ : state) {
    t.beginReceive(f.sym, s);
    t.completeReceive(f.sym, s, payload.data(), 0.0);
  }
  state.counters["segments"] = static_cast<double>(state.range(0));
  state.counters["elems_moved"] = static_cast<double>(segElems);
}

void BM_OutstandingReceives(benchmark::State& state) {
  // p1 posts n single-element receives before it releases p0 with a go
  // message; p0 then sends the n elements and p1 awaits them all. Each
  // post, completion and await consults p1's outstanding receives of one
  // array, so a linear scan per query makes the row quadratic in n.
  const Index n = state.range(0);
  for (auto _ : state) {
    rt::Runtime runtime(2);
    const Section ga{Triplet(1, 2 * n)};
    const int A = runtime.declareArray<double>(
        "A", ga, Distribution(ga, {DimSpec::block(2)}));
    const Section gg{Triplet(0, 1)};
    const int GO = runtime.declareArray<double>(
        "GO", gg, Distribution(gg, {DimSpec::block(2)}));
    runtime.run([&](rt::Proc& p) {
      if (p.mypid() == 0) {
        p.recv(GO, Section{Triplet(0)}, GO, Section{Triplet(1)});
        p.await(GO, Section{Triplet(0)});
        for (Index k = 1; k <= n; ++k)
          p.send(A, Section{Triplet(k)}, std::vector<int>{1});
      } else {
        for (Index k = 1; k <= n; ++k)
          p.recv(A, Section{Triplet(n + k)}, A, Section{Triplet(k)});
        p.send(GO, Section{Triplet(1)}, std::vector<int>{0});
        p.await(A, Section{Triplet(n + 1, 2 * n)});
      }
    });
  }
  state.counters["receives"] = static_cast<double>(n);
}

}  // namespace

BENCHMARK(BM_OutstandingReceives)
    ->Arg(2048)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Iown)->ArgsProduct({{1, 16, 256, 4096}, {0, 1}});
BENCHMARK(BM_Accessible)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_Mylb)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_AwaitAccessibleFastPath)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_ReceiveStateUpdate)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);
