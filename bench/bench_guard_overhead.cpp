// Guard overhead on owner-computes loops (paper §2.4): the idiomatic XDP
// loop `for i in 1..n: if iown(A[i]) A[i] = ...` evaluates an ownership
// guard every iteration. Compares three schedules of the same loop:
//   unguarded      — mylb/myub bounds, no guard at all (the floor; VM)
//   guarded/naive  — per-iteration iown query (the reference walker)
//   guarded/split  — one ownedRanges query, owned subranges run unguarded
//                    (the VM's split op)
// The split is meant to put guarded throughput near the unguarded floor
// instead of paying a runtime-table query per element.
#include <benchmark/benchmark.h>

#include "xdp/interp/interpreter.hpp"

using namespace xdp;

namespace {

constexpr int kProcs = 4;

il::Program makeProg(sec::Index n, bool guarded) {
  il::Program prog;
  prog.nprocs = kProcs;
  sec::Section g{sec::Triplet(1, n)};
  prog.addArray({"A", rt::ElemType::F64, g,
                 dist::Distribution(g, {dist::DimSpec::block(kProcs)}),
                 {}});
  il::ExprPtr i = il::scalar("i");
  il::StmtPtr writeA = il::elemAssign(
      0, il::secPoint({i}), il::mul(il::scalar("i"), il::realConst(0.5)));
  if (guarded) {
    prog.body = il::block({il::forLoop(
        "i", il::intConst(1), il::intConst(n),
        il::block({il::guarded(
            il::iown(0, il::secPoint({il::scalar("i")})),
            il::block({std::move(writeA)}))}))});
  } else {
    il::SectionExprPtr all = il::secLit(
        {il::TripletExpr{il::intConst(1), il::intConst(n), {}}});
    prog.body = il::block({il::forLoop("i", il::mylb(0, all, 0),
                                       il::myub(0, all, 0),
                                       il::block({std::move(writeA)}))});
  }
  return prog;
}

void runLoop(benchmark::State& state, bool guarded, bool split) {
  const sec::Index n = state.range(0);
  interp::InterpOptions io;
  if (guarded && !split) io.backend = interp::Backend::TreeWalk;
  interp::InterpStats last;
  for (auto _ : state) {
    interp::Interpreter in(makeProg(n, guarded), {}, io);
    in.run();
    last = in.totalStats();
    benchmark::DoNotOptimize(&last);
  }
  // Every element is written exactly once by its owner per run.
  state.counters["elems/s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["range_splits"] = static_cast<double>(last.rangeSplits);
  state.counters["iters_saved"] =
      static_cast<double>(last.guardedItersSaved);
  state.counters["cache_hits"] = static_cast<double>(last.guardCacheHits);
  state.SetLabel(!guarded ? "unguarded"
                          : (split ? "guarded/split" : "guarded/naive"));
}

void BM_LoopUnguarded(benchmark::State& state) {
  runLoop(state, false, false);
}
void BM_LoopGuardedNaive(benchmark::State& state) {
  runLoop(state, true, false);
}
void BM_LoopGuardedSplit(benchmark::State& state) {
  runLoop(state, true, true);
}

}  // namespace

BENCHMARK(BM_LoopUnguarded)
    ->Arg(1024)->Arg(16384)->Arg(131072)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoopGuardedNaive)
    ->Arg(1024)->Arg(16384)->Arg(131072)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoopGuardedSplit)
    ->Arg(1024)->Arg(16384)->Arg(131072)
    ->Unit(benchmark::kMillisecond);
