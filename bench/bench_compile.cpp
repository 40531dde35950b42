// Bytecode VM benchmarks: compilation throughput of bc::compile on the IL
// tree (in statements/s), and execution throughput of the VM against the
// reference tree walker on IL programs the VM can compile hot.
//
// Counters (deterministic ones are gated by PERF_TRAJECTORY.json):
//   stmts_per_s       IL statements compiled per second (rate)
//   hot / cold        bc::Module statement split (deterministic)
//   logical_ops       stmts + loop iters + rule evals + elem assigns,
//                     summed over processors; must be identical for both
//                     engines on the same program (deterministic)
//   logical_ops_per_s engine throughput on those ops (rate) — the
//                     reference vs VM rows are the speedup measurement
//
// BM_PointRoundTrip/{direct,rendezvous} sends one element per loop
// iteration from p0 to p1 (bound to {1}, or unbound through the
// matcher), which receives and awaits it, through the compiled program:
//   ns_per_msg        wall time per round trip (rate, inverted)
//   msgs / modeled_s  messages sent and modeled makespan (deterministic)
#include <benchmark/benchmark.h>

#include <string>

#include "xdp/il/parser.hpp"
#include "xdp/il/program.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/interp/interpreter.hpp"

using namespace xdp;

namespace {

/// A synthetic program with ~n top-level statements mixing the kinds the
/// compiler sees in practice: scalar arithmetic, element loops, and
/// ownership-guarded compute.
il::Program buildSynthetic(int n) {
  il::Program prog;
  prog.nprocs = 2;
  sec::Section g{sec::Triplet(1, 64)};
  prog.addArray({"A", rt::ElemType::F64, g,
                 dist::Distribution(g, {dist::DimSpec::block(2)}), {}});
  std::vector<il::StmtPtr> body;
  for (int k = 0; k < n; ++k) {
    switch (k % 3) {
      case 0:
        body.push_back(il::scalarAssign(
            "s" + std::to_string(k % 8),
            il::add(il::intConst(k), il::mul(il::intConst(3),
                                             il::intConst(k % 7)))));
        break;
      case 1:
        body.push_back(il::forLoop(
            "i", il::intConst(1), il::intConst(8),
            il::block({il::elemAssign(
                0, il::secPoint({il::scalar("i")}),
                il::add(il::elem(0, il::secPoint({il::scalar("i")})),
                        il::realConst(0.5)))})));
        break;
      default:
        body.push_back(il::guarded(
            il::iown(0, il::secPoint({il::intConst(k % 64 + 1)})),
            il::block({il::computeCost(il::intConst(1))})));
        break;
    }
  }
  prog.body = il::block(std::move(body));
  return prog;
}

/// Statements in the tree under `s`, `s` included.
std::size_t countStmts(const il::StmtPtr& s) {
  if (s == nullptr) return 0;
  std::size_t n = 1 + countStmts(s->body);
  for (const auto& c : s->stmts) n += countStmts(c);
  return n;
}

void BM_Compile(benchmark::State& state) {
  il::Program prog = buildSynthetic(static_cast<int>(state.range(0)));
  const std::size_t stmts = countStmts(prog.body);
  std::uint32_t hot = 0, cold = 0;
  for (auto _ : state) {
    interp::bc::Module m = interp::bc::compile(prog);
    benchmark::DoNotOptimize(m.code.data());
    hot = m.hotStmts;
    cold = m.coldStmts;
  }
  state.counters["stmts_per_s"] = benchmark::Counter(
      static_cast<double>(stmts) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["hot"] = static_cast<double>(hot);
  state.counters["cold"] = static_cast<double>(cold);
}

/// Guard-free 3-point stencil over n elements (kSweeps sweeps). Every
/// statement compiles hot, so this is the VM's best case: the number it
/// reports is the headline reference vs VM logical-op throughput.
il::Program buildStencil(sec::Index n) {
  il::Program prog;
  prog.nprocs = 1;
  sec::Section g{sec::Triplet(1, n)};
  dist::Distribution d(g, {dist::DimSpec::block(1)});
  prog.addArray({"A", rt::ElemType::F64, g, d, {}});
  prog.addArray({"B", rt::ElemType::F64, g, d, {}});
  auto pt = [](il::ExprPtr e) { return il::secPoint({std::move(e)}); };
  auto i = [] { return il::scalar("i"); };
  std::vector<il::StmtPtr> body;
  body.push_back(il::forLoop(
      "i", il::intConst(1), il::intConst(n),
      il::block({
          il::elemAssign(1, pt(i()),
                         il::mul(il::realConst(0.3), i())),
          il::elemAssign(0, pt(i()), il::realConst(0.0)),
      })));
  constexpr int kSweeps = 8;
  body.push_back(il::forLoop(
      "t", il::intConst(1), il::intConst(kSweeps),
      il::block({
          il::forLoop(
              "i", il::intConst(2), il::intConst(n - 1),
              il::block({il::elemAssign(
                  0, pt(i()),
                  il::add(
                      il::mul(il::realConst(0.25),
                              il::elem(1, pt(il::sub(i(), il::intConst(1))))),
                      il::add(il::mul(il::realConst(0.5),
                                      il::elem(1, pt(i()))),
                              il::mul(il::realConst(0.25),
                                      il::elem(1, pt(il::add(
                                                  i(), il::intConst(1))))))))})),
          il::forLoop("i", il::intConst(2), il::intConst(n - 1),
                      il::block({il::elemAssign(1, pt(i()),
                                                il::elem(0, pt(i())))})),
      })));
  prog.body = il::block(std::move(body));
  return prog;
}

/// The same stencil under per-iteration iown guards on 4 processors —
/// jacobi-shaped owner-computes code. The reference walker pays one cold
/// ownership query per iteration; the VM range-splits every loop.
il::Program buildGuardedStencil(sec::Index n) {
  il::Program prog;
  prog.nprocs = 4;
  sec::Section g{sec::Triplet(1, n)};
  dist::Distribution d(g, {dist::DimSpec::block(4)});
  prog.addArray({"A", rt::ElemType::F64, g, d, {}});
  auto pt = [](il::ExprPtr e) { return il::secPoint({std::move(e)}); };
  auto i = [] { return il::scalar("i"); };
  constexpr int kSweeps = 8;
  prog.body = il::block({
      il::forLoop("i", il::intConst(1), il::intConst(n),
                  il::block({il::guarded(
                      il::iown(0, pt(i())),
                      il::block({il::elemAssign(
                          0, pt(i()), il::mul(il::realConst(0.1), i()))}))})),
      il::forLoop(
          "t", il::intConst(1), il::intConst(kSweeps),
          il::block({il::forLoop(
              "i", il::intConst(1), il::intConst(n),
              il::block({il::guarded(
                  il::iown(0, pt(i())),
                  il::block({il::elemAssign(
                      0, pt(i()),
                      il::add(il::elem(0, pt(i())),
                              il::realConst(1.0)))}))}))})),
  });
  return prog;
}

std::uint64_t logicalOps(const interp::InterpStats& s) {
  return s.stmtsExecuted + s.loopIterations + s.rulesEvaluated +
         s.elemAssigns;
}

void runExec(benchmark::State& state, const il::Program& prog) {
  interp::InterpOptions io;
  io.backend = state.range(0) == 0 ? interp::Backend::TreeWalk
                                   : interp::Backend::Bytecode;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    interp::Interpreter in(prog, {}, io);
    in.run();
    ops = logicalOps(in.totalStats());
  }
  state.counters["logical_ops"] = static_cast<double>(ops);
  state.counters["logical_ops_per_s"] = benchmark::Counter(
      static_cast<double>(ops) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(state.range(0) == 0 ? "reference" : "vm");
}

void BM_StencilExec(benchmark::State& state) {
  runExec(state, buildStencil(state.range(1)));
}

void BM_GuardedStencilExec(benchmark::State& state) {
  runExec(state, buildGuardedStencil(state.range(1)));
}

constexpr int kRoundTrips = 4096;

std::string pointRoundTripText(bool direct) {
  return "procs 2\n"
         "array A f64 [0:1] (BLOCK)\n"
         "array B f64 [0:1] (BLOCK)\n"
         "do t = 1, " +
         std::to_string(kRoundTrips) +
         "\n"
         "  (mypid == 0) : {\n"
         "    A[0] = t\n"
         "    A[0] -> " +
         std::string(direct ? "{1}" : "") +
         "\n  }\n"
         "  (mypid == 1) : {\n"
         "    B[1] <- A[0]\n"
         "    await(B[1])\n"
         "  }\n"
         "enddo\n";
}

void BM_PointRoundTrip(benchmark::State& state, bool direct) {
  const il::Program prog = il::parseProgram(pointRoundTripText(direct));
  double msgs = 0.0, modeled = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    interp::Interpreter in(prog);
    state.ResumeTiming();
    in.run();
    msgs = static_cast<double>(
        in.runtime().fabric().totalStats().messagesSent);
    modeled = in.runtime().fabric().makespan();
  }
  state.counters["ns_per_msg"] = benchmark::Counter(
      kRoundTrips * 1e-9, benchmark::Counter::kIsIterationInvariantRate |
                              benchmark::Counter::kInvert);
  state.counters["msgs"] = msgs;
  state.counters["modeled_s"] = modeled;
}

}  // namespace

BENCHMARK_CAPTURE(BM_PointRoundTrip, direct, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PointRoundTrip, rendezvous, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compile)->Arg(64)->Arg(1024);
// Process CPU time, as these rows have always been measured (the SPMD
// runtime now runs on the calling thread, so it equals that thread's).
BENCHMARK(BM_StencilExec)
    ->ArgsProduct({{0, 1}, {256, 4096}})
    ->Unit(benchmark::kMicrosecond)
    ->MeasureProcessCPUTime();
BENCHMARK(BM_GuardedStencilExec)
    ->ArgsProduct({{0, 1}, {256}})
    ->Unit(benchmark::kMicrosecond)
    ->MeasureProcessCPUTime();
