// E2 — the section 4 3-D FFT with redistribution-by-ownership-transfer,
// across the paper's three program stages (+ communication binding), for
// several cube sizes, with and without load skew.
//
// Counters:
//   modeled_s    virtual makespan (critical path)
//   avg_finish   mean processor finish time — where fusion's pipelining
//                shows up under skew (see EXPERIMENTS.md E2)
//   msgs/bytes   identical across stages by design: section 4's
//                optimizations change *when*, not *how much*
#include <benchmark/benchmark.h>

#include "xdp/apps/programs.hpp"
#include "xdp/opt/passes.hpp"

using namespace xdp;

namespace {

enum Stage : int { kStage1 = 0, kStage2 = 1, kStage3 = 2, kBound = 3 };

const char* stageName(int s) {
  switch (s) {
    case kStage1: return "stage1-guarded";
    case kStage2: return "stage2-cre-sie";
    case kStage3: return "stage3-fused";
    case kBound: return "stage3-bound";
  }
  return "?";
}

il::Program buildStage(const apps::Fft3dConfig& cfg, int stage) {
  il::Program p = apps::buildFft3dStage1(cfg);
  if (stage >= kStage2)
    p = opt::singleIterationElimination(opt::computeRuleElimination(p));
  if (stage >= kStage3) p = opt::awaitSinking(opt::loopFusion(p));
  if (stage >= kBound) p = opt::commBinding(p);
  return p;
}

void BM_Fft3d(benchmark::State& state) {
  apps::Fft3dConfig cfg;
  cfg.n = state.range(1);
  cfg.nprocs = 4;
  cfg.flopCost = 2e-6;
  cfg.skewCost = state.range(2) != 0 ? 4e-4 : 0.0;
  const int stage = static_cast<int>(state.range(0));
  il::Program prog = buildStage(cfg, stage);

  net::NetStats net;
  double makespan = 0, avg = 0;
  for (auto _ : state) {
    interp::Interpreter in(prog, {});
    apps::registerFillKernel(in, cfg.seed);
    apps::registerFftKernels(in, cfg.flopCost);
    in.run();
    net = in.runtime().fabric().totalStats();
    makespan = in.runtime().fabric().makespan();
    double sum = 0;
    for (int p = 0; p < cfg.nprocs; ++p)
      sum += in.runtime().fabric().clock(p);
    avg = sum / cfg.nprocs;
  }
  state.counters["modeled_s"] = makespan;
  state.counters["avg_finish"] = avg;
  state.counters["msgs"] = static_cast<double>(net.messagesSent);
  state.counters["bytes"] = static_cast<double>(net.bytesSent);
  state.SetLabel(std::string(stageName(stage)) +
                 (cfg.skewCost > 0 ? "/skewed" : "/uniform"));
}

// Engine comparison on the same staged programs: execution throughput of
// the reference tree walker vs the bytecode VM, with the deterministic
// logical-op count as the parity check (both engines must report the same
// logical_ops for a given stage — the perf gate pins it).
void BM_Fft3dExec(benchmark::State& state) {
  apps::Fft3dConfig cfg;
  cfg.n = state.range(1);
  cfg.nprocs = 4;
  const int stage = static_cast<int>(state.range(0));
  il::Program prog = buildStage(cfg, stage);

  interp::InterpOptions io;
  io.backend = state.range(2) == 0 ? interp::Backend::TreeWalk
                                   : interp::Backend::Bytecode;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    interp::Interpreter in(prog, {}, io);
    apps::registerFillKernel(in, cfg.seed);
    apps::registerFftKernels(in, cfg.flopCost);
    in.run();
    const auto s = in.totalStats();
    ops = s.stmtsExecuted + s.loopIterations + s.rulesEvaluated +
          s.elemAssigns;
  }
  state.counters["logical_ops"] = static_cast<double>(ops);
  state.counters["logical_ops_per_s"] = benchmark::Counter(
      static_cast<double>(ops) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(stageName(stage)) +
                 (state.range(2) == 0 ? "/reference" : "/vm"));
}

}  // namespace

BENCHMARK(BM_Fft3d)
    ->ArgsProduct({{kStage1, kStage2, kStage3, kBound},
                   {8, 16, 32},
                   {0, 1}})
    ->Unit(benchmark::kMillisecond);
// Process CPU: interpreter work happens on SPMD worker threads (see
// bench_compile.cpp) — wall time would mostly measure thread setup.
BENCHMARK(BM_Fft3dExec)
    ->ArgsProduct({{kStage1, kBound}, {8, 16}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
