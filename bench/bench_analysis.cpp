// Throughput of the static verifier (analysis::verifyProgram): abstract
// statements per second over the section 2.2 vector-add program at growing
// sizes, raw and after lowering (the lowered form has ~6x the statements
// plus the send/receive matching work). The verifier runs once per
// processor, so stmts/sec is the end-to-end figure a compile would see.
//
// The remaining rows cover the shapes that dominate the end-to-end
// `compile`, `exchange` and `serve` benchmark workloads: a rank-1 update
// through the standard pipeline with one array on CYCLIC(k) (k = 2 has 96
// blocks per processor, so every ownership query meets a fragmented local
// part), the cost analyzer's placement-oblivious run (every guard
// undecidable), a rendezvous task farm whose matching is one large group,
// and serve's analysis gate on its halo (b-element blocks, 20 sweeps) and
// ownership ring (32-element blocks, n steps), two processors each, whose
// inner element loops the verifier summarizes. BM_AnalyzeUpdate is one
// `compile` job's analysis of the rank-1 update at length n on four
// processors and six placements: one verifyProgram plus one analyzeCost.
// Its transfer loops are summarized, so n should not set its cost.
//
// Reported counters (per run):
//   stmts             abstract statements charged across all processors
//   stmts/s           verification throughput
//   loops_summarized  loop executions verified by one section-granular
//                     summary instead of per iteration
//   diags             diagnostics produced (0 errors on these programs;
//                     the ring's one await-ordering warning counts)
#include <benchmark/benchmark.h>

#include "xdp/analysis/cost.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/opt/passes.hpp"

#include "analysis_programs.hpp"

using namespace xdp;

namespace {

void runVerify(benchmark::State& state, const il::Program& prog,
               const analysis::VerifyOptions& opts = {}) {
  std::uint64_t stmts = 0, loops = 0;
  std::size_t diags = 0;
  for (auto _ : state) {
    analysis::VerifyResult r = analysis::verifyProgram(prog, opts);
    benchmark::DoNotOptimize(r);
    stmts += r.stmtsAnalyzed;
    loops += r.loopsSummarized;
    diags += r.diagnostics.size();
  }
  const auto perRun = [&](double v) {
    return benchmark::Counter(v / static_cast<double>(state.iterations()));
  };
  state.counters["stmts"] = perRun(static_cast<double>(stmts));
  state.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(stmts), benchmark::Counter::kIsRate);
  state.counters["loops_summarized"] = perRun(static_cast<double>(loops));
  state.counters["diags"] = perRun(static_cast<double>(diags));
}

void BM_VerifyVecAddRaw(benchmark::State& state) {
  apps::VecAddConfig cfg =
      apps::vecAddMisaligned(state.range(0), 4);
  il::Program prog = apps::buildVecAdd(cfg);
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyVecAddRaw)->Arg(64)->Arg(256)->Arg(1024);

void BM_VerifyVecAddLowered(benchmark::State& state) {
  apps::VecAddConfig cfg =
      apps::vecAddMisaligned(state.range(0), 4);
  il::Program prog = opt::lowerOwnerComputes(apps::buildVecAdd(cfg));
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyVecAddLowered)->Arg(64)->Arg(256)->Arg(1024);

void BM_VerifyFft3dStage1(benchmark::State& state) {
  apps::Fft3dConfig cfg;
  cfg.n = state.range(0);
  il::Program prog = apps::buildFft3dStage1(cfg);
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyFft3dStage1)->Arg(8)->Arg(16);

il::Program pipelined(const std::string& text) {
  il::Program prog = il::parseProgram(text);
  for (const opt::Pass& p : opt::standardPipeline()) prog = p.fn(prog);
  return prog;
}

void BM_VerifyUpdate(benchmark::State& state) {
  const std::string k = std::to_string(state.range(0));
  runVerify(state, pipelined(testprog::rank1UpdateText(
                       384, 4, {"CYCLIC(" + k + ")", "BLOCK", "CYCLIC"})));
}
BENCHMARK(BM_VerifyUpdate)->Arg(2)->Arg(16);

void BM_VerifyOblivious(benchmark::State& state) {
  // analyzeCost's second run over the compile workload's largest shape.
  analysis::VerifyOptions opts;
  opts.collectCost = true;
  opts.matchComm = false;
  opts.obliviousPlacement = true;
  runVerify(state,
            pipelined(testprog::rank1UpdateText(
                384, 4,
                {"BLOCK", "CYCLIC", "CYCLIC(4)", "CYCLIC(2)", "CYCLIC(8)",
                 "CYCLIC(16)"})),
            opts);
}
BENCHMARK(BM_VerifyOblivious);

void BM_AnalyzeUpdate(benchmark::State& state) {
  const il::Program pre = il::parseProgram(testprog::rank1UpdateText(
      state.range(0), 4,
      {"BLOCK", "CYCLIC", "CYCLIC(4)", "CYCLIC(2)", "CYCLIC(8)",
       "CYCLIC(16)"}));
  il::Program prog = pre;
  for (const opt::Pass& p : opt::standardPipeline()) prog = p.fn(prog);
  std::uint64_t stmts = 0, loops = 0;
  for (auto _ : state) {
    analysis::VerifyResult r = analysis::verifyProgram(prog);
    analysis::CostReport c = analysis::analyzeCost(prog, pre);
    benchmark::DoNotOptimize(c);
    stmts += r.stmtsAnalyzed;
    loops += r.loopsSummarized;
  }
  const double runs = static_cast<double>(state.iterations());
  state.counters["stmts"] = static_cast<double>(stmts) / runs;
  state.counters["loops_summarized"] = static_cast<double>(loops) / runs;
}
BENCHMARK(BM_AnalyzeUpdate)->Arg(197)->Arg(19700)->Unit(benchmark::kMillisecond);

void BM_VerifyFarm(benchmark::State& state) {
  const sec::Index jobs = state.range(0);
  runVerify(state, il::parseProgram(testprog::farmText(2, jobs, jobs)));
}
BENCHMARK(BM_VerifyFarm)->Arg(2000);

void BM_VerifyHalo(benchmark::State& state) {
  runVerify(state, il::parseProgram(testprog::haloText(2, state.range(0), 20)));
}
BENCHMARK(BM_VerifyHalo)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_VerifyRing(benchmark::State& state) {
  runVerify(state, il::parseProgram(testprog::ringText(2, 32, state.range(0))));
}
BENCHMARK(BM_VerifyRing)->Arg(80)->Arg(800)->Unit(benchmark::kMillisecond);

}  // namespace
