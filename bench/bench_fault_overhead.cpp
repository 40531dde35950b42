// Fault-injector overhead on the fabric's hot path.
//
// The injector is a pointer check when no plan is installed, so the
// NoPlan and pre-injector send/receive latencies must coincide — robustness
// instrumentation may not tax the paper-faithful configuration. The other
// variants price the machinery itself: a zero-probability plan pays five
// PRNG draws per send, an active plan additionally pays for duplicate
// routing, dedup bookkeeping and holdback shuffling.
#include <benchmark/benchmark.h>

#include "xdp/net/fabric.hpp"

using namespace xdp;
using net::Fabric;
using net::FaultPlan;
using net::Message;
using net::RecvDesc;
using net::Name;
using net::TransferKind;
using sec::Section;
using sec::Triplet;

namespace {

void runSendRecvLoop(benchmark::State& state, const FaultPlan* plan) {
  Fabric f(2);
  if (plan) f.setFaultPlan(*plan);
  const Name n{1, Section{Triplet(1, 8)}, {}};
  const std::vector<std::byte> payload(64);
  std::uint64_t completions = 0;
  f.setCompletion(
      [&](int, const RecvDesc&, const Message&) { ++completions; });
  for (auto _ : state) {
    f.postReceive(1, n, TransferKind::Data, RecvDesc{});
    f.send(0, n, TransferKind::Data, payload, 1);
  }
  f.flushHeldFaults();
  benchmark::DoNotOptimize(completions);
  state.counters["completions"] =
      static_cast<double>(completions) / static_cast<double>(state.iterations());
}

void BM_SendRecv_NoPlan(benchmark::State& state) {
  runSendRecvLoop(state, nullptr);
}

void BM_SendRecv_ZeroProbPlan(benchmark::State& state) {
  FaultPlan plan;  // installed, but every probability is zero
  runSendRecvLoop(state, &plan);
}

void BM_SendRecv_ActivePlan(benchmark::State& state) {
  FaultPlan plan;
  plan.dupProb = 0.2;
  plan.delayProb = 0.2;
  plan.maxDelay = 10.0;
  plan.reorderProb = 0.2;
  runSendRecvLoop(state, &plan);
}

}  // namespace

BENCHMARK(BM_SendRecv_NoPlan);
BENCHMARK(BM_SendRecv_ZeroProbPlan);
BENCHMARK(BM_SendRecv_ActivePlan);
