// E14 — multi-tenant serving throughput and tail latency: a DAMOV-style
// session mix (jacobi stencil / cannon ring / vecadd streaming, all 4-proc
// tenants) pushed through the Server at 64/256/1024 concurrent sessions,
// clean and with a 5% hostile-session rate (lossy fault plans that force
// the retry/backoff and deadlock paths). Reported: sessions/s and the
// p50/p99 per-session wall latency — the serving-layer figures the perf
// trajectory tracks alongside the modeled-time benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis_programs.hpp"
#include "xdp/serve/server.hpp"

using namespace xdp;

namespace {

std::string readProgram(const char* name) {
  std::ifstream in(std::string(XDP_PROGRAMS_DIR) + "/" + name);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Mix {
  std::vector<serve::SessionRequest> shapes;
  Mix() {
    serve::SessionRequest jacobi;
    jacobi.name = "jacobi";
    jacobi.source = readProgram("jacobi.xdp");
    serve::SessionRequest cannon;
    cannon.name = "cannon";
    cannon.source = readProgram("cannon.xdp");
    serve::SessionRequest vecadd;
    vecadd.name = "vecadd";
    vecadd.source = readProgram("vecadd.xdp");
    vecadd.usePipeline = true;
    shapes = {jacobi, cannon, vecadd};
  }
};

void BM_Serve(benchmark::State& state) {
  static const Mix mix;  // parse-once program sources
  const int sessions = static_cast<int>(state.range(0));
  const bool hostile = state.range(1) != 0;

  serve::ServerConfig cfg;
  cfg.workers = 8;
  cfg.maxPending = sessions + 1;
  cfg.session.retry.maxAttempts = 3;
  cfg.session.retry.backoffBaseMs = 1;
  cfg.session.retry.backoffCapMs = 4;

  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  std::vector<double> lat;
  for (auto _ : state) {
    serve::Server server(cfg);
    std::vector<std::future<serve::SessionReport>> futs;
    futs.reserve(static_cast<std::size_t>(sessions));
    for (int i = 0; i < sessions; ++i) {
      serve::SessionRequest req =
          mix.shapes[static_cast<std::size_t>(i) % mix.shapes.size()];
      req.name += "#" + std::to_string(i);
      // The 5% hostile-session rate: every 20th tenant runs under a
      // lossy plan that usually deadlocks an attempt.
      if (hostile && i % 20 == 0) {
        net::FaultPlan plan;
        plan.seed = 100 + static_cast<std::uint64_t>(i);
        plan.dropProb = 0.05;
        req.faultPlan = plan;
      }
      futs.push_back(server.submit(std::move(req)));
    }
    lat.clear();
    lat.reserve(futs.size());
    for (auto& f : futs) {
      serve::SessionReport r = f.get();
      lat.push_back(r.wallMs);
      if (r.outcome == serve::SessionOutcome::Completed) ++completed;
      retries += static_cast<std::uint64_t>(r.attempts - 1);
    }
    server.shutdown();
  }

  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    if (lat.empty()) return 0.0;
    const std::size_t i = std::min(
        lat.size() - 1, static_cast<std::size_t>(p * (lat.size() - 1)));
    return lat[i];
  };
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(sessions) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = pct(0.50);
  state.counters["p99_ms"] = pct(0.99);
  state.counters["completed"] =
      static_cast<double>(completed) / state.iterations();
  state.counters["retries"] =
      static_cast<double>(retries) / state.iterations();
  state.SetLabel(hostile ? "5% hostile" : "clean");
}

/// perfbench's `serve` halo shape (4 processors, a block of `block`
/// elements each, 256 x 20 or 1024 x 8 sweeps) through a one-worker
/// server with default quotas, kSessions sessions in flight per round:
/// the session wall is the split interior loop's.
void BM_ServeHalo(benchmark::State& state) {
  constexpr int kSessions = 8;
  const sec::Index block = state.range(0);
  serve::SessionRequest req;
  req.name = "halo";
  req.source = testprog::haloText(4, block, block >= 1024 ? 8 : 20);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  std::vector<double> lat;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    std::vector<std::future<serve::SessionReport>> futs;
    for (int i = 0; i < kSessions; ++i) futs.push_back(server.submit(req));
    for (auto& f : futs) {
      const serve::SessionReport r = f.get();
      lat.push_back(r.wallMs);
      if (r.outcome == serve::SessionOutcome::Completed) ++completed;
    }
  }
  server.shutdown();
  std::sort(lat.begin(), lat.end());
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(kSessions) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = lat.empty() ? 0.0 : lat[lat.size() / 2];
  state.counters["completed"] =
      static_cast<double>(completed) / state.iterations();
}

}  // namespace

BENCHMARK(BM_ServeHalo)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();
BENCHMARK(BM_Serve)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();
