// E15 — checkpoint/restore cost: what crash tolerance charges the
// fault-free path and what recovery itself costs. Five figures:
//
//   * BM_CheckpointedRun — steady-state overhead of auto-checkpointing
//     the 4-proc jacobi at interval 0 (off) / 64 / 256 statements;
//   * BM_CheckpointedHalo — the same for the `serve` workload's
//     checkpointed program (the 2-proc halo relaxation, every 1024
//     statements), whose interior loop is a pure range-split site that
//     must stay split under checkpointing;
//   * BM_SnapshotEncode / BM_SnapshotDecode — wire-format throughput on
//     the deterministic genesis snapshot (the encode half is the capture
//     hot path, the decode half is restore admission);
//   * BM_RestoreResume — end-to-end restore latency: a fresh runtime
//     adopts a mid-run snapshot and replays the remaining statements;
//   * BM_CrashRecover — a full fail-recover run: endpoint dies on its
//     first send, rolls back to the last snapshot, replays to the
//     fault-free digest.
//
// The perf trajectory gates the deterministic counters (genesis snapshot
// bytes/records, recovery count, the halo's split iterations); wall time
// is never gated.
#include <benchmark/benchmark.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis_programs.hpp"
#include "xdp/apps/fft.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"

using namespace xdp;

namespace {

il::Program loadExample(const char* name) {
  std::ifstream in(std::string(XDP_PROGRAMS_DIR) + "/" + name);
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

const il::Program& jacobi() {
  static const il::Program prog = loadExample("jacobi.xdp");
  return prog;
}

const il::Program& serveHalo() {
  static const il::Program prog =
      il::parseProgram(testprog::haloText(2, 96, 60));
  return prog;
}

rt::RuntimeOptions withPlan(std::optional<net::FaultPlan> plan = {}) {
  rt::RuntimeOptions opts;
  opts.faultPlan = std::move(plan);
  return opts;
}

void setupCkpt(interp::Interpreter& in, std::uint64_t intervalSteps) {
  ckpt::CkptOptions co;
  co.intervalSteps = intervalSteps;
  in.runtime().enableCheckpointing(co);
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);
}

/// The genesis snapshot (taken before any node thread runs) — the one
/// capture whose bytes are bit-deterministic, so the trajectory can pin
/// it exactly.
const ckpt::Snapshot& genesisSnapshot() {
  static const ckpt::Snapshot snap = [] {
    interp::Interpreter in(jacobi(), withPlan(), {});
    setupCkpt(in, 0);
    in.run();
    return in.runtime().ckptStore()->loadLatestGood();
  }();
  return snap;
}

/// A mid-run interval capture: realistic restore input (the exact cut
/// depends on scheduling, so only its wall time is interesting).
const std::vector<std::byte>& midRunSnapshotBytes() {
  static const std::vector<std::byte> encoded = [] {
    interp::Interpreter in(jacobi(), withPlan(), {});
    setupCkpt(in, 64);
    in.run();
    return ckpt::encodeSnapshot(in.runtime().ckptStore()->loadLatestGood());
  }();
  return encoded;
}

void BM_CheckpointedRun(benchmark::State& state) {
  const std::uint64_t interval = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t snapshots = 0, bytes = 0;
  for (auto _ : state) {
    if (interval == 0) {
      // Baseline: checkpointing machinery absent entirely.
      interp::Interpreter in(jacobi(), {}, {});
      apps::registerFillKernel(in, 42);
      apps::registerFftKernels(in);
      in.run();
    } else {
      interp::Interpreter in(jacobi(), withPlan(), {});
      setupCkpt(in, interval);
      in.run();
      const ckpt::StoreStats& cs = in.runtime().ckptStore()->stats();
      snapshots = cs.snapshots;
      bytes = cs.totalBytes;
    }
  }
  state.counters["snapshots"] = static_cast<double>(snapshots);
  state.counters["snapshot_bytes_total"] = static_cast<double>(bytes);
  state.SetLabel(interval == 0 ? "checkpointing off"
                               : "every " + std::to_string(interval));
}

void BM_CheckpointedHalo(benchmark::State& state) {
  const std::uint64_t interval = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t snapshots = 0, itersSaved = 0;
  for (auto _ : state) {
    interp::Interpreter in(serveHalo(), withPlan(), {});
    if (interval == 0) {
      apps::registerFillKernel(in, 42);
    } else {
      setupCkpt(in, interval);
    }
    in.run();
    itersSaved = in.totalStats().guardedItersSaved;
    if (interval != 0) snapshots = in.runtime().ckptStore()->stats().snapshots;
  }
  state.counters["snapshots"] = static_cast<double>(snapshots);
  state.counters["guarded_iters_saved"] = static_cast<double>(itersSaved);
  state.SetLabel(interval == 0 ? "checkpointing off"
                               : "every " + std::to_string(interval));
}

void BM_SnapshotEncode(benchmark::State& state) {
  const ckpt::Snapshot& snap = genesisSnapshot();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::byte> enc = ckpt::encodeSnapshot(snap);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.counters["snapshot_records"] =
      static_cast<double>(ckpt::snapshotRecordCount(snap));
  state.counters["bytes_per_s"] = benchmark::Counter(
      static_cast<double>(bytes) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_SnapshotDecode(benchmark::State& state) {
  const std::vector<std::byte> enc =
      ckpt::encodeSnapshot(genesisSnapshot());
  for (auto _ : state) {
    ckpt::Snapshot snap = ckpt::decodeSnapshot(enc);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["bytes_per_s"] = benchmark::Counter(
      static_cast<double>(enc.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_RestoreResume(benchmark::State& state) {
  const std::vector<std::byte>& enc = midRunSnapshotBytes();
  std::uint64_t tailStmts = 0;
  for (auto _ : state) {
    interp::Interpreter in(jacobi(), withPlan(), {});
    setupCkpt(in, 0);
    in.runtime().restoreFrom(ckpt::decodeSnapshot(enc));
    in.run();
    tailStmts = in.totalStats().stmtsExecuted;
  }
  state.counters["tail_stmts"] = static_cast<double>(tailStmts);
}

void BM_CrashRecover(benchmark::State& state) {
  net::FaultPlan plan;
  for (int p = 0; p < jacobi().nprocs; ++p) plan.crashPids.push_back(p);
  plan.crashAfterSends = 0;  // first send from any endpoint kills it
  plan.crashFate = net::CrashFate::Recover;
  std::uint64_t recoveries = 0;
  for (auto _ : state) {
    interp::Interpreter in(jacobi(), withPlan(plan), {});
    setupCkpt(in, 32);
    in.run();
    recoveries = in.runtime().recoveries();
  }
  state.counters["recoveries"] = static_cast<double>(recoveries);
}

}  // namespace

BENCHMARK(BM_CheckpointedRun)
    ->Arg(0)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckpointedHalo)
    ->Arg(0)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RestoreResume)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CrashRecover)->Unit(benchmark::kMillisecond);
