// Differential crash-tolerance tests (DESIGN.md §11): a VM run that
// crashes mid-way and recovers from a checkpoint must produce a result
// digest and logical counters bit-identical to the uninterrupted run —
// the fault-free reference walker's and the VM's — for every example
// program. Preemption must likewise round-trip: a run preempted to a
// snapshot and resumed — in the same runtime or in a freshly constructed
// one fed the serialized bytes — finishes with the fault-free digest.
// Checkpointing is a VM feature: the reference walker refuses it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis_programs.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/support/check.hpp"

namespace xdp::interp {
namespace {

using sec::Index;
using sec::Section;

il::Program loadExample(const std::string& name) {
  std::string path = std::string(XDP_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

/// The `serve` workload's checkpointed program: the halo relaxation whose
/// interior loop is a pure range-split site.
constexpr const char* kServeHalo = "serve-halo";

/// The `serve` workload's ring: `-=>`/`<=-` block moves and an await
/// rule, every one compiled to a hot transfer op.
constexpr const char* kServeRing = "serve-ring";

/// Guarded loop kernels over CYCLIC(3) arrays: each processor owns
/// several interleaved progressions of every loop, so a split kernel runs
/// range by range and, under a checkpoint controller, walks the
/// materialized order to the last iteration it leaves to the per-op copy.
constexpr const char* kCyclicSplit = "cyclic-split";

/// An example program by file name, or a serve text.
il::Program loadProgram(const std::string& name) {
  if (name == kServeHalo) return il::parseProgram(testprog::haloText(2, 96, 60));
  if (name == kServeRing) return il::parseProgram(testprog::ringText(3, 2, 24));
  if (name == kCyclicSplit)
    return il::parseProgram(R"(procs 2
array U f64 [1:48] (CYCLIC(3))
array V f64 [1:48] (CYCLIC(3))
do i = 1, 48
  iown(U[i]) : {
    U[i] = 0.03125 * i
    V[i] = 1.5 - U[i]
  }
enddo
do t = 1, 5
  do i = 1, 48
    iown(V[i]) : { V[i] = 0.5 * U[i] + 0.25 * V[i] - 0.125 * t }
  enddo
  do i = 2, 47, 2
    iown(U[i]) : { U[i] = U[i] - 0.5 * V[i] }
  enddo
enddo
)");
  return loadExample(name);
}

/// FNV-1a over every array's final contents in global Fortran order
/// (same digest as test_vm_differential and the serve layer).
std::uint64_t digestState(rt::Runtime& rt) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::byte* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]));
      h *= 1099511628211ULL;
    }
  };
  std::vector<std::byte> buf, seg;
  for (const auto& d : rt.decls()) {
    const std::size_t esz = rt::elemSize(d.type);
    buf.assign(static_cast<std::size_t>(d.global.count()) * esz,
               std::byte{0});
    for (int p = 0; p < rt.nprocs(); ++p) {
      for (const auto& sg : rt.table(p).segments(d.index)) {
        if (sg.status != rt::SegState::Accessible) continue;
        seg.resize(static_cast<std::size_t>(sg.count()) * esz);
        rt.table(p).readElems(d.index, sg.bounds, seg.data());
        std::size_t i = 0;
        sg.bounds.forEach([&](const sec::Point& pt) {
          const std::size_t pos =
              static_cast<std::size_t>(d.global.fortranPos(pt));
          std::memcpy(buf.data() + pos * esz, seg.data() + i * esz, esz);
          ++i;
        });
      }
    }
    mix(buf.data(), buf.size());
  }
  return h;
}

struct RunResult {
  std::uint64_t digest = 0;
  InterpStats stats;
  net::NetStats net;
  double makespan = 0.0;
  std::uint64_t recoveries = 0;
  std::uint64_t snapshots = 0;
};

RunResult gather(Interpreter& in) {
  RunResult r;
  r.digest = digestState(in.runtime());
  r.stats = in.totalStats();
  r.net = in.runtime().fabric().totalStats();
  r.makespan = in.runtime().fabric().makespan();
  r.recoveries = in.runtime().recoveries();
  if (in.runtime().ckptStore() != nullptr)
    r.snapshots = in.runtime().ckptStore()->stats().snapshots;
  return r;
}

RunResult baselineRun(const il::Program& prog, Backend be) {
  InterpOptions io;
  io.backend = be;
  Interpreter in(prog, {}, io);
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);
  in.run();
  return gather(in);
}

/// A checkpointed VM run in which every processor crashes after
/// `crashAfterSends` sends and recovers from its last snapshot.
RunResult crashRecoverRun(const il::Program& prog,
                          std::uint64_t crashAfterSends,
                          std::uint64_t intervalSteps) {
  rt::RuntimeOptions opts;
  net::FaultPlan plan;
  // Arm every pid: which processor sends first (or at all) differs per
  // program, and the budget counts each endpoint's own sends.
  for (int p = 0; p < prog.nprocs; ++p) plan.crashPids.push_back(p);
  plan.crashAfterSends = crashAfterSends;
  plan.crashFate = net::CrashFate::Recover;
  opts.faultPlan = plan;
  Interpreter in(prog, opts);
  ckpt::CkptOptions co;
  co.intervalSteps = intervalSteps;
  in.runtime().enableCheckpointing(co);
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);
  in.run();
  return gather(in);
}

/// The six logical counters both engines and every recovery path must
/// reproduce exactly. Fast-path counters (guardCacheHits, rangeSplits,
/// guardedItersSaved) are excluded by design: the walker never splits,
/// under checkpointing the VM splits pure sites only, and cache hits
/// depend on table lifetimes.
void expectLogicalEq(const RunResult& a, const RunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.digest, b.digest) << what << ": result digests differ";
  EXPECT_EQ(a.stats.stmtsExecuted, b.stats.stmtsExecuted) << what;
  EXPECT_EQ(a.stats.loopIterations, b.stats.loopIterations) << what;
  EXPECT_EQ(a.stats.rulesEvaluated, b.stats.rulesEvaluated) << what;
  EXPECT_EQ(a.stats.rulesTrue, b.stats.rulesTrue) << what;
  EXPECT_EQ(a.stats.elemAssigns, b.stats.elemAssigns) << what;
  EXPECT_EQ(a.stats.kernelCalls, b.stats.kernelCalls) << what;
  EXPECT_EQ(a.net.messagesSent, b.net.messagesSent) << what;
  EXPECT_EQ(a.net.bytesSent, b.net.bytesSent) << what;
  EXPECT_EQ(a.net.ownershipTransfers, b.net.ownershipTransfers) << what;
}

class RecoveryDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(RecoveryDifferential, CrashRecoverMatchesFaultFreeTreeWalk) {
  il::Program prog = loadProgram(GetParam());
  RunResult base = baselineRun(prog, Backend::TreeWalk);
  RunResult rec = crashRecoverRun(prog, 0, 32);
  // A program with no communication (vecadd) never trips a send-triggered
  // crash; the differential still checks the checkpointing machinery is
  // inert on its results.
  if (base.net.messagesSent > 0) {
    EXPECT_GE(rec.recoveries, 1u) << "crash never triggered";
  }
  expectLogicalEq(base, rec, std::string(GetParam()) + " (vs reference)");
}

TEST_P(RecoveryDifferential, CrashRecoverMatchesFaultFreeBytecode) {
  il::Program prog = loadProgram(GetParam());
  RunResult base = baselineRun(prog, Backend::Bytecode);
  RunResult rec = crashRecoverRun(prog, 0, 32);
  if (base.net.messagesSent > 0) {
    EXPECT_GE(rec.recoveries, 1u) << "crash never triggered";
  }
  expectLogicalEq(base, rec, std::string(GetParam()) + " (vm)");
}

TEST_P(RecoveryDifferential, LateCrashRecoversFromMidRunSnapshot) {
  // A later crash budget lets periodic captures land first, so recovery
  // restores a mid-run snapshot rather than the genesis one.
  il::Program prog = loadProgram(GetParam());
  RunResult base = baselineRun(prog, Backend::TreeWalk);
  RunResult rec = crashRecoverRun(prog, 3, 16);
  if (rec.recoveries == 0) return;  // p1 sent too few messages to die
  EXPECT_GE(rec.snapshots, 1u);
  expectLogicalEq(base, rec, std::string(GetParam()) + " (late crash)");
}

INSTANTIATE_TEST_SUITE_P(Examples, RecoveryDifferential,
                         ::testing::Values("vecadd.xdp", "jacobi.xdp",
                                           "cannon.xdp", "ownership.xdp",
                                           "taskfarm.xdp", kServeHalo));

/// Preemption runs on the VM; the parameter names the engine of the
/// fault-free baseline (the reference walker, or the VM itself).
class PreemptResume : public ::testing::TestWithParam<Backend> {};

TEST_P(PreemptResume, PreemptThenResumeSameRuntimeMatchesFaultFree) {
  il::Program prog = loadExample("jacobi.xdp");
  RunResult base = baselineRun(prog, GetParam());

  rt::Runtime* rtp = nullptr;
  std::atomic<bool> armed{true};
  InterpOptions io;
  io.stepHook = [&](rt::Proc& p) {
    if (p.mypid() == 0 && armed.exchange(false)) rtp->requestPreempt();
  };
  Interpreter in(prog, {}, io);
  rtp = &in.runtime();
  in.runtime().enableCheckpointing({});
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);

  in.run();
  ASSERT_TRUE(in.runtime().preempted());
  ckpt::Snapshot snap = in.runtime().takePreemptSnapshot();
  EXPECT_EQ(snap.nprocs, prog.nprocs);

  in.runtime().restoreFrom(std::move(snap));
  in.run();
  EXPECT_FALSE(in.runtime().preempted());
  expectLogicalEq(base, gather(in), "preempt+resume");
}

TEST_P(PreemptResume, SnapshotSurvivesSerializationIntoFreshRuntime) {
  // Simulates resume in a different process: the snapshot goes through
  // the checksummed wire format and is restored into a runtime that
  // shares no state with the preempted one.
  il::Program prog = loadExample("jacobi.xdp");
  RunResult base = baselineRun(prog, GetParam());

  std::vector<std::byte> encoded;
  {
    rt::Runtime* rtp = nullptr;
    std::atomic<bool> armed{true};
    InterpOptions io;
    io.stepHook = [&](rt::Proc& p) {
      if (p.mypid() == 0 && armed.exchange(false)) rtp->requestPreempt();
    };
    Interpreter in(prog, {}, io);
    rtp = &in.runtime();
    in.runtime().enableCheckpointing({});
    apps::registerFillKernel(in, 42);
    apps::registerFftKernels(in);
    in.run();
    ASSERT_TRUE(in.runtime().preempted());
    encoded = ckpt::encodeSnapshot(in.runtime().takePreemptSnapshot());
  }

  Interpreter in2(prog);
  in2.runtime().enableCheckpointing({});
  apps::registerFillKernel(in2, 42);
  apps::registerFftKernels(in2);
  in2.runtime().restoreFrom(ckpt::decodeSnapshot(encoded));
  in2.run();
  expectLogicalEq(base, gather(in2), "serialized resume");
}

INSTANTIATE_TEST_SUITE_P(Backends, PreemptResume,
                         ::testing::Values(Backend::TreeWalk,
                                           Backend::Bytecode));

TEST(Recovery, CrossEngineResumeIsRejected) {
  // A snapshot whose continuation carries the retired tree-walker tag
  // (engine 1) must be refused, not reinterpreted as VM state.
  il::Program prog = loadExample("vecadd.xdp");
  std::vector<std::byte> encoded;
  {
    rt::Runtime* rtp = nullptr;
    std::atomic<bool> armed{true};
    InterpOptions io;
    io.stepHook = [&](rt::Proc& p) {
      if (p.mypid() == 0 && armed.exchange(false)) rtp->requestPreempt();
    };
    Interpreter in(prog, {}, io);
    rtp = &in.runtime();
    in.runtime().enableCheckpointing({});
    apps::registerFillKernel(in, 42);
    in.run();
    ASSERT_TRUE(in.runtime().preempted());
    ckpt::Snapshot snap = in.runtime().takePreemptSnapshot();
    for (ckpt::ContImage& c : snap.conts) c.engine = 1;
    encoded = ckpt::encodeSnapshot(snap);
  }
  Interpreter in2(prog);
  in2.runtime().enableCheckpointing({});
  apps::registerFillKernel(in2, 42);
  in2.runtime().restoreFrom(ckpt::decodeSnapshot(encoded));
  // The per-node CkptError is aggregated by the SPMD failure handler into
  // a single XdpError naming the failed processors.
  try {
    in2.run();
    FAIL() << "a retired-engine continuation was not rejected";
  } catch (const xdp::XdpError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "cannot resume a continuation captured by another engine"),
              std::string::npos)
        << e.what();
  }
}

TEST(Recovery, ReferenceWalkerRefusesCheckpointing) {
  il::Program prog = loadExample("vecadd.xdp");
  InterpOptions io;
  io.backend = Backend::TreeWalk;
  Interpreter in(prog, {}, io);
  in.runtime().enableCheckpointing({});
  apps::registerFillKernel(in, 42);
  EXPECT_THROW(in.run(), xdp::UsageError);
}

TEST(Recovery, ProgramHashMismatchIsRejected) {
  il::Program prog = loadExample("vecadd.xdp");
  Interpreter in(prog, {}, {});
  in.runtime().enableCheckpointing({});
  in.runtime().setCkptProgram(0, 111);
  apps::registerFillKernel(in, 42);
  in.run();
  ckpt::Snapshot snap = in.runtime().checkpoint();
  EXPECT_EQ(snap.programHash, 111u);
  snap.programHash = 222;
  EXPECT_THROW(in.runtime().restoreFrom(std::move(snap)), ckpt::CkptError);
}

TEST(Recovery, CheckpointingRunWithoutFaultsMatchesPlainRun) {
  // Steady state: enabling checkpointing (with periodic captures) must
  // not perturb results or logical counters against either engine's
  // plain run.
  il::Program prog = loadExample("cannon.xdp");
  for (Backend be : {Backend::TreeWalk, Backend::Bytecode}) {
    RunResult base = baselineRun(prog, be);
    Interpreter in(prog);
    ckpt::CkptOptions co;
    co.intervalSteps = 64;
    in.runtime().enableCheckpointing(co);
    apps::registerFillKernel(in, 42);
    apps::registerFftKernels(in);
    in.run();
    RunResult r = gather(in);
    EXPECT_EQ(r.recoveries, 0u);
    expectLogicalEq(base, r, "steady-state ckpt");
  }
}

/// Capture stress: checkpointing a fault-free VM run at fine and coarse
/// intervals, again and again, must leave the run exactly as it is
/// without checkpointing: same digest, same NetStats and the same
/// makespan. The task farm's makespan is the exception: a park at a
/// boundary changes which worker reaches the matcher first, so its
/// rendezvous pairs differ from the plain run's. The schedule is still a
/// function of the program and the interval, so every repetition at one
/// interval must report one makespan. The serve halo and ring run their
/// transfers as hot VM ops. At interval 1 the captures follow
/// each other back to back, so a capture that exported a machine still in
/// motion would show up here as a mismatch. Pure split sites split under
/// checkpointing too, so on the serve halo and the CYCLIC(3) program,
/// whose split sites are all pure, the split counters match the plain
/// run's as well.
class CaptureStress : public ::testing::TestWithParam<const char*> {};

TEST_P(CaptureStress, CheckpointedRunsMatchPlainRun) {
  constexpr int kReps = 10;
  const std::string name = GetParam();
  const il::Program prog = loadProgram(name);
  const RunResult base = baselineRun(prog, Backend::Bytecode);
  const bool splits = name == kServeHalo || name == kCyclicSplit;
  if (splits) {
    ASSERT_GT(base.stats.rangeSplits, 0u);
  }
  if (name == kCyclicSplit) {
    ASSERT_EQ(bc::compile(prog).kernels.size(), 3u);
    ASSERT_EQ(base.stats.fusedLoops, 2u * 11u);
  }
  if (name == kServeHalo || name == kServeRing) {
    const bc::Module m = bc::compile(prog);
    ASSERT_EQ(m.coldStmts, 1u);  // the fill kernel
    ASSERT_GT(m.xfers.size(), 0u);
    // The inner element loop (the halo's split copy, the ring's plain
    // loop) compiles to one loop kernel.
    ASSERT_EQ(m.kernels.size(), 1u);
    ASSERT_NE(bc::disassemble(m).find("LoopKernel"), std::string::npos);
  }
  for (std::uint64_t interval : {1, 7, 64, 1024}) {
    std::optional<double> intervalMakespan;
    for (int rep = 0; rep < kReps; ++rep) {
      Interpreter in(prog);
      ckpt::CkptOptions co;
      co.intervalSteps = interval;
      in.runtime().enableCheckpointing(co);
      apps::registerFillKernel(in, 42);
      apps::registerFftKernels(in);
      in.run();
      const RunResult r = gather(in);
      const std::string what = name + " interval " +
                               std::to_string(interval) + " run " +
                               std::to_string(rep);
      EXPECT_EQ(r.recoveries, 0u) << what;
      EXPECT_GE(r.snapshots, 1u) << what;
      expectLogicalEq(base, r, what);
      EXPECT_EQ(r.net.messagesReceived, base.net.messagesReceived) << what;
      EXPECT_EQ(r.net.bytesReceived, base.net.bytesReceived) << what;
      EXPECT_EQ(r.net.rendezvousSends, base.net.rendezvousSends) << what;
      EXPECT_EQ(r.net.directSends, base.net.directSends) << what;
      EXPECT_EQ(r.net.unexpectedMessages, base.net.unexpectedMessages)
          << what;
      if (name != "taskfarm.xdp") {
        EXPECT_EQ(r.makespan, base.makespan) << what;
      }
      if (!intervalMakespan) intervalMakespan = r.makespan;
      EXPECT_EQ(r.makespan, *intervalMakespan) << what;
      if (splits) {
        EXPECT_EQ(r.stats.rangeSplits, base.stats.rangeSplits) << what;
        EXPECT_EQ(r.stats.guardedItersSaved, base.stats.guardedItersSaved)
            << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, CaptureStress,
                         ::testing::Values("vecadd.xdp", "jacobi.xdp",
                                           "cannon.xdp", "ownership.xdp",
                                           "taskfarm.xdp", kServeHalo,
                                           kServeRing, kCyclicSplit));

/// apps::registerFillKernel's kernel with seed 42, for f64 arrays: every
/// owned point of each argument gets apps::cellValueAt.
void fill42(rt::Proc& p, const std::vector<std::pair<int, Section>>& args) {
  for (const auto& [sym, s] : args)
    for (const rt::SegmentDesc& seg : p.table().segments(sym))
      Section::intersect(seg.bounds, s).forEach([&](const sec::Point& pt) {
        const double v = apps::cellValueAt(42, sym, pt);
        p.table().writeElems(sym, Section{sec::Triplet(pt[0])},
                             reinterpret_cast<const std::byte*>(&v));
      });
}

/// A checkpointed VM run whose processor 0 requests preemption at its
/// `preemptAt`-th step-hook call, resumed in the same runtime to the end:
/// the encoded preempt snapshot, the finished run and the kernel entries
/// before the park (resuming replaces the counters with the image's,
/// which do not include them). With `perOp` every LoopKernel op is a jump
/// to its per-op copy; `preemptAt` 0 never preempts.
struct PreemptedRun {
  std::vector<std::byte> image;
  RunResult r;
  std::uint64_t fused = 0;
};

PreemptedRun preemptedRun(const il::Program& prog, bool perOp,
                          std::uint64_t preemptAt) {
  bc::Module m = bc::compile(prog);
  if (perOp)
    for (std::size_t pc = 0; pc < m.code.size(); ++pc)
      if (m.code[pc].op == bc::Op::LoopKernel)
        m.code[pc] = {bc::Op::Jmp, 0, 0, 0, 0,
                      static_cast<std::int32_t>(pc + 1)};
  rt::Runtime* rtp = nullptr;
  std::uint64_t calls = 0;
  InterpOptions io;
  io.stepHook = [&](rt::Proc& p) {
    if (p.mypid() == 0 && ++calls == preemptAt) rtp->requestPreempt();
  };
  Interpreter in(prog, {}, io);
  rt::Runtime& rt = in.runtime();
  rtp = &rt;
  rt.enableCheckpointing({});
  std::vector<InterpStats> stats(static_cast<std::size_t>(prog.nprocs));
  const std::map<std::string, KernelFn> kernels{{"fill", fill42}};
  auto run = [&] {
    rt.run([&](rt::Proc& p) {
      bc::execute(m, p, stats[static_cast<std::size_t>(p.mypid())], io,
                  kernels, rt.ckptController());
    });
  };
  PreemptedRun out;
  run();
  for (const InterpStats& st : stats) out.fused += st.fusedLoops;
  if (rt.preempted()) {
    ckpt::Snapshot snap = rt.takePreemptSnapshot();
    out.image = ckpt::encodeSnapshot(snap);
    rt.restoreFrom(std::move(snap));
    run();
  }
  EXPECT_FALSE(rt.preempted());
  out.r.digest = digestState(rt);
  for (const InterpStats& st : stats) out.r.stats += st;
  out.r.net = rt.fabric().totalStats();
  out.r.makespan = rt.fabric().makespan();
  return out;
}

TEST(CaptureStress, LoopKernelsLeaveThePerOpCopysImages) {
  // Preempted at a step inside (or after) a split kernel, the machine
  // parks at the first boundary after the loop, and its snapshot (tables,
  // registers, counters) encodes to the bytes its per-op copy's does:
  // the kernel leaves its last iteration to that copy. Every step of the
  // CYCLIC(3) program, whose kernels run several ranges; every 97th of
  // the serve halo's.
  for (const auto& [name, stride] :
       {std::pair<const char*, std::uint64_t>{kCyclicSplit, 1},
        {kServeHalo, 97}}) {
    const il::Program prog = loadProgram(name);
    const RunResult base = baselineRun(prog, Backend::Bytecode);
    ASSERT_GT(base.stats.fusedLoops, 0u) << name;
    const PreemptedRun whole = preemptedRun(prog, false, 0);
    EXPECT_TRUE(whole.image.empty()) << name;
    EXPECT_EQ(whole.fused, base.stats.fusedLoops) << name;
    expectLogicalEq(base, whole.r, name);
    std::uint64_t steps = 0, fusedBeforePark = 0;
    {
      InterpOptions io;
      io.stepHook = [&](rt::Proc& p) { steps += p.mypid() == 0 ? 1 : 0; };
      Interpreter in(prog, {}, io);
      apps::registerFillKernel(in, 42);
      in.run();
    }
    for (std::uint64_t k = 1; k <= steps; k += stride) {
      const std::string what =
          std::string(name) + " preempted at step " + std::to_string(k);
      const PreemptedRun v = preemptedRun(prog, false, k);
      const PreemptedRun p = preemptedRun(prog, true, k);
      ASSERT_FALSE(v.image.empty()) << what;
      EXPECT_TRUE(v.image == p.image) << what;
      fusedBeforePark += v.fused > 0 ? 1 : 0;
      EXPECT_EQ(p.fused, 0u) << what;
      expectLogicalEq(base, v.r, what);
      expectLogicalEq(base, p.r, what);
      EXPECT_EQ(v.r.makespan, base.makespan) << what;
      EXPECT_EQ(p.r.makespan, base.makespan) << what;
      if (HasFailure()) return;
    }
    EXPECT_GT(fusedBeforePark, 0u) << name;
  }
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A run whose captures can never form must not stall on them: a capture
// fails as soon as nobody runs and somebody is inside a barrier or has
// failed. Both programs checkpoint every 5 steps.

TEST(CaptureEvents, BarrierInsideKernelDoesNotStallCapture) {
  // Only p0 runs `s = 1`, so the two processors reach their park
  // thresholds at different statements, and one often parks while the
  // other waits in the kernel's barrier for it.
  const il::Program prog = il::parseProgram(R"(procs 2
array A f64 [1:16] (BLOCK)
fill(A[1:16])
do t = 1, 12
  (mypid == 0) : { s = 1 }
  sync()
  do i = 1, 16
    iown(A[i]) : { A[i] = 0.5 * A[i] + t }
  enddo
enddo
)");
  auto run = [&](std::uint64_t interval) {
    Interpreter in(prog);
    if (interval != 0) {
      ckpt::CkptOptions co;
      co.intervalSteps = interval;
      in.runtime().enableCheckpointing(co);
    }
    apps::registerFillKernel(in, 42);
    in.registerKernel("sync",
                      [](rt::Proc& p, const std::vector<std::pair<int, Section>>&) {
                        p.barrier();
                      });
    in.run();
    RunResult r = gather(in);
    if (interval != 0) {
      EXPECT_GT(in.runtime().ckptController()->captureFailures(), 0u)
          << "no capture met a barrier entrant";
    }
    return r;
  };
  const RunResult base = run(0);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run(5);
  EXPECT_LT(secondsSince(t0), 1.0);
  EXPECT_GE(r.snapshots, 1u);
  expectLogicalEq(base, r, "barrier kernel");
}

TEST(CaptureEvents, FailedProcessorDoesNotStallCapture) {
  // p1 dies in its kernel call before its first park; p0 runs on alone,
  // parking every 5 steps, and each of its captures must give up on p1
  // at once.
  const il::Program prog = il::parseProgram(R"(procs 2
array A f64 [1:16] (BLOCK)
fill(A[1:16])
do t = 1, 15
  (t == 2) : { boom() }
  (mypid == 0) : { s = t }
enddo
)");
  Interpreter in(prog);
  ckpt::CkptOptions co;
  co.intervalSteps = 5;
  in.runtime().enableCheckpointing(co);
  apps::registerFillKernel(in, 42);
  in.registerKernel("boom",
                    [](rt::Proc& p, const std::vector<std::pair<int, Section>>&) {
                      if (p.mypid() == 1) throw xdp::XdpError("boom on p1");
                    });
  const auto t0 = std::chrono::steady_clock::now();
  try {
    in.run();
    FAIL() << "the kernel's failure was not rethrown";
  } catch (const xdp::XdpError& e) {
    EXPECT_NE(std::string(e.what()).find("boom on p1"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(secondsSince(t0), 1.0);
  EXPECT_GT(in.runtime().ckptController()->captureFailures(), 0u);
}

}  // namespace
}  // namespace xdp::interp
