// Differential testing of the bytecode VM against the reference tree
// walker (the oracle). Both engines must produce bit-identical results
// (FNV-1a digest over every array's final contents), identical logical
// InterpStats, identical deterministic NetStats and the same makespan on
// every example program and every pipeline stage. The task farm's
// makespan is compared too: the scheduler runs the lowest virtual clock
// first, so which worker draws which job is a function of the program.
//
// Deliberately NOT compared:
//   * guardCacheHits / rangeSplits / guardedItersSaved — non-logical
//     fast-path counters; only the VM range-splits (SplitParity pins its
//     split counts on the example programs).
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <typeinfo>

#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/serve/session.hpp"
#include "xdp/support/rng.hpp"
#include "analysis_programs.hpp"

namespace xdp::interp {
namespace {

using sec::Index;
using sec::Section;
using sec::Triplet;

il::Program loadExample(const std::string& name) {
  std::string path = std::string(XDP_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

/// FNV-1a over every array's final contents in global Fortran order
/// (canonical w.r.t. how ownership happens to be segmented).
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
  InterpStats stats;  // summed over processors
  std::uint64_t messagesSent = 0, bytesSent = 0, ownershipTransfers = 0;
  double makespan = 0.0;
};

RunResult runWith(const il::Program& prog, Backend be,
                  std::uint64_t seed = 42) {
  // No debug checks: raw (pre-lowering) example programs read unowned
  // elements by design — the owner-computes lowering is what makes them
  // Figure-1 clean. Error-surface parity is covered separately below.
  rt::RuntimeOptions opts;
  InterpOptions io;
  io.backend = be;
  Interpreter in(prog, opts, io);
  apps::registerFillKernel(in, seed);
  apps::registerFftKernels(in);
  in.run();
  RunResult r;
  r.digest = digestState(in.runtime());
  r.stats = in.totalStats();
  auto net = in.runtime().fabric().totalStats();
  r.messagesSent = net.messagesSent;
  r.bytesSent = net.bytesSent;
  r.ownershipTransfers = net.ownershipTransfers;
  r.makespan = in.runtime().fabric().makespan();
  EXPECT_EQ(in.runtime().fabric().undeliveredCount(), 0u);
  return r;
}

void expectBackendsAgree(const il::Program& prog, const std::string& what,
                         std::uint64_t seed = 42) {
  RunResult t = runWith(prog, Backend::TreeWalk, seed);
  RunResult v = runWith(prog, Backend::Bytecode, seed);
  EXPECT_EQ(t.digest, v.digest) << what << ": result digests differ";
  EXPECT_EQ(t.stats.stmtsExecuted, v.stats.stmtsExecuted) << what;
  EXPECT_EQ(t.stats.loopIterations, v.stats.loopIterations) << what;
  EXPECT_EQ(t.stats.rulesEvaluated, v.stats.rulesEvaluated) << what;
  EXPECT_EQ(t.stats.rulesTrue, v.stats.rulesTrue) << what;
  EXPECT_EQ(t.stats.elemAssigns, v.stats.elemAssigns) << what;
  EXPECT_EQ(t.stats.kernelCalls, v.stats.kernelCalls) << what;
  EXPECT_EQ(t.messagesSent, v.messagesSent) << what;
  EXPECT_EQ(t.bytesSent, v.bytesSent) << what;
  EXPECT_EQ(t.ownershipTransfers, v.ownershipTransfers) << what;
  EXPECT_DOUBLE_EQ(t.makespan, v.makespan) << what;
}

class VmExampleDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(VmExampleDifferential, RawProgramMatchesOracle) {
  expectBackendsAgree(loadExample(GetParam()), GetParam(), 42);
}

TEST_P(VmExampleDifferential, PipelinedProgramMatchesOracle) {
  il::Program prog = loadExample(GetParam());
  opt::PassManager pm;
  for (const auto& p : opt::standardPipeline()) pm.add(p.name, p.fn);
  expectBackendsAgree(pm.run(prog), std::string(GetParam()) + " (pipeline)",
                      42);
}

INSTANTIATE_TEST_SUITE_P(Examples, VmExampleDifferential,
                         ::testing::Values("vecadd.xdp", "jacobi.xdp",
                                           "cannon.xdp", "ownership.xdp",
                                           "taskfarm.xdp"));

TEST(VmDifferential, VecAddBuilderStagesMatch) {
  for (bool aligned : {true, false}) {
    auto cfg = aligned ? apps::vecAddAligned(32, 4)
                       : apps::vecAddMisaligned(32, 4);
    il::Program seq = apps::buildVecAdd(cfg);
    expectBackendsAgree(seq, "vecadd seq", cfg.seed);
    il::Program lowered = opt::lowerOwnerComputes(seq);
    expectBackendsAgree(lowered, "vecadd lowered", cfg.seed);
    il::Program vec = opt::messageVectorization(lowered);
    expectBackendsAgree(vec, "vecadd vectorized", cfg.seed);
    expectBackendsAgree(opt::computeRuleElimination(vec), "vecadd cre",
                        cfg.seed);
  }
}

TEST(VmDifferential, Fft3dStagesMatch) {
  apps::Fft3dConfig cfg;
  cfg.n = 8;
  cfg.nprocs = 4;
  il::Program s1 = apps::buildFft3dStage1(cfg);
  expectBackendsAgree(s1, "fft3d stage1", cfg.seed);
  il::Program s2 =
      opt::singleIterationElimination(opt::computeRuleElimination(s1));
  expectBackendsAgree(s2, "fft3d stage2", cfg.seed);
  il::Program s3 = opt::awaitSinking(opt::loopFusion(s2));
  expectBackendsAgree(s3, "fft3d stage3", cfg.seed);
}

TEST(VmDifferential, ErrorSurfacesMatchAcrossBackends) {
  // The VM must raise the exact error the oracle raises — same type,
  // same message — for runtime faults in hot and cold code alike.
  auto mk = [](il::ExprPtr rhs) {
    il::Program prog;
    prog.nprocs = 1;
    Section g{Triplet(1, 4)};
    prog.addArray({"A", rt::ElemType::F64, g,
                   dist::Distribution(g, {dist::DimSpec::block(1)}), {}});
    prog.body = il::block({il::elemAssign(
        0, il::secPoint({il::intConst(1)}), std::move(rhs))});
    return prog;
  };
  auto errOf = [&](const il::Program& prog, Backend be) -> std::string {
    rt::RuntimeOptions opts;
    opts.debugChecks = true;
    InterpOptions io;
    io.backend = be;
    Interpreter in(prog, opts, io);
    try {
      in.run();
    } catch (const xdp::Error& e) {
      return e.what();
    }
    return "";
  };
  // XDP_CHECK prefixes messages with file:line, which legitimately
  // differs between the two engines — parity is on the user-meaningful
  // message, so both sides must contain the same diagnostic text.
  const std::pair<il::Program, const char*> cases[] = {
      {mk(il::bin(il::BinOp::Div, il::intConst(1), il::intConst(0))),
       "division by zero"},
      {mk(il::bin(il::BinOp::Mod, il::intConst(1), il::intConst(0))),
       "modulo by zero"},
      {mk(il::bin(il::BinOp::Mod, il::realConst(1.5), il::intConst(2))),
       "mod requires integer operands"},
      {mk(il::scalar("undefined_scalar")),
       "use of undefined universal scalar: undefined_scalar"},
  };
  for (const auto& [prog, msg] : cases) {
    std::string t = errOf(prog, Backend::TreeWalk);
    std::string v = errOf(prog, Backend::Bytecode);
    EXPECT_NE(t.find(msg), std::string::npos) << "tree: " << t;
    EXPECT_NE(v.find(msg), std::string::npos) << "vm: " << v;
  }
}

// Transfer corpus: every statement and intrinsic the VM compiles to a
// hot transfer op (XferSite) — point and rank-1 sends with no, pid and
// owner() destinations, strided sections, receives, both ownership
// moves, statement / rule / expression awaits, iown and accessible rules
// — and their empty sections, whose destination pids the walker never
// evaluates (a division by zero here would surface otherwise).
constexpr const char* kTransferCorpus = R"(procs 4
array A f64 [0:15] (BLOCK)
array B f64 [0:15] (CYCLIC)
array H f64 [0:15] (BLOCK)
array G f64 [0:7] (BLOCK)
array R f64 [0:3] (BLOCK)
array S f64 [0:3] (BLOCK)

fill(A[0:15], B[0:15])
do i = 0, 15
  iown(A[i]) : { A[i] -> {owner(B[i])} }
  iown(B[i]) : {
    B[i] <- A[i]
    await(B[i])
  }
enddo
(mypid < nprocs - 1) : { A[4 * mypid : 4 * mypid + 3] -> {mypid + 1} }
(mypid > 0) : { H[4 * mypid : 4 * mypid + 3] <- A[4 * mypid - 4 : 4 * mypid - 1] }
A[4 * mypid : 4 * mypid + 3 : 2] -> {(mypid + 1) % nprocs, mypid}
G[2 * mypid : 2 * mypid + 1] <- A[4 * ((mypid + 3) % 4) : 4 * ((mypid + 3) % 4) + 3 : 2]
H[4 * mypid + 2 : 4 * mypid + 3] <- A[4 * mypid : 4 * mypid + 3 : 2]
await(G[2 * mypid : 2 * mypid + 1]) : { G[2 * mypid] = G[2 * mypid] + G[2 * mypid + 1] }
(mypid > 0) : {
  w = await(H[4 * mypid : 4 * mypid + 3])
  S[mypid] = w + iown(A[4 * mypid]) + accessible(A[4 * mypid + 1])
}
(mypid == 0) : { A[0] -> }
(mypid == 3) : {
  R[3] <- A[0]
  await(R[3])
}
A[5:4] -> {1 / (mypid - mypid)}
B[3:2] <- A[3:2]
await(A[7:6])
A[9:8] -=> {1 / (mypid - mypid)}
A[9:8] <=-
A[9:8] <=
await(A[7:6]) : { S[mypid] = S[mypid] + 1.0 }
(mypid == 0) : { A[2:3] -=> {1} }
(mypid == 1) : {
  A[2:3] <=-
  await(A[2:3]) : { A[2] = A[2] + 1.0 }
}
(mypid == 2) : { A[8:9] => {3} }
(mypid == 3) : { A[8:9] <= }
(mypid == 1) : { A[4] -=> }
(mypid == 2) : {
  A[4] <=-
  accessible(A[4]) : { A[4] = A[4] * 3.0 }
}
)";

TEST(VmDifferential, TransferCorpusMatchesOracle) {
  const il::Program prog = il::parseProgram(kTransferCorpus);
  // Every statement but the fill kernel compiles hot.
  const bc::Module m = bc::compile(prog);
  EXPECT_EQ(m.coldStmts, 1u);
  EXPECT_GT(m.xfers.size(), 20u);
  expectBackendsAgree(prog, "transfer corpus");
}

TEST(VmDifferential, TransferErrorsSurfaceAtTheSameStep) {
  // Each case fails inside a hot transfer op; both engines must raise the
  // same diagnostic after the same number of step-hook calls.
  const std::string head = R"(procs 2
array A f64 [0:7] (BLOCK)
array B f64 [0:7] (BLOCK)
x = 1
y = x + 1
)";
  const std::pair<std::string, const char*> cases[] = {
      {"A[x + 0.5] -> {1}", "non-integral value in index context"},
      {"(mypid == 0) : { A[0:3:(mypid - mypid)] -> {1} }",
       "triplet stride must be >= 1"},
      {"(mypid == 0) : { A[0] -> {7} }", "pid 7 out of range"},
      {"(mypid == 1) : { B[0] <- A[0] }", "receive into unowned section"},
      {"(mypid == 0) : { A[0] -> {owner(B[2:5])} }",
       "bound destination section spans processors"},
      {"(mypid == 0) : { iown(A[0:3:y - 2]) : { x = 2 } }",
       "triplet stride must be >= 1"},
  };
  for (const auto& [stmt, msg] : cases) {
    const il::Program prog = il::parseProgram(head + stmt + "\n");
    auto run = [&](Backend be, std::uint64_t& steps) -> std::string {
      rt::RuntimeOptions opts;
      opts.debugChecks = true;
      InterpOptions io;
      io.backend = be;
      io.stepHook = [&steps](rt::Proc&) { ++steps; };
      Interpreter in(prog, opts, io);
      try {
        in.run();
      } catch (const xdp::Error& e) {
        return e.what();
      }
      return "";
    };
    std::uint64_t tSteps = 0, vSteps = 0;
    const std::string t = run(Backend::TreeWalk, tSteps);
    const std::string v = run(Backend::Bytecode, vSteps);
    EXPECT_NE(t.find(msg), std::string::npos) << stmt << " tree: " << t;
    EXPECT_NE(v.find(msg), std::string::npos) << stmt << " vm: " << v;
    EXPECT_EQ(tSteps, vSteps) << stmt;
  }
}

TEST(VmDifferential, ResidencyHookKeepsTheLoopKernel) {
  // A step hook that reads the table on every step (serve's quota hook
  // samples residentBytes) leaves pure loops their loop kernel; the run
  // must match the hookless one exactly.
  const il::Program prog = il::parseProgram(R"(procs 2
array A f64 [1:64] (BLOCK)
array B f64 [1:64] (BLOCK)

fill(A[1:64], B[1:64])
do t = 1, 20
  do i = 32 * mypid + 1, 32 * mypid + 32
    A[i] = A[i] * 0.5 + B[i]
  enddo
  do i = 1, 64
    iown(A[i]) : { B[i] = B[i] + A[i] }
  enddo
  (mypid == 0) : { A[32] -> {1} }
  (mypid == 1) : {
    B[33] <- A[32]
    await(B[33])
  }
enddo
)");
  auto run = [&](bool hook, std::uint64_t& digest, net::NetStats& net,
                 InterpStats& stats, double& makespan) {
    std::size_t resident = 0;
    InterpOptions io;
    if (hook)
      io.stepHook = [&resident](rt::Proc& p) {
        resident += p.table().residentBytes();
      };
    Interpreter in(prog, {}, io);
    apps::registerFillKernel(in, 42);
    in.run();
    digest = digestState(in.runtime());
    net = in.runtime().fabric().totalStats();
    stats = in.totalStats();
    makespan = in.runtime().fabric().makespan();
    EXPECT_GT(stats.fusedLoops, 0u);
    if (hook) {
      EXPECT_GT(resident, 0u);
    }
  };
  std::uint64_t d0 = 0, d1 = 0;
  net::NetStats n0, n1;
  InterpStats s0, s1;
  double m0 = 0.0, m1 = 0.0;
  run(false, d0, n0, s0, m0);
  run(true, d1, n1, s1, m1);
  EXPECT_EQ(d0, d1);
  EXPECT_EQ(n0.messagesSent, n1.messagesSent);
  EXPECT_EQ(n0.bytesSent, n1.bytesSent);
  EXPECT_EQ(n0.messagesReceived, n1.messagesReceived);
  EXPECT_EQ(n0.directSends, n1.directSends);
  EXPECT_EQ(n0.unexpectedMessages, n1.unexpectedMessages);
  EXPECT_EQ(s0.stmtsExecuted, s1.stmtsExecuted);
  EXPECT_EQ(s0.loopIterations, s1.loopIterations);
  EXPECT_EQ(s0.rulesEvaluated, s1.rulesEvaluated);
  EXPECT_EQ(s0.rulesTrue, s1.rulesTrue);
  EXPECT_EQ(s0.elemAssigns, s1.elemAssigns);
  EXPECT_EQ(s0.rangeSplits, s1.rangeSplits);
  EXPECT_EQ(m0, m1);
}

TEST(VmDifferential, ServeSessionsMatchAcrossBackends) {
  // Sessions run the VM; the reference walker runs the same program (the
  // session's pipeline applied by hand) outside the server.
  for (bool pipeline : {false, true}) {
    il::Program prog = loadExample("jacobi.xdp");
    serve::SessionRequest req;
    req.name = "diff";
    req.program = std::make_shared<il::Program>(prog);
    req.usePipeline = pipeline;
    serve::SessionReport v = serve::runSession(req, {}, 1);
    ASSERT_EQ(v.outcome, serve::SessionOutcome::Completed) << v.error;
    if (pipeline) {
      for (const auto& pass : opt::standardPipeline()) prog = pass.fn(prog);
    }
    RunResult t = runWith(prog, Backend::TreeWalk, req.fillSeed);
    EXPECT_EQ(t.digest, v.resultDigest);
    EXPECT_EQ(t.stats.stmtsExecuted, v.stats.stmtsExecuted);
    EXPECT_EQ(t.stats.rulesEvaluated, v.stats.rulesEvaluated);
    EXPECT_EQ(t.messagesSent, v.net.messagesSent);
  }
}

TEST(SplitParity, ExamplesSplitLikeTheRetiredWalkerSplit) {
  // The VM's split op replaces the tree walker's range split, which was
  // the default engine before. On each example, raw and after the
  // standard pipeline, the VM must split as many loops and skip as many
  // guard evaluations as that walker did (recorded from it).
  struct Want {
    const char* name;
    bool pipeline;
    std::uint64_t rangeSplits, guardedItersSaved;
  };
  const Want wants[] = {
      {"vecadd.xdp", false, 0, 0},    {"vecadd.xdp", true, 0, 0},
      {"jacobi.xdp", false, 12, 24},  {"jacobi.xdp", true, 0, 0},
      {"cannon.xdp", false, 0, 0},    {"cannon.xdp", true, 0, 0},
      {"ownership.xdp", false, 0, 0}, {"ownership.xdp", true, 0, 0},
      {"taskfarm.xdp", false, 0, 0},  {"taskfarm.xdp", true, 0, 0},
  };
  for (const Want& w : wants) {
    il::Program prog = loadExample(w.name);
    if (w.pipeline) {
      for (const auto& pass : opt::standardPipeline()) prog = pass.fn(prog);
    }
    const RunResult vm = runWith(prog, Backend::Bytecode);
    const std::string what =
        std::string(w.name) + (w.pipeline ? " pipeline" : " raw");
    EXPECT_EQ(vm.stats.rangeSplits, w.rangeSplits) << what;
    EXPECT_EQ(vm.stats.guardedItersSaved, w.guardedItersSaved) << what;
  }
}

TEST(VmDifferential, DisassemblerShowsCompiledProgram) {
  il::Program prog = loadExample("vecadd.xdp");
  bc::Module m = bc::compile(prog);
  EXPECT_GT(m.hotStmts, 0u);
  std::string dis = bc::disassemble(m);
  EXPECT_NE(dis.find("ForEnter"), std::string::npos);
  EXPECT_NE(dis.find("hot="), std::string::npos);
  EXPECT_EQ(m.prog.nprocs, prog.nprocs);
}

}  // namespace
}  // namespace xdp::interp

namespace xdp::interp {
namespace {

// --- loop kernels (DESIGN.md §9.2) ----------------------------------------

/// One run of a program with error text (file:line prefixes dropped, they
/// name the engine's source), step-hook calls and every counter.
struct KernelRun {
  RunResult r;
  std::string error;
  std::uint64_t hookCalls = 0;
  std::uint64_t fused = 0;
};

/// `what` without the "file.cpp:123: " prefixes of XDP_CHECK and
/// XDP_USAGE_FAIL, which name the engine's source file.
std::string withoutSourceRefs(std::string what) {
  for (const char* ext : {".cpp:", ".hpp:"}) {
    for (std::size_t at; (at = what.find(ext)) != std::string::npos;) {
      const std::size_t space = what.rfind(' ', at);
      const std::size_t begin = space == std::string::npos ? 0 : space + 1;
      std::size_t end = at + 5;
      while (end < what.size() &&
             std::isdigit(static_cast<unsigned char>(what[end])))
        ++end;
      if (what.compare(end, 2, ": ") == 0) end += 2;
      what.erase(begin, end - begin);
    }
  }
  return what;
}

/// The fill kernel of apps::registerFillKernel: every owned point of each
/// argument gets apps::cellValueAt.
void fillOwned(rt::Proc& p, const std::vector<std::pair<int, Section>>& args) {
  for (const auto& [sym, s] : args)
    for (const rt::SegmentDesc& seg : p.table().segments(sym))
      Section::intersect(seg.bounds, s).forEach([&](const sec::Point& pt) {
        const double v = apps::cellValueAt(7, sym, pt);
        std::array<Triplet, sec::kMaxRank> dims{};
        for (int d = 0; d < pt.rank(); ++d)
          dims[static_cast<std::size_t>(d)] = Triplet(pt[d]);
        p.table().writeElems(sym, Section(pt.rank(), dims),
                             reinterpret_cast<const std::byte*>(&v));
      });
}

/// How a program runs: the reference walker, the VM, or the VM with every
/// LoopKernel op turned into a jump to its per-op copy.
enum class Engine { Walker, Vm, VmPerOp };

KernelRun runKernelProgram(const il::Program& prog, Engine engine, bool debug,
                           bool hook, std::uint64_t throwAt = 0) {
  rt::RuntimeOptions opts;
  opts.debugChecks = debug;
  InterpOptions io;
  io.backend = engine == Engine::Walker ? Backend::TreeWalk : Backend::Bytecode;
  KernelRun k;
  if (hook)
    io.stepHook = [&k, throwAt](rt::Proc& p) {
      if (++k.hookCalls == throwAt) throw UsageError("hook stop");
      (void)p.table().residentBytes();
    };
  Interpreter in(prog, opts, io);
  in.registerKernel("fill", fillOwned);
  std::vector<InterpStats> perOp(static_cast<std::size_t>(prog.nprocs));
  try {
    if (engine != Engine::VmPerOp) {
      in.run();
    } else {
      bc::Module m = bc::compile(prog);
      for (std::size_t pc = 0; pc < m.code.size(); ++pc)
        if (m.code[pc].op == bc::Op::LoopKernel)
          m.code[pc] = {bc::Op::Jmp, 0, 0, 0, 0,
                        static_cast<std::int32_t>(pc + 1)};
      const std::map<std::string, KernelFn> kernels{{"fill", fillOwned}};
      in.runtime().run([&](rt::Proc& p) {
        bc::execute(m, p, perOp[static_cast<std::size_t>(p.mypid())], io,
                    kernels);
      });
    }
  } catch (const std::exception& e) {
    k.error = withoutSourceRefs(e.what());
  }
  k.r.digest = digestState(in.runtime());
  k.r.stats = in.totalStats();
  for (const InterpStats& st : perOp) k.r.stats += st;
  const auto net = in.runtime().fabric().totalStats();
  k.r.messagesSent = net.messagesSent;
  k.r.bytesSent = net.bytesSent;
  k.r.ownershipTransfers = net.ownershipTransfers;
  k.r.makespan = in.runtime().fabric().makespan();
  k.fused = k.r.stats.fusedLoops;
  return k;
}

/// Results, logical counters, NetStats and makespan agree.
void expectSameRun(const KernelRun& t, const KernelRun& v,
                   const std::string& what) {
  EXPECT_EQ(t.error, v.error) << what;
  EXPECT_EQ(t.r.digest, v.r.digest) << what;
  EXPECT_EQ(t.r.stats.stmtsExecuted, v.r.stats.stmtsExecuted) << what;
  EXPECT_EQ(t.r.stats.loopIterations, v.r.stats.loopIterations) << what;
  EXPECT_EQ(t.r.stats.rulesEvaluated, v.r.stats.rulesEvaluated) << what;
  EXPECT_EQ(t.r.stats.rulesTrue, v.r.stats.rulesTrue) << what;
  EXPECT_EQ(t.r.stats.elemAssigns, v.r.stats.elemAssigns) << what;
  EXPECT_EQ(t.r.stats.kernelCalls, v.r.stats.kernelCalls) << what;
  EXPECT_EQ(t.r.messagesSent, v.r.messagesSent) << what;
  EXPECT_EQ(t.r.bytesSent, v.r.bytesSent) << what;
  EXPECT_EQ(t.r.ownershipTransfers, v.r.ownershipTransfers) << what;
  EXPECT_EQ(t.r.makespan, v.r.makespan) << what;
}

/// The kernel against its own per-op copy: all of the above, plus the
/// hook calls and the split counters.
void expectSameAsPerOp(const KernelRun& p, const KernelRun& v,
                       const std::string& what) {
  expectSameRun(p, v, what);
  EXPECT_EQ(p.hookCalls, v.hookCalls) << what;
  EXPECT_EQ(p.r.stats.rangeSplits, v.r.stats.rangeSplits) << what;
  EXPECT_EQ(p.r.stats.guardedItersSaved, v.r.stats.guardedItersSaved)
      << what;
  EXPECT_EQ(p.fused, 0u) << what;
}

/// A random program around one pure loop, split (`iown`-guarded) or plain,
/// whose body is one to four rank-1 element assignments: affine subscripts
/// a*i + b, values over element reads, literals, invariant real, int, bool
/// and undefined scalars and the loop scalar, with real divisions that may
/// divide by zero, int divisions that can trap, and a pending receive.
std::string randomKernelProgram(Rng& rng) {
  const int procs = static_cast<int>(rng.range(1, 3));
  const Index nb = rng.range(6, 12);  // elements per processor
  const Index n = nb * procs;
  auto pick = [&](std::initializer_list<const char*> xs) {
    return std::string(*(xs.begin() + rng.below(xs.size())));
  };
  auto dist = [&] {
    return rng.below(5) != 0 ? std::string("BLOCK")
                             : pick({"CYCLIC", "CYCLIC(2)", "CYCLIC(3)"});
  };
  const std::string N = std::to_string(n), NB = std::to_string(nb);
  std::string t = "procs " + std::to_string(procs) + "\n";
  t += "array A f64 [1:" + N + "] (" + dist() + ")\n";
  t += "array B i64 [1:" + N + "] (" + dist() + ")\n";
  t += "array C f64 [1:" + N + "] (" + dist() + ")\n";
  t += "array H f64 [0:" + std::to_string(procs - 1) + "] (BLOCK)\n\n";
  t += "fill(A[1:" + N + "], C[1:" + N + "])\n";
  t += "do i = 1, " + N +
       "\n  iown(B[i]) : {\n    w = i\n    B[i] = 3 * w - 7\n  }\nenddo\n";
  t += "x = " + pick({"0.5", "-1.25", "3.0", "0.0"}) + "\n";
  t += "k = " + pick({"2", "-3", "0", "1"}) + "\n";
  t += "z = (k > 1)\n";
  const bool pending = procs > 1 && rng.below(6) == 0;
  if (pending) t += "(mypid > 0) : { H[mypid] <- A[1] }\n";

  const char* arrays[] = {"A", "B", "C"};
  auto sub = [&] {
    const Index a = rng.below(6) == 0 ? rng.range(2, 3) : 1;
    const Index b = rng.below(2) == 0 ? 0 : rng.range(-2, 2);
    std::string s = a == 1 ? "i" : std::to_string(a) + " * i";
    if (b > 0) s += " + " + std::to_string(b);
    if (b < 0) s += " - " + std::to_string(-b);
    if (rng.below(8) == 0) s += " + k - k";
    return s;
  };
  auto read = [&] {
    if (pending && rng.below(4) == 0) return std::string("H[mypid]");
    return std::string(arrays[rng.below(3)]) + "[" + sub() + "]";
  };
  std::function<std::string(int)> value = [&](int depth) -> std::string {
    if (depth == 0 || rng.below(3) == 0) {
      switch (rng.below(9)) {
        case 0: return pick({"0.25", "2", "-1.5", "7"});
        case 1: return pick({"x", "k", "z"});
        case 2: return rng.below(12) == 0 ? "u" : "x";
        case 3: return "i";
        default: return read();
      }
    }
    switch (rng.below(6)) {
      case 0: return "-(" + value(depth - 1) + ")";
      case 1: return "(" + value(depth - 1) + ") / (" + value(depth - 1) + ")";
      case 2: return "(" + value(depth - 1) + ") * (" + value(depth - 1) + ")";
      case 3: return "(" + value(depth - 1) + ") - (" + value(depth - 1) + ")";
      default: return "(" + value(depth - 1) + ") + (" + value(depth - 1) + ")";
    }
  };
  auto sum = [&] {  // the sum-of-scaled-loads form
    std::string s;
    const int terms = static_cast<int>(rng.range(1, 4));
    for (int k = 0; k < terms; ++k) {
      if (k) s += rng.below(4) == 0 ? " - " : " + ";
      const std::string c = pick({"0.25", "0.5", "x", "k", "2"});
      const std::string r = rng.below(8) == 0 ? "i" : read();
      s += rng.below(5) == 0 ? r
                             : (rng.below(2) ? c + " * " + r : r + " * " + c);
    }
    return s;
  };

  const bool split = rng.below(2) == 0;
  const Index step = rng.range(1, 3);
  std::string lo, hi;
  if (rng.below(3) == 0) {  // every element: some processor reads unowned
    lo = std::to_string(rng.range(1, 3));
    hi = std::to_string(rng.range(n - 2, n));
  } else {  // inside this processor's block of a BLOCK array, as a halo
    lo = NB + " * mypid + " + std::to_string(rng.range(3, 4));
    hi = NB + " * mypid + " + std::to_string(nb - rng.range(2, 3));
  }
  const int assigns = static_cast<int>(rng.range(1, 4));
  std::string body, guard;
  for (int a = 0; a < assigns; ++a) {
    const std::string target =
        std::string(arrays[rng.below(3)]) + "[" + sub() + "]";
    if (a == 0) guard = rng.below(4) != 0 ? target : read();
    const std::string v =
        rng.below(2) ? sum() : value(static_cast<int>(rng.range(1, 3)));
    body += "    " + target + " = " + v + "\n";
  }
  t += "do i = " + lo + ", " + hi +
       (step > 1 ? ", " + std::to_string(step) : std::string()) + "\n";
  if (split)
    t += "  iown(" + guard + ") : {\n" + body + "  }\n";
  else
    t += body;
  t += "enddo\n";
  if (pending) {
    t += "(mypid == 0) : { A[1] -> }\n";
    t += "(mypid > 0) : { await(H[mypid]) }\n";
  }
  return t;
}

TEST(VmDifferential, LoopKernelCorpusMatchesOracle) {
  constexpr int kPrograms = 700;
  Rng rng(20260);
  int fused = 0, compiled = 0;
  for (int c = 0; c < kPrograms; ++c) {
    const std::string text = randomKernelProgram(rng);
    il::Program prog;
    try {
      prog = il::parseProgram(text);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unparsable corpus program: " << e.what() << "\n"
                    << text;
      continue;
    }
    const bc::Module m = bc::compile(prog);
    compiled += m.kernels.empty() ? 0 : 1;
    const bool debug = rng.below(2) == 0, hook = rng.below(3) != 0;
    const KernelRun v = runKernelProgram(prog, Engine::Vm, debug, hook);
    const KernelRun p = runKernelProgram(prog, Engine::VmPerOp, debug, hook);
    const std::string what = "program " + std::to_string(c) + " (debug " +
                             std::to_string(debug) + ", hook " +
                             std::to_string(hook) + "):\n" + text;
    expectSameAsPerOp(p, v, what);
    // The walker never splits, so it calls the hook for guards the split
    // skips, and it credits no counters ahead: compare whole runs only.
    const KernelRun t = runKernelProgram(prog, Engine::Walker, debug, hook);
    if (t.error.empty() || v.error.empty()) expectSameRun(t, v, what);
    fused += v.fused > 0 ? 1 : 0;
    if (HasFailure()) break;
  }
  EXPECT_GE(compiled, 300);
  EXPECT_GE(fused, 100);
}

TEST(VmDifferential, LoopKernelHookThrowsAtEveryStep) {
  // A halo-shaped split loop and a plain loop over it: for every step k
  // the hook throws at, the kernel leaves the counters and the table
  // exactly as its per-op copy does.
  const il::Program prog = il::parseProgram(R"(procs 2
array U f64 [1:16] (BLOCK)
array V f64 [1:16] (BLOCK)
fill(U[1:16], V[1:16])
do i = 8 * mypid + 2, 8 * mypid + 7
  iown(U[i]) : { U[i] = 0.25 * U[i - 1] + 0.5 * U[i] + 0.25 * U[i + 1] }
enddo
do i = 8 * mypid + 1, 8 * mypid + 8
  V[i] = V[i] * 0.5 + U[i]
  U[i] = V[i] - i
enddo
)");
  const KernelRun full = runKernelProgram(prog, Engine::Vm, true, true);
  ASSERT_TRUE(full.error.empty()) << full.error;
  ASSERT_EQ(full.fused, 4u);
  for (std::uint64_t k = 1; k <= full.hookCalls; ++k) {
    const KernelRun p = runKernelProgram(prog, Engine::VmPerOp, true, true, k);
    const KernelRun v = runKernelProgram(prog, Engine::Vm, true, true, k);
    EXPECT_NE(v.error.find("hook stop"), std::string::npos) << v.error;
    expectSameAsPerOp(p, v, "throw at step " + std::to_string(k));
  }
}

TEST(VmDifferential, LoopKernelWithMoreTermsThanAccesses) {
  // A bare loop-scalar term takes no access, so a body of short sums can
  // carry more terms (here 17 and 18) than a kernel has accesses (16):
  // they run in the sum form, or on the tape when every operator is an
  // int one, and match the per-op copy and the walker.
  const std::string head = R"(procs 2
array A f64 [1:16] (BLOCK)
array C f64 [1:16] (BLOCK)
array B i64 [1:16] (BLOCK)
do i = 1, 16
  iown(A[i]) : {
    A[i] = 0.5 * i
    C[i] = 0.25 * i
    B[i] = i
  }
enddo
)";
  const std::string loop = "do i = 8 * mypid + 2, 8 * mypid + 7\n";
  const char* bodies[] = {
      // 9 + 8 terms over two loads, in the sum form.
      "  A[i] = C[i] + i + i + i + i + i + i + i + i\n"
      "  C[i] = A[i] + i + i + i + i + i + i + i\n",
      // 9 + 8 int terms: the tape runs them.
      "  A[i] = i + i + i + i + i + i + i + i + i\n"
      "  B[i] = i + i + i + i + i + i + i + i\n",
      // 5 + 5 + 4 + 4 terms over four assignments.
      "  A[i] = C[i - 1] + i + i + i + i\n"
      "  C[i] = A[i] + i + i + i + i\n"
      "  B[i] = B[i] + i + i + i\n"
      "  A[i] = C[i + 1] + i + A[i] - i\n",
  };
  for (const char* body : bodies) {
    for (const bool split : {false, true}) {
      const std::string text =
          head + loop +
          (split ? "  iown(A[i]) : {\n" + std::string(body) + "  }\n"
                 : std::string(body)) +
          "enddo\n";
      const il::Program prog = il::parseProgram(text);
      const bc::Module m = bc::compile(prog);
      std::size_t terms = 0;
      for (const bc::KernelSite& ks : m.kernels)
        terms = std::max(terms, ks.terms.size());
      EXPECT_GE(terms, 17u) << text;
      for (const bool hook : {false, true}) {
        const std::string what = text + "hook " + std::to_string(hook);
        const KernelRun v = runKernelProgram(prog, Engine::Vm, true, hook);
        const KernelRun p =
            runKernelProgram(prog, Engine::VmPerOp, true, hook);
        const KernelRun t =
            runKernelProgram(prog, Engine::Walker, true, hook);
        EXPECT_TRUE(v.error.empty()) << what << v.error;
        EXPECT_EQ(v.fused, 4u) << what;  // the fill and the loop, per pid
        expectSameAsPerOp(p, v, what);
        expectSameRun(t, v, what);
      }
    }
  }
}

TEST(VmDifferential, InnerLoopsCompileToTheLoopKernel) {
  // serve's six program shapes (perfbench's halo and ring corpus on four
  // processors), jacobi.xdp and BM_StencilExec's program: every inner
  // element loop is one LoopKernel op ahead of its per-op copy.
  auto kernels = [](const il::Program& prog) {
    const bc::Module m = bc::compile(prog);
    const std::string dis = bc::disassemble(m);
    std::size_t ops = 0;
    for (std::size_t at = dis.find("LoopKernel"); at != std::string::npos;
         at = dis.find("LoopKernel", at + 1))
      ++ops;
    EXPECT_EQ(ops, m.kernels.size());
    return m.kernels.size();
  };
  for (const auto& [block, sweeps] :
       {std::pair{256, 20}, {96, 60}, {1024, 8}, {48, 120}})
    EXPECT_EQ(kernels(il::parseProgram(testprog::haloText(4, block, sweeps))),
              1u);
  for (const auto& [block, steps] : {std::pair{32, 80}, {128, 24}})
    EXPECT_EQ(kernels(il::parseProgram(testprog::ringText(4, block, steps))),
              1u);
  EXPECT_EQ(kernels(loadExample("jacobi.xdp")), 1u);
  // BM_StencilExec: an initializing loop and the sweep's inner loop.
  const il::Program stencil = il::parseProgram(R"(procs 4
array A f64 [1:256] (BLOCK)
do i = 1, 256
  iown(A[i]) : { A[i] = 0.1 * i }
enddo
do t = 1, 8
  do i = 1, 256
    iown(A[i]) : { A[i] = A[i] + 1.0 }
  enddo
enddo
)");
  EXPECT_EQ(kernels(stencil), 2u);
}

TEST(VmDifferential, I64StoreOutOfRangeRaisesOnBothEngines) {
  // A real beyond int64 or not finite has no i64 value: both engines
  // raise one UsageError at the same step instead of storing whatever
  // llround returns, in the kernel and on the per-op path alike.
  const std::string head = "procs 1\narray A i64 [1:4] (BLOCK)\n";
  const char* cases[] = {
      "A[1] = 1.0e300\n",
      "A[2] = 0.0 / 0.0\n",
      "A[3] = 9223372036854775807\n",
      "do i = 1, 4\n  A[i] = 1.0e18 * (i * 4)\nenddo\n",
  };
  for (const char* body : cases) {
    const il::Program prog = il::parseProgram(head + body);
    const KernelRun t = runKernelProgram(prog, Engine::Walker, false, true);
    const KernelRun v = runKernelProgram(prog, Engine::Vm, false, true);
    const KernelRun p = runKernelProgram(prog, Engine::VmPerOp, false, true);
    EXPECT_NE(t.error.find("i64 element store out of range"),
              std::string::npos)
        << body << t.error;
    expectSameRun(t, v, body);
    expectSameAsPerOp(p, v, body);
    EXPECT_EQ(t.hookCalls, v.hookCalls) << body;
  }
  // In range stays f64-mediated: 2^63 - 1024 is representable.
  const KernelRun ok = runKernelProgram(
      il::parseProgram(head + "A[1] = -9223372036854775807 - 1\n"
                              "A[2] = 9223372036854774784\n"),
      Engine::Vm, false, false);
  EXPECT_TRUE(ok.error.empty()) << ok.error;
}

/// How a program fails on one engine: the exception's type, its message
/// without source prefixes, the step-hook calls and executed statements.
struct Failure {
  std::string type, what;
  std::uint64_t hookCalls = 0, stmts = 0;
};

Failure failureOf(const il::Program& prog, Backend be) {
  Failure f;
  InterpOptions io;
  io.backend = be;
  io.stepHook = [&f](rt::Proc&) { ++f.hookCalls; };
  Interpreter in(prog, {}, io);
  in.registerKernel("fill", fillOwned);
  try {
    in.run();
  } catch (const std::exception& e) {
    f.type = typeid(e).name();
    f.what = withoutSourceRefs(e.what());
  }
  f.stmts = in.totalStats().stmtsExecuted;
  return f;
}

void expectSameFailure(const il::Program& prog, const std::string& what) {
  const Failure t = failureOf(prog, Backend::TreeWalk);
  const Failure v = failureOf(prog, Backend::Bytecode);
  EXPECT_NE(t.what.find("use of undefined universal scalar: u"),
            std::string::npos)
      << what << t.what;
  EXPECT_EQ(t.type, typeid(UsageError).name()) << what << t.what;
  EXPECT_EQ(t.type, v.type) << what;
  EXPECT_EQ(t.what, v.what) << what;
  EXPECT_EQ(t.hookCalls, v.hookCalls) << what;
  EXPECT_EQ(t.stmts, v.stmts) << what;
}

TEST(VmDifferential, UndefinedScalarIsTheSameUsageErrorOnBothEngines) {
  // Hot and cold uses of a never-assigned scalar in a statement, a loop
  // bound and a guard rule.
  const std::string head =
      "procs 2\narray A f64 [1:8] (BLOCK)\nfill(A[1:8])\nx = 1\n";
  const char* cases[] = {
      "y = x + u\n",
      "y = mylb(A[1:u], 0)\n",
      "do i = 1, u\n  A[1] = 1.0\nenddo\n",
      "do i = mylb(A[1:8], 0), u * 2\n  A[1] = 1.0\nenddo\n",
      "(x < u) : { A[1] = 2.0 }\n",
      "(mylb(A[1:8], 0) < u) : { A[1] = 2.0 }\n",
  };
  for (const char* body : cases)
    expectSameFailure(il::parseProgram(head + body), body);
}

TEST(VmDifferential, SplitSiteWithAnUndefinedScalarFailsWhereTheWalkerDoes) {
  // The guard subscript reads a scalar that was never assigned: the range
  // split must not evaluate it ahead of the loop, so both engines raise
  // at the first iteration's guard.
  expectSameFailure(il::parseProgram(R"(procs 2
array A f64 [1:8] (BLOCK)
do i = 1, 4
  iown(A[i + u]) : { A[i] = 1.0 }
enddo
)"),
                    "rank 1");
  expectSameFailure(il::parseProgram(R"(procs 2
array B f64 [1:4,1:4] (BLOCK,*)
do i = 1, 4
  iown(B[i, u + 1]) : { B[i, 1] = 1.0 }
enddo
)"),
                    "rank 2");
}

TEST(VmDifferential, ServeHooksThatCannotActChangeNothing) {
  // With no quota a session installs no hooks; with a step quota it can
  // never reach it installs both. The two runs must be identical.
  auto run = [](std::uint64_t maxSteps) {
    serve::SessionRequest req;
    req.source = testprog::haloText(4, 96, 12);
    req.quotas.maxSteps = maxSteps;
    const serve::SessionReport r = serve::runSession(req, {}, 1);
    EXPECT_EQ(r.outcome, serve::SessionOutcome::Completed) << r.error;
    return r;
  };
  const serve::SessionReport free = run(0);
  const serve::SessionReport quota = run(std::uint64_t{1} << 63);
  EXPECT_EQ(free.resultDigest, quota.resultDigest);
  const InterpStats& a = free.stats;
  const InterpStats& b = quota.stats;
  EXPECT_EQ(a.rulesEvaluated, b.rulesEvaluated);
  EXPECT_EQ(a.rulesTrue, b.rulesTrue);
  EXPECT_EQ(a.stmtsExecuted, b.stmtsExecuted);
  EXPECT_EQ(a.loopIterations, b.loopIterations);
  EXPECT_EQ(a.elemAssigns, b.elemAssigns);
  EXPECT_EQ(a.kernelCalls, b.kernelCalls);
  EXPECT_EQ(a.guardCacheHits, b.guardCacheHits);
  EXPECT_EQ(a.rangeSplits, b.rangeSplits);
  EXPECT_EQ(a.guardedItersSaved, b.guardedItersSaved);
  EXPECT_EQ(a.fusedLoops, b.fusedLoops);
  EXPECT_EQ(free.net.messagesSent, quota.net.messagesSent);
  EXPECT_EQ(free.net.bytesSent, quota.net.bytesSent);
  EXPECT_EQ(free.net.messagesReceived, quota.net.messagesReceived);
  EXPECT_EQ(free.net.bytesReceived, quota.net.bytesReceived);
  EXPECT_EQ(free.net.rendezvousSends, quota.net.rendezvousSends);
  EXPECT_EQ(free.net.directSends, quota.net.directSends);
  EXPECT_EQ(free.net.unexpectedMessages, quota.net.unexpectedMessages);
  EXPECT_EQ(free.net.ownershipTransfers, quota.net.ownershipTransfers);
  EXPECT_EQ(free.makespan, quota.makespan);
}

}  // namespace
}  // namespace xdp::interp
