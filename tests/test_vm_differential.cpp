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

#include <cstring>
#include <fstream>
#include <sstream>

#include "xdp/apps/programs.hpp"
#include "xdp/il/flat.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/serve/session.hpp"

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
  const bc::Module m = bc::compile(il::flat::flatten(prog));
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

TEST(VmDifferential, ResidencyHookKeepsTheElementLease) {
  // A step hook that reads the table on every step (serve's quota hook
  // samples residentBytes) leaves pure loops their element lease; the run
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
  bc::Module m = bc::compile(il::flat::flatten(prog));
  EXPECT_GT(m.hotStmts, 0u);
  std::string dis = bc::disassemble(m);
  EXPECT_NE(dis.find("ForEnter"), std::string::npos);
  EXPECT_NE(dis.find("hot="), std::string::npos);
  EXPECT_EQ(m.fp.nprocs, prog.nprocs);
}

}  // namespace
}  // namespace xdp::interp
