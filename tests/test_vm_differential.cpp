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
