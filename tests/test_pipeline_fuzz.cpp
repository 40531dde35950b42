// Differential fuzzing of the whole compiler: random sequential programs
// (random distributions, random affine-rhs expressions over several
// arrays, plus an integer preamble drawn from an extreme constant pool)
// are lowered and pushed through randomized pass orderings; every variant
// must compute exactly the result of direct sequential evaluation.
//
// Three-way oracle per stage: the closed-form expected values (computed
// with the same xdp::arith wrap helpers the compiler uses), the
// tree-walking interpreter, and the bytecode VM must all agree — on
// element values and on the logical execution counters.
//
// The extreme pool (INT64_MIN, INT64_MAX, -1, 0) exercises the wrap-
// modulo-2^64 semantics of Add/Sub/Mul through every pass (const-fold
// must wrap exactly like the runtime), and the optional zero-trip loop
// wraps a trapping division the program never executes — no stage may
// speculate it into a fault.
//
// The static verifier rides along as a second oracle: every stage that
// executes correctly must also verify with zero errors, so a verifier
// false positive (or a pass bug the runtime masks) fails here.
#include <gtest/gtest.h>

#include <cmath>

#include "xdp/analysis/verifier.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/printer.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/support/arith.hpp"

#include "fuzz_case.hpp"

namespace xdp::opt {
namespace {

using fuzz::buildCase;
using fuzz::FuzzCase;
using fuzz::randomCase;
using interp::Backend;
using interp::Interpreter;
using sec::Index;
using sec::Point;
using sec::Section;
using sec::Triplet;

/// The preamble's final small value, via the same wrap helpers the
/// interpreter, the VM and the const-folder share.
Index preambleValue(const FuzzCase& fc) {
  Index z = fc.ints[0];
  for (std::size_t k = 0; k < fc.intOps.size(); ++k) {
    switch (fc.intOps[k]) {
      case il::BinOp::Add:
        z = arith::wrapAdd(z, fc.ints[k + 1]);
        break;
      case il::BinOp::Sub:
        z = arith::wrapSub(z, fc.ints[k + 1]);
        break;
      default:
        z = arith::wrapMul(z, fc.ints[k + 1]);
        break;
    }
  }
  return *arith::tryFoldMod(z, 7);
}

double expectedAt(const FuzzCase& fc, Index i) {
  Point pt{i};
  double v = fc.bias + static_cast<double>(preambleValue(fc));
  for (const auto& t : fc.terms)
    v += t.coef * apps::cellValueAt(fc.seed, t.sym, pt);
  return v;
}

struct BackendRun {
  std::vector<double> vals;
  interp::InterpStats stats;
};

BackendRun runOn(const il::Program& prog, const FuzzCase& fc, Backend be) {
  rt::RuntimeOptions opts;
  opts.debugChecks = true;
  interp::InterpOptions io;
  io.backend = be;
  Interpreter in(prog, opts, io);
  apps::registerFillKernel(in, fc.seed);
  in.run();
  BackendRun r;
  r.vals = apps::gatherF64(in.runtime(), 0, Section{Triplet(1, fc.n)});
  r.stats = in.totalStats();
  EXPECT_EQ(in.runtime().fabric().undeliveredCount(), 0u);
  EXPECT_EQ(in.runtime().fabric().pendingReceiveCount(), 0u);
  return r;
}

void runAndCheck(const il::Program& prog, const FuzzCase& fc,
                 const char* stage) {
  analysis::VerifyResult vr = analysis::verifyProgram(prog);
  EXPECT_EQ(vr.errors(), 0u)
      << stage << " seed " << fc.seed << ": verifier false positive\n"
      << analysis::formatDiagnostics(prog, vr) << il::printProgram(prog);
  BackendRun tree = runOn(prog, fc, Backend::TreeWalk);
  BackendRun vm = runOn(prog, fc, Backend::Bytecode);
  for (Index i = 1; i <= fc.n; ++i) {
    const auto k = static_cast<std::size_t>(i - 1);
    ASSERT_NEAR(tree.vals[k], expectedAt(fc, i), 1e-12)
        << stage << " seed " << fc.seed << " element " << i << "\n"
        << il::printProgram(prog);
    ASSERT_EQ(tree.vals[k], vm.vals[k])
        << stage << " seed " << fc.seed << " element " << i
        << ": backends diverge\n"
        << il::printProgram(prog);
  }
  EXPECT_EQ(tree.stats.stmtsExecuted, vm.stats.stmtsExecuted) << stage;
  EXPECT_EQ(tree.stats.loopIterations, vm.stats.loopIterations) << stage;
  EXPECT_EQ(tree.stats.rulesEvaluated, vm.stats.rulesEvaluated) << stage;
  EXPECT_EQ(tree.stats.rulesTrue, vm.stats.rulesTrue) << stage;
  EXPECT_EQ(tree.stats.elemAssigns, vm.stats.elemAssigns) << stage;
  EXPECT_EQ(tree.stats.kernelCalls, vm.stats.kernelCalls) << stage;
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, EveryStageMatchesSequentialSemantics) {
  for (std::uint64_t k = 0; k < 6; ++k) {
    FuzzCase fc = randomCase(GetParam() * 1000 + k);
    il::Program seq = buildCase(fc);
    il::Program lowered = lowerOwnerComputes(seq);
    runAndCheck(lowered, fc, "lowered");
    il::Program folded = constantFolding(lowered);
    runAndCheck(folded, fc, "const-fold");
    il::Program rte = redundantTransferElimination(lowered);
    runAndCheck(rte, fc, "rte");
    il::Program clean = deadArrayElimination(rte);
    // deadArrayElimination may renumber; lhs is still symbol 0 ("V0").
    runAndCheck(clean, fc, "dead-array-elim");
    il::Program bound = commBinding(clean);
    runAndCheck(bound, fc, "bound");
    // Vectorization/CRE apply only to single-rectangle partitions; they
    // must leave other programs untouched-but-correct either way.
    il::Program vec = messageVectorization(clean);
    runAndCheck(vec, fc, "vectorized");
    il::Program cre = computeRuleElimination(vec);
    runAndCheck(cre, fc, "cre");
    il::Program hoisted = recvHoisting(cre);
    runAndCheck(hoisted, fc, "hoisted");
    il::Program full = commBinding(hoisted);
    runAndCheck(full, fc, "full");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace xdp::opt
