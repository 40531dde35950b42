// Property tests for the static cost model: over random owner-computes
// programs (random BLOCK/CYCLIC/CYCLIC(b) distributions, random affine
// rhs over several arrays — a lean cousin of test_pipeline_fuzz), the
// model's totals must be *bit-exact* against the fabric's NetStats
// counters whenever the analysis claims exactness, on both execution
// backends — and the placement lower bound must never exceed the bytes
// any placement actually moved. One false byte in either direction fails
// the case with the seed and program printed.
#include <gtest/gtest.h>

#include <string>

#include "xdp/analysis/cost.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/printer.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/support/rng.hpp"

namespace xdp::analysis {
namespace {

using interp::Backend;
using interp::Interpreter;
using sec::Index;
using sec::Section;
using sec::Triplet;

struct FuzzCase {
  Index n = 0;
  int nprocs = 0;
  std::uint64_t seed = 0;
  std::vector<dist::Distribution> dists;  // one per array (lhs first)
  std::vector<int> rhsSyms;               // arrays read at [i + offset]
  std::vector<Index> rhsOffsets;          // empty: every offset is 0
};

dist::Distribution randomDist(Rng& rng, const Section& g, int nprocs) {
  switch (rng.below(3)) {
    case 0:
      return dist::Distribution(g, {dist::DimSpec::block(nprocs)});
    case 1:
      return dist::Distribution(g, {dist::DimSpec::cyclic(nprocs)});
    default:
      return dist::Distribution(
          g, {dist::DimSpec::blockCyclic(
                 nprocs, static_cast<Index>(rng.range(1, 4)))});
  }
}

FuzzCase randomCase(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.seed = seed;
  fc.n = rng.range(8, 40);
  fc.nprocs = static_cast<int>(rng.range(2, 4));
  Section g{Triplet(1, fc.n)};
  const int nArrays = static_cast<int>(rng.range(2, 4));
  for (int a = 0; a < nArrays; ++a)
    fc.dists.push_back(randomDist(rng, g, fc.nprocs));
  const int nTerms = static_cast<int>(rng.range(1, 3));
  for (int t = 0; t < nTerms; ++t)
    fc.rhsSyms.push_back(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(nArrays))));
  return fc;
}

/// randomCase's program with each read at X[i - 1], X[i] or X[i + 1],
/// drawn from a stream of its own so randomCase's draws do not move.
FuzzCase randomOffsetCase(std::uint64_t seed) {
  FuzzCase fc = randomCase(seed);
  Rng rng(seed ^ 0x5bd1e995u);
  for (std::size_t t = 0; t < fc.rhsSyms.size(); ++t)
    fc.rhsOffsets.push_back(rng.range(-1, 1));
  return fc;
}

il::Program buildCase(const FuzzCase& fc) {
  il::Program prog;
  prog.nprocs = fc.nprocs;
  Section g{Triplet(1, fc.n)};
  for (std::size_t a = 0; a < fc.dists.size(); ++a)
    prog.addArray({"V" + std::to_string(a), rt::ElemType::F64, g,
                   fc.dists[a], {}});
  auto whole = il::secLit(
      {il::TripletExpr{il::intConst(1), il::intConst(fc.n), {}}});
  std::vector<std::pair<int, il::SectionExprPtr>> fills;
  for (std::size_t a = 0; a < fc.dists.size(); ++a)
    fills.emplace_back(static_cast<int>(a), whole);
  il::ExprPtr i = il::scalar("i");
  il::ExprPtr rhs = il::realConst(0.25);
  for (std::size_t t = 0; t < fc.rhsSyms.size(); ++t) {
    const Index o = fc.rhsOffsets.empty() ? 0 : fc.rhsOffsets[t];
    il::ExprPtr at = il::scalar("i");
    if (o != 0) at = il::add(at, il::intConst(o));
    rhs = il::add(rhs, il::elem(fc.rhsSyms[t], il::secPoint({at})));
  }
  // Offset reads stay inside the arrays.
  const Index edge = fc.rhsOffsets.empty() ? 0 : 1;
  std::vector<il::StmtPtr> body;
  body.push_back(il::kernel("fill", fills));
  body.push_back(
      il::forLoop("i", il::intConst(1 + edge), il::intConst(fc.n - edge),
                  il::block({il::elemAssign(0, il::secPoint({i}), rhs)})));
  prog.body = il::block(std::move(body));
  return prog;
}

struct Measured {
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
};

Measured runOn(const il::Program& prog, const FuzzCase& fc, Backend be) {
  rt::RuntimeOptions opts;
  opts.debugChecks = true;
  interp::InterpOptions io;
  io.backend = be;
  Interpreter in(prog, opts, io);
  apps::registerFillKernel(in, fc.seed);
  in.run();
  EXPECT_EQ(in.runtime().fabric().undeliveredCount(), 0u);
  auto net = in.runtime().fabric().totalStats();
  Measured m;
  m.bytes = static_cast<std::int64_t>(net.bytesSent);
  m.messages = static_cast<std::int64_t>(net.messagesSent);
  return m;
}

void checkCase(const il::Program& lowered, const il::Program& pre,
               const FuzzCase& fc, const char* stage) {
  const CostReport r = analyzeCost(lowered, pre);
  const Measured tree = runOn(lowered, fc, Backend::TreeWalk);
  const Measured vm = runOn(lowered, fc, Backend::Bytecode);
  ASSERT_EQ(tree.bytes, vm.bytes)
      << stage << " seed " << fc.seed << ": backends diverge on bytes\n"
      << il::printProgram(lowered);
  ASSERT_EQ(tree.messages, vm.messages)
      << stage << " seed " << fc.seed << ": backends diverge on messages\n"
      << il::printProgram(lowered);
  if (r.exact) {
    EXPECT_EQ(r.bytesMoved, tree.bytes)
        << stage << " seed " << fc.seed << ": static bytes != NetStats\n"
        << il::printProgram(lowered);
    EXPECT_EQ(r.messages, tree.messages)
        << stage << " seed " << fc.seed << ": static msgs != NetStats\n"
        << il::printProgram(lowered);
  }
  // The lower bound is a bound on ANY placement, so in particular on
  // this one — measured traffic can never sit below it.
  EXPECT_LE(r.lowerBound(), tree.bytes)
      << stage << " seed " << fc.seed << ": lower bound above measured\n"
      << il::printProgram(lowered);
}

class CostFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CostFuzz, StaticModelMatchesNetStatsOnBothBackends) {
  for (std::uint64_t k = 0; k < 8; ++k) {
    FuzzCase fc = randomCase(GetParam() * 1000 + k);
    il::Program seq = buildCase(fc);
    il::Program lowered = opt::lowerOwnerComputes(seq);
    checkCase(lowered, seq, fc, "lowered");
    opt::PassManager pm;
    for (const opt::Pass& p : opt::standardPipeline()) pm.add(p.name, p.fn);
    il::Program full = pm.run(seq, nullptr);
    checkCase(full, seq, fc, "pipeline");
  }
}

TEST_P(CostFuzz, OffsetReadsMatchNetStatsAfterThePipeline) {
  // Reads at X[i - 1] and X[i + 1] give names with consumers on two
  // processors; the lowered stage can then deadlock (ROADMAP item 2), so
  // only the final pipeline stage runs. Its transfer loops take the
  // verifier's summary, whose aggregated cost events must still equal
  // NetStats exactly.
  std::uint64_t summarized = 0;
  for (std::uint64_t k = 0; k < 8; ++k) {
    FuzzCase fc = randomOffsetCase(GetParam() * 1000 + k);
    il::Program seq = buildCase(fc);
    opt::PassManager pm;
    for (const opt::Pass& p : opt::standardPipeline()) pm.add(p.name, p.fn);
    il::Program full = pm.run(seq, nullptr);
    EXPECT_TRUE(analyzeCost(full, seq).exact) << il::printProgram(full);
    checkCase(full, seq, fc, "pipeline");
    summarized += verifyProgram(full).loopsSummarized;
  }
  EXPECT_GT(summarized, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostFuzz,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace xdp::analysis
