// Random sequential programs for the pipeline fuzzer (test_pipeline_fuzz)
// and the analysis golden test (test_analysis_golden): random
// distributions, a random affine rhs over several arrays, and an integer
// preamble drawn from an extreme constant pool. A FuzzCase is a pure
// function of its seed, so both suites see the same programs.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "xdp/dist/distribution.hpp"
#include "xdp/il/program.hpp"
#include "xdp/support/rng.hpp"

namespace xdp::opt::fuzz {

struct FuzzCase {
  sec::Index n;
  int nprocs;
  std::uint64_t seed;
  std::vector<dist::Distribution> dists;  // one per array (A = lhs first)
  // rhs = sum over terms of coef * X[i], where X is one of the arrays.
  struct Term {
    int sym;
    double coef;
  };
  std::vector<Term> terms;
  double bias = 0.0;
  // Integer preamble: z = (((c0 op1 c1) op2 c2) ...) with wrap semantics,
  // then zm = z mod 7 is added into every element (zm is small, so the
  // f64 arithmetic stays exact).
  std::vector<sec::Index> ints;   // c0..cK, from the extreme pool
  std::vector<il::BinOp> intOps;  // op1..opK: Add/Sub/Mul
  bool zeroTripTrap = false;      // add `do zz = 1, 0: V0[1] = 1/0`
};

inline dist::Distribution randomDist(Rng& rng, const sec::Section& g,
                                     int nprocs) {
  switch (rng.below(3)) {
    case 0:
      return dist::Distribution(g, {dist::DimSpec::block(nprocs)});
    case 1:
      return dist::Distribution(g, {dist::DimSpec::cyclic(nprocs)});
    default:
      return dist::Distribution(
          g, {dist::DimSpec::blockCyclic(
                 nprocs, static_cast<sec::Index>(rng.range(1, 4)))});
  }
}

inline FuzzCase randomCase(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.seed = seed;
  fc.n = rng.range(8, 40);
  fc.nprocs = static_cast<int>(rng.range(2, 4));
  sec::Section g{sec::Triplet(1, fc.n)};
  const int nArrays = static_cast<int>(rng.range(2, 4));
  for (int a = 0; a < nArrays; ++a)
    fc.dists.push_back(randomDist(rng, g, fc.nprocs));
  const int nTerms = static_cast<int>(rng.range(1, 3));
  for (int t = 0; t < nTerms; ++t) {
    FuzzCase::Term term;
    term.sym = static_cast<int>(rng.below(static_cast<std::uint64_t>(nArrays)));
    term.coef = static_cast<double>(rng.range(-3, 3));
    if (term.coef == 0) term.coef = 1.0;
    fc.terms.push_back(term);
  }
  fc.bias = static_cast<double>(rng.range(-5, 5)) * 0.25;

  const sec::Index kPool[] = {std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max(),
                              -1,
                              0,
                              1,
                              rng.range(-100, 100)};
  const std::size_t nInts = static_cast<std::size_t>(rng.range(2, 4));
  for (std::size_t k = 0; k < nInts; ++k)
    fc.ints.push_back(kPool[rng.below(std::size(kPool))]);
  const il::BinOp kOps[] = {il::BinOp::Add, il::BinOp::Sub, il::BinOp::Mul};
  for (std::size_t k = 0; k + 1 < nInts; ++k)
    fc.intOps.push_back(kOps[rng.below(std::size(kOps))]);
  fc.zeroTripTrap = rng.below(2) == 0;
  return fc;
}

inline il::Program buildCase(const FuzzCase& fc) {
  il::Program prog;
  prog.nprocs = fc.nprocs;
  sec::Section g{sec::Triplet(1, fc.n)};
  std::vector<std::pair<int, il::SectionExprPtr>> fills;
  for (std::size_t a = 0; a < fc.dists.size(); ++a) {
    prog.addArray({"V" + std::to_string(a), rt::ElemType::F64, g,
                   fc.dists[a], {}});
  }
  auto whole = il::secLit(
      {il::TripletExpr{il::intConst(1), il::intConst(fc.n), {}}});
  for (std::size_t a = 0; a < fc.dists.size(); ++a)
    fills.emplace_back(static_cast<int>(a), whole);
  il::ExprPtr i = il::scalar("i");
  auto ai = il::secPoint({i});
  il::ExprPtr rhs = il::realConst(fc.bias);
  for (const auto& t : fc.terms)
    rhs = il::add(rhs, il::mul(il::realConst(t.coef),
                               il::elem(t.sym, il::secPoint({i}))));
  rhs = il::add(rhs, il::scalar("zm"));

  il::ExprPtr z = il::intConst(fc.ints[0]);
  for (std::size_t k = 0; k < fc.intOps.size(); ++k)
    z = il::bin(fc.intOps[k], std::move(z), il::intConst(fc.ints[k + 1]));
  std::vector<il::StmtPtr> body;
  body.push_back(il::kernel("fill", fills));
  body.push_back(il::scalarAssign("z", std::move(z)));
  body.push_back(il::scalarAssign(
      "zm", il::bin(il::BinOp::Mod, il::scalar("z"), il::intConst(7))));
  if (fc.zeroTripTrap) {
    // Never executes; no pass and no backend may turn the trapping
    // division into a fault.
    body.push_back(il::forLoop(
        "zz", il::intConst(1), il::intConst(0),
        il::block({il::elemAssign(
            0, il::secPoint({il::intConst(1)}),
            il::bin(il::BinOp::Div, il::intConst(1), il::intConst(0)))})));
  }
  body.push_back(il::forLoop("i", il::intConst(1), il::intConst(fc.n),
                             il::block({il::elemAssign(0, ai, rhs)})));
  prog.body = il::block(std::move(body));
  return prog;
}

}  // namespace xdp::opt::fuzz
