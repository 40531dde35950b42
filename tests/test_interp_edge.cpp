// Interpreter edge cases: destination resolution, empty-section transfer
// elision, loop semantics, i64 arrays, and error surfaces.
#include <gtest/gtest.h>

#include <limits>

#include "xdp/apps/programs.hpp"
#include "xdp/interp/interpreter.hpp"

namespace xdp::interp {
namespace {

using dist::DimSpec;
using dist::Distribution;
using il::ExprPtr;
using sec::Section;
using sec::Triplet;

rt::RuntimeOptions debug() {
  rt::RuntimeOptions o;
  o.debugChecks = true;
  return o;
}

il::Program base(int nprocs, Index n, il::StmtPtr body,
                 rt::ElemType type = rt::ElemType::F64) {
  il::Program prog;
  prog.nprocs = nprocs;
  Section g{Triplet(1, n)};
  prog.addArray({"A", type, g, Distribution(g, {DimSpec::block(nprocs)}), {}});
  prog.body = std::move(body);
  return prog;
}

TEST(InterpEdge, OwnerOfDestinationResolvesAtRuntime) {
  // Send bound to "owner of A[k]" where k is a loop variable.
  il::Program prog = base(
      4, 16,
      il::block({il::forLoop(
          "k", il::intConst(1), il::intConst(16),
          il::block({
              il::guarded(
                  il::iown(0, il::secPoint({il::scalar("k")})),
                  il::block({il::sendData(
                      0, il::secPoint({il::scalar("k")}),
                      il::DestSpec::ownerOf(
                          0, il::secPoint(
                                 {il::add(il::scalar("k"),
                                          il::intConst(0))})))})),
              il::guarded(
                  il::iown(0, il::secPoint({il::scalar("k")})),
                  il::block(
                      {il::recvData(0, il::secPoint({il::scalar("k")}), 0,
                                    il::secPoint({il::scalar("k")})),
                       il::awaitStmt(0, il::secPoint({il::scalar("k")}))})),
          }))}));
  Interpreter in(prog, debug());
  in.run();  // self-sends bound to the correct owner; all matched
  EXPECT_EQ(in.runtime().fabric().undeliveredCount(), 0u);
  EXPECT_EQ(in.runtime().fabric().totalStats().directSends, 16u);
}

TEST(InterpEdge, OwnerOfSpanningProcessorsIsAnError) {
  il::Program prog = base(
      4, 16,
      il::block({il::guarded(
          il::bin(il::BinOp::Eq, il::mypid(), il::intConst(0)),
          il::block({il::sendData(
              0, il::secPoint({il::intConst(1)}),
              il::DestSpec::ownerOf(
                  0, il::secRange1(il::intConst(1), il::intConst(16))))}))}));
  Interpreter in(prog, debug());
  EXPECT_THROW(in.run(), xdp::Error);
}

TEST(InterpEdge, EmptySectionTransfersAreElided) {
  // Intersections that come out empty produce no traffic and no errors.
  auto emptySec = il::secIntersect(
      il::secRange1(il::intConst(1), il::intConst(4)),
      il::secRange1(il::intConst(10), il::intConst(12)));
  il::Program prog =
      base(2, 16,
           il::block({il::sendData(0, emptySec),
                      il::recvData(0, emptySec, 0, emptySec),
                      il::sendOwn(0, emptySec, true),
                      il::recvOwn(0, emptySec, true),
                      il::awaitStmt(0, emptySec)}));
  Interpreter in(prog, debug());
  in.run();
  EXPECT_EQ(in.runtime().fabric().totalStats().messagesSent, 0u);
}

TEST(InterpEdge, LoopBoundsEvaluatedOnEntry) {
  // Changing `n` inside the loop must not change the trip count.
  il::Program prog = base(
      1, 4,
      il::block({
          il::scalarAssign("n", il::intConst(3)),
          il::scalarAssign("count", il::intConst(0)),
          il::forLoop("i", il::intConst(1), il::scalar("n"),
                      il::block({
                          il::scalarAssign("n", il::intConst(100)),
                          il::scalarAssign(
                              "count",
                              il::add(il::scalar("count"), il::intConst(1))),
                      })),
          il::elemAssign(0, il::secPoint({il::intConst(1)}),
                         il::scalar("count")),
      }));
  Interpreter in(prog, debug());
  in.run();
  auto vals = apps::gatherF64(in.runtime(), 0, Section{Triplet(1, 4)});
  EXPECT_DOUBLE_EQ(vals[0], 3.0);
}

TEST(InterpEdge, StridedLoopVisitsEveryStepOnce) {
  il::Program prog = base(
      1, 4,
      il::block({
          il::scalarAssign("acc", il::intConst(0)),
          il::forLoop("i", il::intConst(1), il::intConst(10),
                      il::block({il::scalarAssign(
                          "acc", il::add(il::scalar("acc"), il::scalar("i")))}),
                      il::intConst(3)),
          il::elemAssign(0, il::secPoint({il::intConst(1)}),
                         il::scalar("acc")),
      }));
  Interpreter in(prog, debug());
  in.run();
  auto vals = apps::gatherF64(in.runtime(), 0, Section{Triplet(1, 4)});
  EXPECT_DOUBLE_EQ(vals[0], 1 + 4 + 7 + 10);
}

TEST(InterpEdge, I64ArraysRoundAssignedReals) {
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(0, il::secPoint({il::intConst(1)}),
                                il::realConst(2.6))}),
      rt::ElemType::I64);
  Interpreter in(prog, debug());
  in.run();
  rt::Proc p(in.runtime(), 0);
  // llround(2.6) == 3.
  std::vector<std::int64_t> v =
      in.runtime().table(0).iown(0, Section{Triplet(1)})
          ? [&] {
              std::vector<std::int64_t> out(1);
              in.runtime().table(0).readElems(
                  0, Section{Triplet(1)},
                  reinterpret_cast<std::byte*>(out.data()));
              return out;
            }()
          : std::vector<std::int64_t>{};
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 3);
}

TEST(InterpEdge, ComplexElementAccessViaExprIsAnError) {
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(0, il::secPoint({il::intConst(1)}),
                                il::realConst(1.0))}),
      rt::ElemType::C128);
  Interpreter in(prog, debug());
  EXPECT_THROW(in.run(), xdp::Error);  // c128 needs kernels
}

TEST(InterpEdge, NonIntegralIndexIsAnError) {
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(0, il::secPoint({il::realConst(1.5)}),
                                il::realConst(0.0))}));
  Interpreter in(prog, debug());
  EXPECT_THROW(in.run(), xdp::Error);
}

TEST(InterpEdge, OutOfRangeIndexIsAnError) {
  // Doubles beyond int64 range must be rejected, not fed to llround (UB).
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(0, il::secPoint({il::realConst(1e300)}),
                                il::realConst(0.0))}));
  Interpreter in(prog, debug());
  EXPECT_THROW(in.run(), xdp::UsageError);
}

TEST(InterpEdge, NonFiniteIndexIsAnError) {
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(
          0,
          il::secPoint({il::bin(il::BinOp::Div, il::realConst(0.0),
                                il::realConst(0.0))}),  // NaN
          il::realConst(0.0))}));
  Interpreter in(prog, debug());
  EXPECT_THROW(in.run(), xdp::UsageError);
}

// --- arithmetic edge semantics (identical on both backends) --------------
//
// Signed semantics are defined once in xdp/support/arith.hpp: Add/Sub/
// Mul/Neg wrap modulo 2^64; Div/Mod trap on divisor zero AND on
// INT64_MIN / -1 (the one overflowing division) — previously signed-
// overflow UB in the C++ `/` and `%` the interpreter used directly.

class ArithEdge : public ::testing::TestWithParam<Backend> {
 protected:
  InterpOptions iopts() {
    InterpOptions io;
    io.backend = GetParam();
    return io;
  }
  std::int64_t runReadI64(il::Program prog) {
    Interpreter in(std::move(prog), debug(), iopts());
    in.run();
    std::int64_t out = 0;
    in.runtime().table(0).readElems(0, Section{Triplet(1)},
                                    reinterpret_cast<std::byte*>(&out));
    return out;
  }
  double runReadF64(il::Program prog) {
    Interpreter in(std::move(prog), debug(), iopts());
    in.run();
    return apps::gatherF64(in.runtime(), 0, Section{Triplet(1, 4)})[0];
  }
};

constexpr Index kMin = std::numeric_limits<std::int64_t>::min();
constexpr Index kMax = std::numeric_limits<std::int64_t>::max();

TEST_P(ArithEdge, DivOverflowRaisesUsageError) {
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(
          0, il::secPoint({il::intConst(1)}),
          il::bin(il::BinOp::Div, il::intConst(kMin), il::intConst(-1)))}));
  Interpreter in(prog, debug(), iopts());
  EXPECT_THROW(in.run(), xdp::UsageError);
}

TEST_P(ArithEdge, ModOverflowRaisesUsageError) {
  il::Program prog = base(
      1, 4,
      il::block({il::elemAssign(
          0, il::secPoint({il::intConst(1)}),
          il::bin(il::BinOp::Mod, il::intConst(kMin), il::intConst(-1)))}));
  Interpreter in(prog, debug(), iopts());
  EXPECT_THROW(in.run(), xdp::UsageError);
}

TEST_P(ArithEdge, DivModByZeroRaiseUsageError) {
  for (il::BinOp op : {il::BinOp::Div, il::BinOp::Mod}) {
    il::Program prog = base(
        1, 4,
        il::block({il::elemAssign(
            0, il::secPoint({il::intConst(1)}),
            il::bin(op, il::intConst(7), il::intConst(0)))}));
    Interpreter in(prog, debug(), iopts());
    EXPECT_THROW(in.run(), xdp::UsageError);
  }
}

TEST_P(ArithEdge, AddSubMulNegWrapModulo2Pow64) {
  auto i64prog = [](il::ExprPtr rhs) {
    return base(1, 4,
                il::block({il::elemAssign(0, il::secPoint({il::intConst(1)}),
                                          std::move(rhs))}),
                rt::ElemType::I64);
  };
  // INT64_MIN is exactly representable as a double, so the f64-mediated
  // i64 store path preserves it bit-for-bit.
  EXPECT_EQ(runReadI64(i64prog(il::add(il::intConst(kMax), il::intConst(1)))),
            kMin);
  // kMin - 1024 wraps to 2^63 - 1024, a representable double (the f64
  // spacing in [2^62, 2^63) is exactly 1024); kMax itself is not.
  EXPECT_EQ(
      runReadI64(i64prog(il::sub(il::intConst(kMin), il::intConst(1024)))),
      kMax - 1023);
  EXPECT_EQ(runReadI64(
                i64prog(il::mul(il::intConst(kMin), il::intConst(-1)))),
            kMin);
  EXPECT_EQ(runReadI64(i64prog(il::neg(il::intConst(kMin)))), kMin);
}

TEST_P(ArithEdge, LoopNearInt64MaxTerminates) {
  // `i + step` overflows past INT64_MAX on the last iteration; the
  // termination test must decide on remaining distance, not on i + step.
  il::Program prog = base(
      1, 4,
      il::block({
          il::scalarAssign("c", il::intConst(0)),
          il::forLoop("i", il::intConst(kMax - 3), il::intConst(kMax),
                      il::block({il::scalarAssign(
                          "c", il::add(il::scalar("c"), il::intConst(1)))}),
                      il::intConst(2)),
          il::elemAssign(0, il::secPoint({il::intConst(1)}), il::scalar("c")),
      }));
  EXPECT_DOUBLE_EQ(runReadF64(std::move(prog)), 2.0);  // i = MAX-3, MAX-1
}

TEST_P(ArithEdge, LoopAtInt64MaxRunsOnce) {
  il::Program prog = base(
      1, 4,
      il::block({
          il::scalarAssign("c", il::intConst(0)),
          il::forLoop("i", il::intConst(kMax), il::intConst(kMax),
                      il::block({il::scalarAssign(
                          "c", il::add(il::scalar("c"), il::intConst(1)))})),
          il::elemAssign(0, il::secPoint({il::intConst(1)}), il::scalar("c")),
      }));
  EXPECT_DOUBLE_EQ(runReadF64(std::move(prog)), 1.0);
}

TEST_P(ArithEdge, TrappingDivisorUnderFalseGuardNeverEvaluated) {
  // The statically-false guard must skip the division on every schedule
  // (naive, range-split, bytecode) — a trap here would be a fault the
  // original program does not have.
  il::Program prog = base(
      2, 8,
      il::block({il::forLoop(
          "i", il::intConst(1), il::intConst(8),
          il::block({il::guarded(
              il::bin(il::BinOp::Gt, il::intConst(1), il::intConst(2)),
              il::block({il::elemAssign(
                  0, il::secPoint({il::scalar("i")}),
                  il::bin(il::BinOp::Div, il::intConst(1),
                          il::intConst(0)))}))}))}));
  Interpreter in(prog, debug(), iopts());
  EXPECT_NO_THROW(in.run());
  EXPECT_EQ(in.totalStats().rulesTrue, 0u);
}

TEST_P(ArithEdge, ZeroTripLoopSkipsTrappingBody) {
  il::Program prog = base(
      1, 4,
      il::block({il::forLoop(
          "i", il::intConst(5), il::intConst(2),
          il::block({il::elemAssign(
              0, il::secPoint({il::intConst(1)}),
              il::bin(il::BinOp::Div, il::intConst(1), il::intConst(0)))}))}));
  Interpreter in(prog, debug(), iopts());
  EXPECT_NO_THROW(in.run());
  EXPECT_EQ(in.totalStats().loopIterations, 0u);
  // A zero-trip owner-computes loop whose guard reads a never-assigned
  // scalar: the VM's split coefficients must not be evaluated either.
  il::Program guarded = base(
      1, 4,
      il::block({il::forLoop(
          "i", il::intConst(5), il::intConst(2),
          il::guarded(
              il::iown(0, il::secPoint({il::add(il::scalar("i"),
                                                il::scalar("unset"))})),
              il::block({il::elemAssign(0, il::secPoint({il::scalar("i")}),
                                        il::intConst(1))})))}));
  Interpreter g(guarded, debug(), iopts());
  EXPECT_NO_THROW(g.run());
  EXPECT_EQ(g.totalStats().rulesEvaluated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ArithEdge,
                         ::testing::Values(Backend::TreeWalk,
                                           Backend::Bytecode));

TEST(InterpEdge, DivisionInGuardSubscriptBlocksRangeSplit) {
  // The VM's split must refuse Div/Mod: hoisting one to split time would
  // move a potential trap onto a schedule position the naive schedule
  // doesn't have. A division in the guard subscript therefore forces the
  // guard-per-iteration path (correct result, zero splits). Both VM runs
  // must match the reference walker's naive schedule.
  auto build = [](il::ExprPtr offset) {
    return base(
        2, 16,
        il::block({il::forLoop(
            "i", il::intConst(1), il::intConst(14),
            il::block({il::guarded(
                il::iown(0, il::secPoint({il::add(il::scalar("i"),
                                                  std::move(offset))})),
                il::block({il::elemAssign(
                    0,
                    il::secPoint({il::add(il::scalar("i"), il::intConst(2))}),
                    il::intConst(1))}))}))}));
  };
  // Positive control: an affine subscript does range-split.
  Interpreter split(build(il::intConst(2)), debug());
  split.run();
  EXPECT_GT(split.totalStats().rangeSplits, 0u);
  // Same subscript value via a (non-trapping) division: no split.
  Interpreter noSplit(
      build(il::bin(il::BinOp::Div, il::intConst(6), il::intConst(3))),
      debug());
  noSplit.run();
  EXPECT_EQ(noSplit.totalStats().rangeSplits, 0u);
  InterpOptions ref;
  ref.backend = Backend::TreeWalk;
  Interpreter naive(build(il::intConst(2)), debug(), ref);
  naive.run();
  EXPECT_EQ(naive.totalStats().rangeSplits, 0u);
  for (const Interpreter* vm : {&split, &noSplit}) {
    EXPECT_EQ(vm->totalStats().rulesTrue, naive.totalStats().rulesTrue);
    EXPECT_EQ(vm->totalStats().rulesEvaluated,
              naive.totalStats().rulesEvaluated);
    EXPECT_EQ(vm->totalStats().stmtsExecuted,
              naive.totalStats().stmtsExecuted);
  }
  auto want = apps::gatherF64(naive.runtime(), 0, Section{Triplet(1, 16)});
  EXPECT_EQ(apps::gatherF64(split.runtime(), 0, Section{Triplet(1, 16)}),
            want);
  EXPECT_EQ(apps::gatherF64(noSplit.runtime(), 0, Section{Triplet(1, 16)}),
            want);
}

TEST(InterpEdge, StatsResetWorks) {
  il::Program prog = base(
      2, 8,
      il::block({il::guarded(il::iown(0, il::secPoint({il::intConst(1)})),
                             il::block({}))}));
  Interpreter in(prog, debug());
  in.run();
  EXPECT_GT(in.totalStats().rulesEvaluated, 0u);
  in.resetStats();
  EXPECT_EQ(in.totalStats().rulesEvaluated, 0u);
}

}  // namespace
}  // namespace xdp::interp
