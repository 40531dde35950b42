// Unit tests for the static communication-cost analyzer (DESIGN.md §10):
// exact byte/message totals on hand-countable programs, the three event
// classes (data = payload bytes, ownership = zero bytes, ownership+value
// = payload bytes), send-to-set fanout, conditional sends degrading the
// model to inexact, the parametric lower-bound closed form on shift
// sweeps, and the checked byte arithmetic rejecting overflowing extents.
#include <gtest/gtest.h>

#include <string>

#include "xdp/analysis/cost.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/support/check.hpp"

namespace xdp::analysis {
namespace {

CostReport costOf(const std::string& src) {
  il::Program prog = il::parseProgram(src);
  return analyzeCost(prog);
}

// Processor 0 sends its left half of A (4 f64 elements = 32 bytes) to
// processor 1; fully decidable, so the model is exact.
const char* kSimpleTransfer = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";

TEST(CostModel, ExactBytesOnSimpleTransfer) {
  CostReport r = costOf(kSimpleTransfer);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.bytesMoved, 32);
  EXPECT_EQ(r.messages, 1);
  ASSERT_EQ(r.perProc.size(), 2u);
  EXPECT_EQ(r.perProc[0].bytes, 32);
  EXPECT_EQ(r.perProc[0].messages, 1);
  EXPECT_EQ(r.perProc[1].bytes, 0);
  ASSERT_FALSE(r.perStmt.empty());
  EXPECT_EQ(r.perStmt[0].cls, CostClass::Data);
  EXPECT_TRUE(r.perStmt[0].definite);
  EXPECT_TRUE(r.perStmt[0].loc.valid());
}

TEST(CostModel, PureOwnershipTransferMovesZeroBytes) {
  CostReport r = costOf(R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] => {1} }
(mypid == 1) : { A[1:4] <= }
)");
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.bytesMoved, 0);  // ownership messages carry no payload
  EXPECT_EQ(r.messages, 1);
  ASSERT_FALSE(r.perStmt.empty());
  EXPECT_EQ(r.perStmt[0].cls, CostClass::Own);
}

TEST(CostModel, OwnershipAndValueCountsPayloadBytes) {
  CostReport r = costOf(R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -=> {1} }
(mypid == 1) : { A[1:4] <=- }
)");
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.bytesMoved, 32);
  EXPECT_EQ(r.messages, 1);
  ASSERT_FALSE(r.perStmt.empty());
  EXPECT_EQ(r.perStmt[0].cls, CostClass::OwnVal);
}

TEST(CostModel, SendToSetFansOutPerDestination) {
  CostReport r = costOf(R"(procs 3
array A f64 [1:9] (BLOCK)
array B f64 [1:9] (BLOCK)

fill(A[1:9], B[1:9])
(mypid == 0) : { A[1:3] -> {1, 2} }
(mypid > 0) : {
  B[3 * mypid + 1 : 3 * mypid + 3] <- A[1:3]
  await(B[3 * mypid + 1 : 3 * mypid + 3])
}
)");
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.messages, 2);        // one fabric message per destination
  EXPECT_EQ(r.bytesMoved, 2 * 24);  // payload counted per destination
}

TEST(CostModel, SelfSendIsCounted) {
  // The fabric counts self-sends like any other message; so does the model.
  CostReport r = costOf(R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : {
  A[1:4] -> {0}
  B[1:4] <- A[1:4]
  await(B[1:4])
}
)");
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.bytesMoved, 32);
  EXPECT_EQ(r.messages, 1);
}

TEST(CostModel, EmptySectionTransferIsFree) {
  // The runtime skips empty-section sends entirely (no message, no bytes).
  CostReport r = costOf(R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[4:3] -> {1} }
(mypid == 1) : { A[4:3] <- A[4:3] }
)");
  EXPECT_EQ(r.bytesMoved, 0);
  EXPECT_EQ(r.messages, 0);
}

TEST(CostModel, UnknownGuardMakesTheModelInexact) {
  // The guard reads an array value the abstract interpreter does not
  // track, so the send under it is conditional: excluded from the exact
  // totals and the report is flagged inexact.
  CostReport r = costOf(R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
x = 0.0
(mypid == 0) : { x = A[5] }
(x > 0.5) : { A[1:4] -> {1} }
(mypid == 1) : { A[5:8] <- A[1:4] }
)");
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.bytesMoved, 0);  // the conditional send is not totalled
  bool sawConditional = false;
  for (const StmtCost& s : r.perStmt) sawConditional |= !s.definite;
  EXPECT_TRUE(sawConditional);
}

TEST(CostModel, LoopMultipliesEventCounts) {
  CostReport r = costOf(R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
do t = 1, 3
  (mypid == 0) : { A[1:4] -> {1} }
  (mypid == 1) : {
    B[5:8] <- A[1:4]
    await(B[5:8])
  }
enddo
)");
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.bytesMoved, 3 * 32);
  EXPECT_EQ(r.messages, 3);
}

TEST(CostModel, ParametricBoundOnShiftSweep) {
  // do i = 2,64: A[i] = A[i-1] + A[i] over BLOCK(4) on 64 elements:
  // the window V = [1:64] spans q = 4 blocks and the offset is delta = 1,
  // so at least q - delta = 3 boundary elements must cross a processor
  // boundary under ANY placement: 24 bytes.
  il::Program prog = il::parseProgram(R"(procs 4
array A f64 [1:64] (BLOCK)

fill(A[1:64])
do i = 2, 64
  A[i] = A[i - 1] + A[i]
enddo
)");
  EXPECT_EQ(parametricLowerBound(prog), 3 * 8);
}

TEST(CostModel, ParametricBoundScalesWithOuterRepetitions) {
  // An outer time loop re-runs the sweep; after the first sweep only the
  // interior cuts (q - 2*delta) are forced per repetition.
  il::Program prog = il::parseProgram(R"(procs 4
array A f64 [1:64] (BLOCK)

fill(A[1:64])
do t = 1, 3
  do i = 2, 64
    A[i] = A[i - 1] + A[i]
  enddo
enddo
)");
  // (q - delta) + (reps - 1) * (q - 2*delta) = 3 + 2 * 2 = 7 elements.
  EXPECT_EQ(parametricLowerBound(prog), 7 * 8);
}

TEST(CostModel, ParametricBoundIsZeroWithoutCrossIterationReuse) {
  // A pure elementwise sweep (vecadd) pins nothing: an aligned placement
  // moves zero bytes, and the bound must agree.
  il::Program prog = il::parseProgram(R"(procs 4
array A f64 [1:64] (BLOCK)
array B f64 [1:64] (CYCLIC)

fill(A[1:64], B[1:64])
do i = 1, 64
  A[i] = A[i] + B[i]
enddo
)");
  EXPECT_EQ(parametricLowerBound(prog), 0);
}

TEST(CostModel, LowerBoundNeverExceedsModeledBytes) {
  const char* sources[] = {kSimpleTransfer};
  for (const char* src : sources) {
    il::Program prog = il::parseProgram(src);
    CostReport r = analyzeCost(prog);
    EXPECT_LE(r.lowerBound(), r.bytesMoved) << src;
  }
}

TEST(CostModel, PctOfOptimalClampsAndHandlesZero) {
  CostReport r;
  r.bytesMoved = 0;
  r.invariantBound = 0;
  EXPECT_DOUBLE_EQ(r.pctOfOptimal(), 100.0);
  r.bytesMoved = 200;
  r.invariantBound = 100;
  EXPECT_DOUBLE_EQ(r.pctOfOptimal(), 50.0);
  r.invariantBound = 400;  // a bound above the model would read as >100%
  EXPECT_DOUBLE_EQ(r.pctOfOptimal(), 100.0);
}

TEST(CostModel, OverflowingPayloadRaisesUsageError) {
  // 2e18 elements * 8 bytes overflows int64; the checked multiply must
  // raise a reportable UsageError, not wrap silently.
  il::Program prog = il::parseProgram(R"(procs 2
array A f64 [1:2000000000000000000] (BLOCK)

(mypid == 0) : { A[1:2000000000000000000] -> {1} }
(mypid == 1) : { A[1:2000000000000000000] <- A[1:2000000000000000000] }
)");
  EXPECT_THROW(analyzeCost(prog), UsageError);
}

TEST(CostModel, OverflowingSectionIsNotAnExactZero) {
  // 2^32 x 2^32 elements per transfer: the element count leaves Index.
  // Both analyzers must go inexact rather than skip the send and the
  // receive as empty and claim an exact 0 bytes.
  il::Program prog = il::parseProgram(R"(procs 2
array A f64 [0:4294967295, 0:4294967295] (BLOCK, *)
array B f64 [0:4294967295, 0:4294967295] (BLOCK, *)

(mypid == 0) : { A[0:4294967295, 0:4294967295] -> {1} }
(mypid == 1) : {
  B[0:4294967295, 0:4294967295] <- A[0:4294967295, 0:4294967295]
}
)");
  const CostReport r = analyzeCost(prog);
  EXPECT_FALSE(r.exact);
  EXPECT_NE(formatCostReport(prog, r).find("lower estimate"),
            std::string::npos);
  EXPECT_FALSE(verifyProgram(prog).exhaustive);
}

TEST(CostModel, ExtremeLoopBoundsDoNotOverflow) {
  // Trip counts and widened sweep ends past INT64 range: a trip count
  // beyond Index makes the loop unanalyzable, and the sweep window is
  // clamped to the array before any arithmetic can wrap. None of these
  // sweeps pins a transfer, so the bound is 0 (UBSan flags the old
  // overflows under the asan preset).
  const char* loops[] = {
      "do i = -4611686018427387904, 4611686018427387904\n"
      "  A[i] = A[i - 1] + A[i]\n",
      "do i = 9223372036854775800, 9223372036854775806\n"
      "  A[i] = A[i + 2]\n",
      "do i = -9223372036854775807, -9223372036854775801\n"
      "  A[i] = A[i - 2]\n",
      "do i = 1, 4611686018427387905\n"
      "  A[i] = A[i + 4611686018427387904]\n",
  };
  for (const char* loop : loops) {
    il::Program prog = il::parseProgram(
        std::string("procs 4\narray A f64 [1:64] (BLOCK)\n\n") + loop +
        "enddo\n");
    EXPECT_EQ(parametricLowerBound(prog), 0) << loop;
  }
}

TEST(CostModel, LoweredVecaddMatchesHandCount) {
  // The standard pipeline lowers the misaligned vecadd to guarded sends;
  // with A BLOCK and B CYCLIC on 4 procs every non-aligned B element
  // travels once after message vectorization: 48 elements in 12 messages.
  il::Program pre = il::parseProgram(R"(procs 4
array A f64 [1:64] (BLOCK)
array B f64 [1:64] (CYCLIC)

fill(A[1:64], B[1:64])
do i = 1, 64
  A[i] = A[i] + B[i]
enddo
)");
  opt::PassManager pm;
  for (const opt::Pass& p : opt::standardPipeline()) pm.add(p.name, p.fn);
  il::Program low = pm.run(pre, nullptr);
  CostReport r = analyzeCost(low, pre);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.bytesMoved, 384);
  EXPECT_EQ(r.messages, 12);
  EXPECT_LE(r.lowerBound(), r.bytesMoved);
}

}  // namespace
}  // namespace xdp::analysis
