// Mutation tests for the static XDP verifier (xdp::analysis): a known-good
// two-processor transfer program is seeded with one defect per diagnostic
// class, and the verifier must (a) flag exactly that class, (b) anchor the
// diagnostic to the defective source line, and (c) keep the unmutated
// program spotless.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "xdp/analysis/cost.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/il/printer.hpp"
#include "xdp/support/rng.hpp"

#include "analysis_programs.hpp"

namespace xdp::analysis {
namespace {

VerifyResult verifySrc(const std::string& src) {
  il::Program prog = il::parseProgram(src);
  return verifyProgram(prog);
}

const Diagnostic* findKind(const VerifyResult& r, DiagKind k) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.kind == k) return &d;
  return nullptr;
}

std::string dump(const std::string& src, const VerifyResult& r) {
  il::Program prog = il::parseProgram(src);
  return formatDiagnostics(prog, r);
}

// Processor 0 sends its left half of A; processor 1 stages it into the
// tail of B and waits for it. Statically clean, fully decidable.
const char* kBase = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";

TEST(AnalysisMutations, BaseProgramIsCleanAndExhaustive) {
  VerifyResult r = verifySrc(kBase);
  EXPECT_TRUE(r.clean()) << dump(kBase, r);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_GT(r.stmtsAnalyzed, 0u);
}

TEST(AnalysisMutations, DroppedReceiveIsUnmatchedSend) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {1} }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::UnmatchedSend);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pid, 0);
  EXPECT_EQ(d->loc.line, 5);
}

TEST(AnalysisMutations, DroppedSendIsOrphanReceive) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::OrphanRecv);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pid, 1);
  EXPECT_EQ(d->loc.line, 7);
}

TEST(AnalysisMutations, DuplicatedSendIsUnmatchedSend) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : {
  A[1:4] -> {1}
  A[1:4] -> {1}
}
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";
  VerifyResult r = verifySrc(src);
  ASSERT_NE(findKind(r, DiagKind::UnmatchedSend), nullptr) << dump(src, r);
  EXPECT_EQ(findKind(r, DiagKind::OrphanRecv), nullptr) << dump(src, r);
}

TEST(AnalysisMutations, AwaitBeforeReceiveInitiationWarns) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  await(B[5:8])
  B[5:8] <- A[1:4]
}
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::AwaitMismatch);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->loc.line, 8);
  EXPECT_NE(d->message.find("precedes"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, AwaitOrderingWarnsOnlyWhenNoInstanceSynchronizes) {
  // The ring's await finds the processor's own block at step 0, a trivial
  // instance, but the same statement completes the block's re-receive on
  // every later step: it synchronizes, so the ring is clean.
  for (const std::string& src :
       {testprog::ringText(2, 32, 80), testprog::ringText(3, 8, 5)}) {
    VerifyResult r = verifySrc(src);
    EXPECT_TRUE(r.clean()) << dump(src, r);
  }
  // Every instance trivial: the seeded defect (one instance) and the same
  // await repeated in a loop both still warn.
  const char* once = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  await(B[5:8])
  B[5:8] <- A[1:4]
}
)";
  const char* looped = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  do k = 1, 3
    await(B[5:8])
  enddo
  B[5:8] <- A[1:4]
}
)";
  for (const char* src : {once, looped}) {
    VerifyResult r = verifySrc(src);
    const Diagnostic* d = findKind(r, DiagKind::AwaitMismatch);
    ASSERT_NE(d, nullptr) << dump(src, r);
    EXPECT_NE(d->message.find("precedes"), std::string::npos) << d->message;
  }
}

TEST(AnalysisMutations, SendOfUnownedSection) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[5:8] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[5:8]
  await(B[5:8])
}
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::SendUnowned);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pid, 0);
  EXPECT_EQ(d->loc.line, 6);
}

TEST(AnalysisMutations, OwnershipSentTwiceIsDoubleOwnership) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : {
  A[1:4] => {1}
  A[1:4] => {1}
}
(mypid == 1) : { A[1:4] <= }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::DoubleOwnership);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_NE(d->message.find("twice"), std::string::npos) << d->message;
  // The refused second send never leaves, so the 1:1 pairing is intact.
  EXPECT_EQ(findKind(r, DiagKind::UnmatchedSend), nullptr) << dump(src, r);
}

TEST(AnalysisMutations, OwnershipReceiveWhileStillOwned) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 1) : { A[5:8] <= }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::DoubleOwnership);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->pid, 1);
  EXPECT_NE(d->message.find("already owns"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, ReceiveIntoUnownedSection) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : { B[1:4] <- A[1:4] }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::NotAccessible);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->pid, 1);
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_NE(d->message.find("receive into"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, UseAfterOwnershipTransfer) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] => {1} }
(mypid == 1) : { A[1:4] <= }
(mypid == 0) : { A[2] = 1.0 }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::NotAccessible);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->pid, 0);
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_NE(d->message.find("transferred away"), std::string::npos)
      << d->message;
}

TEST(AnalysisMutations, ReadOfTransitionalSection) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  x = B[6] + 1.0
  await(B[5:8])
}
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::NotAccessible);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->loc.line, 9);
  EXPECT_NE(d->message.find("transitional"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, SizeMismatchedReceive) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:6] <- A[1:4]
  await(B[5:6])
}
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::TransferMismatch);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->loc.line, 8);
  EXPECT_NE(d->message.find("differ in size"), std::string::npos)
      << d->message;
}

TEST(AnalysisMutations, AwaitOfUnownedSectionWarns) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { await(A[5:8]) }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::AwaitMismatch);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_NE(d->message.find("does not own"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, SendDestinationOutOfRange) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {5} }
)";
  VerifyResult r = verifySrc(src);
  const Diagnostic* d = findKind(r, DiagKind::TransferMismatch);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_NE(d->message.find("outside"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, FormattedDiagnosticCarriesFileAndLine) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {1} }
)";
  il::Program prog = il::parseProgram(src);
  VerifyResult r = verifyProgram(prog);
  ASSERT_FALSE(r.clean());
  std::string line = formatDiagnostic(prog, r.diagnostics[0], "prog.xdp");
  EXPECT_NE(line.find("prog.xdp:5:"), std::string::npos) << line;
  EXPECT_NE(line.find("error:"), std::string::npos) << line;
  EXPECT_NE(line.find("[unmatched-send"), std::string::npos) << line;
}

TEST(AnalysisMutations, UnknownGuardDowngradesToWarningAndClearsExhaustive) {
  // The guard depends on an array value the analysis does not track, so
  // the violation inside it is possible-but-not-proven: Warning, and the
  // conditional send's matching group goes silent instead of guessing.
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
x = 0.0
(mypid == 1) : { x = A[5] }
(x > 0.5) : { A[1:4] -> {0} }
)";
  VerifyResult r = verifySrc(src);
  EXPECT_FALSE(r.exhaustive);
  const Diagnostic* d = findKind(r, DiagKind::SendUnowned);
  ASSERT_NE(d, nullptr) << dump(src, r);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(findKind(r, DiagKind::UnmatchedSend), nullptr) << dump(src, r);
}

TEST(AnalysisMutations, EmptySectionTransfersAreNoOps) {
  // Mirrors the runtime exactly: empty sends/receives/awaits do nothing,
  // so per-pid boundary guards that evaluate to empty sections are fine.
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
do i = 1, 0
  A[1:4] -> {1}
enddo
await(A[5:4])
)";
  VerifyResult r = verifySrc(src);
  EXPECT_TRUE(r.clean()) << dump(src, r);
}

TEST(AnalysisMutations, MatchingRespectsBoundDestinations) {
  // Two sends of the same message name to *different* bound destinations
  // and two receives: destination constraints make the pairing unique and
  // satisfiable, so no diagnostic.
  const char* src = R"(procs 3
array W f64 [0:0] (BLOCK:1)
array M f64 [0:2] (BLOCK)

fill(W[0:0], M[0:2])
(mypid == 0) : {
  W[0] -> {1}
  W[0] -> {2}
}
(mypid > 0) : {
  M[mypid] <- W[0]
  await(M[mypid])
}
)";
  VerifyResult r = verifySrc(src);
  EXPECT_TRUE(r.clean()) << dump(src, r);
}

TEST(AnalysisMutations, MatchingDetectsUnsatisfiableDestinations) {
  // Both sends are bound to processor 1, but only one receive exists
  // there; the second send can never be delivered.
  const char* src = R"(procs 3
array W f64 [0:0] (BLOCK:1)
array M f64 [0:2] (BLOCK)

fill(W[0:0], M[0:2])
(mypid == 0) : {
  W[0] -> {1}
  W[0] -> {1}
}
(mypid > 0) : {
  M[mypid] <- W[0]
  await(M[mypid])
}
)";
  VerifyResult r = verifySrc(src);
  EXPECT_NE(findKind(r, DiagKind::UnmatchedSend), nullptr) << dump(src, r);
  EXPECT_NE(findKind(r, DiagKind::OrphanRecv), nullptr) << dump(src, r);
}

TEST(AnalysisMutations, MatchingPairsBoundSendsPerDestination) {
  // Every send is bound, to two receiving processors: processor 1 has one
  // send too many, processor 2 three receives too many. Each processor's
  // surplus is reported on its own statement.
  const std::string src = testprog::kBoundSurplusText;
  VerifyResult r = verifySrc(src);
  EXPECT_EQ(dump(src, r),
            "8:5: error: send of [0:0] of 'W' has no matching receive: the "
            "message would go undelivered [unmatched-send, p0]\n"
            "14:5: error: receive of [0:0] of 'W' has no matching send: it "
            "never completes and awaiting it deadlocks [orphan-recv, p2]\n");
}

// --- scaling and arithmetic regressions ------------------------------------

TEST(AnalysisScaling, LargeRendezvousFarmVerifies) {
  // 20 000 unbound sends and 20 000 receives of one name form a single
  // matching group; pairing it must stay linear (the analysis label's ctest
  // TIMEOUT turns a complexity regression into a failure).
  for (int procs : {2, 4}) {
    il::Program prog = il::parseProgram(testprog::farmText(procs, 20000, 20000));
    VerifyResult r = verifyProgram(prog);
    EXPECT_TRUE(r.clean()) << formatDiagnostics(prog, r);
    EXPECT_TRUE(r.exhaustive);
  }
}

TEST(AnalysisScaling, LargeFarmSurplusKeepsItsDiagnostic) {
  for (int procs : {2, 4}) {
    const struct {
      sec::Index sends, recvs;
      DiagKind kind;
      int pid, line;
    } cases[] = {
        {20001, 20000, DiagKind::UnmatchedSend, 0, 8},        // extra send
        {20000, 19999, DiagKind::UnmatchedSend, 0, 8},        // missing recv
        {20000, 20001, DiagKind::OrphanRecv, procs - 1, 13},  // extra recv
    };
    for (const auto& c : cases) {
      const std::string src = testprog::farmText(procs, c.sends, c.recvs);
      VerifyResult r = verifySrc(src);
      ASSERT_EQ(r.diagnostics.size(), 1u) << dump(src, r);
      const Diagnostic& d = r.diagnostics[0];
      EXPECT_EQ(d.kind, c.kind) << dump(src, r);
      EXPECT_EQ(d.pid, c.pid) << dump(src, r);
      EXPECT_EQ(d.loc.line, c.line) << dump(src, r);
      EXPECT_EQ(d.message.find("times"), std::string::npos) << d.message;
    }
  }
}

TEST(AnalysisScaling, OwnershipRingMatchesInLinearTime) {
  // Each step moves every block one processor on with a bound send, so
  // each block's name group holds thousands of bound sends and receives
  // on two processors. Pairing them must stay linear: an augmenting-path
  // search here walks the matched pairs on every send and is cubic.
  const std::string src = testprog::ringText(2, 4, 8000);
  VerifyResult r = verifySrc(src);
  EXPECT_EQ(r.errors(), 0u) << dump(src, r);
  EXPECT_TRUE(r.exhaustive);
}

TEST(AnalysisOverflow, LoopEndingAtInt64MaxRunsExactly) {
  // `i += step` would overflow past INT64_MAX: each loop must stop after
  // its last in-range iteration (2 + 2 of them, so x == 4 and the guarded
  // send below runs), not wrap around and spin until the step budget.
  const char* src = R"(procs 1
array A f64 [1:4] (BLOCK)

x = 0
do i = 9223372036854775806, 9223372036854775807
  x = x + 1
enddo
do j = 9223372036854775800, 9223372036854775807, 5
  x = x + 1
enddo
(x == 4) : { A[1] -> {0} }
)";
  VerifyResult r = verifySrc(src);
  EXPECT_TRUE(r.exhaustive);
  ASSERT_EQ(r.diagnostics.size(), 1u) << dump(src, r);
  EXPECT_EQ(r.diagnostics[0].kind, DiagKind::UnmatchedSend);
  EXPECT_EQ(r.diagnostics[0].loc.line, 11);
}

// --- loop summaries ---------------------------------------------------------

TEST(AnalysisLoopSummary, ServeShapesSummarizeEveryInnerLoop) {
  // The serve workload's halo and ring run one element loop per sweep or
  // step on every processor, and each run is one summary. The step counts
  // are the ones per-iteration unrolling charges.
  const struct {
    std::string text;
    std::uint64_t loops, stmts;
  } cases[] = {
      {testprog::haloText(2, 256, 20), 20 * 2, 41246},
      {testprog::haloText(3, 64, 5), 5 * 3, 3989},
      {testprog::ringText(2, 32, 80), 80 * 2, 11680},
      {testprog::ringText(3, 16, 12), 12 * 3, 1476},
  };
  for (const auto& c : cases) {
    VerifyResult r = verifySrc(c.text);
    EXPECT_EQ(r.errors(), 0u) << dump(c.text, r);
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.loopsSummarized, c.loops) << c.text;
    EXPECT_EQ(r.stmtsAnalyzed, c.stmts) << c.text;
  }
}

TEST(AnalysisLoopSummary, FallbackCasesReportTheUnrolledDiagnostics) {
  // Every loop that could raise a diagnostic, or whose state the summary
  // cannot read, unrolls; the summarizable cases keep the same step count.
  for (const testprog::LoopCase& c : testprog::kLoopCases) {
    VerifyResult r = verifySrc(c.text);
    EXPECT_EQ(dump(c.text, r), c.diagnostics) << c.name;
    EXPECT_EQ(r.stmtsAnalyzed, c.stmts) << c.name;
    EXPECT_EQ(r.loopsSummarized, c.summarized) << c.name;
  }
}

TEST(AnalysisLoopSummary, BudgetRunningOutInsideALoopStopsWhereUnrollingStops) {
  // Unrolling stops at the first step past the budget, so a summary that
  // would cross it is not taken: every budget short of the whole run
  // stops at budget + 1 steps with exhaustive=false.
  const char* src = R"(procs 1
array A f64 [1:64] (BLOCK)

fill(A[1:64])
do i = 1, 64
  iown(A[i]) : { A[i] = 0.5 * A[i] }
enddo
)";
  il::Program prog = il::parseProgram(src);
  const VerifyResult whole = verifyProgram(prog);
  ASSERT_TRUE(whole.exhaustive);
  ASSERT_EQ(whole.loopsSummarized, 1u);
  for (std::uint64_t budget = 1; budget <= whole.stmtsAnalyzed; ++budget) {
    VerifyOptions opts;
    opts.maxSteps = budget;
    const VerifyResult r = verifyProgram(prog, opts);
    const bool enough = budget == whole.stmtsAnalyzed;
    EXPECT_EQ(r.stmtsAnalyzed, enough ? budget : budget + 1) << budget;
    EXPECT_EQ(r.exhaustive, enough) << budget;
    EXPECT_EQ(r.loopsSummarized, enough ? 1u : 0u) << budget;
  }
}

TEST(AnalysisLoopSummary, LoopVariableKeepsItsLastIteration) {
  // Both loops are summarized (the second is unguarded at the top level,
  // where element assignments are exempt); each leaves its variable at
  // the last iteration, not at ub, and the guarded sends that test it run.
  const char* src = R"(procs 1
array A f64 [1:64] (BLOCK)

fill(A[1:64])
do i = 1, 63, 5
  iown(A[i]) : { A[i] = 0.5 * A[i] }
enddo
do j = 9223372036854775800, 9223372036854775807, 5
  A[1] = 0.0
enddo
(i == 61) : { A[1] -> {0} }
(j == 9223372036854775805) : { A[2] -> {0} }
)";
  VerifyResult r = verifySrc(src);
  EXPECT_EQ(r.loopsSummarized, 2u);
  EXPECT_TRUE(r.exhaustive);
  ASSERT_EQ(r.diagnostics.size(), 2u) << dump(src, r);
  EXPECT_EQ(r.diagnostics[0].kind, DiagKind::UnmatchedSend);
  EXPECT_EQ(r.diagnostics[0].loc.line, 11);
  EXPECT_EQ(r.diagnostics[1].kind, DiagKind::UnmatchedSend);
  EXPECT_EQ(r.diagnostics[1].loc.line, 12);
}

/// A random element-only loop over two arrays on random placements,
/// optionally after a receive that leaves part of Y pending, and the same
/// program in a form the summary does not take but that unrolls to the
/// same steps and diagnostics: the guard reads `rule && (1 == 1)`, and an
/// unguarded body writes its target as the one-element range `X[s:s]`.
std::pair<std::string, std::string> randomLoop(std::uint64_t seed) {
  Rng rng(seed);
  static const char* kDists[] = {"BLOCK", "CYCLIC", "CYCLIC(2)", "CYCLIC(3)"};
  static const sec::Index kCoefs[] = {-2, -1, 1, 1, 1, 2, 3};
  const int procs = static_cast<int>(rng.range(1, 4));
  const sec::Index n = rng.range(8, 40);
  const sec::Index lb = rng.range(1, n);
  const sec::Index ub = lb + rng.range(0, n / 2);
  const sec::Index step = rng.range(1, 3);
  const std::string N = std::to_string(n);
  auto sub = [&] {  // a * i + b, mostly inside 1..n over the loop
    const sec::Index a = kCoefs[rng.below(7)];
    const sec::Index b = rng.range(1, n) - a * lb + rng.range(-1, 1);
    return std::to_string(a) + " * i + " + std::to_string(b);
  };
  std::string head = "procs " + std::to_string(procs) + "\n";
  head += std::string("array X f64 [1:") + N + "] (" + kDists[rng.below(4)] +
          ")\n";
  head += std::string("array Y f64 [1:") + N + "] (" + kDists[rng.below(4)] +
          ")\n\nfill(X[1:" + N + "], Y[1:" + N + "])\n";
  if (rng.below(3) == 0) {
    const std::string k = std::to_string(rng.range(1, n - 1));
    head += "(mypid == " + std::to_string(rng.below(procs)) + ") : { Y[" + k +
            ":" + k + " + 1] <- X[1:2] }\n";
  }
  const std::string x = sub(), y = sub();
  const std::string rhs = "0.5 * Y[" + y + "] + X[" + x + "]";
  const std::string loop = "do i = " + std::to_string(lb) + ", " +
                           std::to_string(ub) + ", " + std::to_string(step) +
                           "\n";
  switch (rng.below(4)) {
    case 0:
    case 1: {
      const std::string g =
          std::string(rng.below(2) ? "iown" : "accessible") + "(" +
          (rng.below(2) ? "X[" + x + "]" : "Y[" + sub() + "]") + ")";
      const std::string body = " : { X[" + x + "] = " + rhs + " }\nenddo\n";
      return {head + loop + "  " + g + body,
              head + loop + "  " + g + " && (1 == 1)" + body};
    }
    default: {
      // Unguarded: checked inside a guard, exempt at the top level.
      const bool inGuard = rng.below(3) != 0;
      const std::string open = inGuard ? "(mypid >= 0) : {\n" : "";
      const std::string close = inGuard ? "}\n" : "";
      return {head + open + loop + "  X[" + x + "] = " + rhs + "\nenddo\n" +
                  close,
              head + open + loop + "  X[" + x + ":" + x + "] = " + rhs +
                  "\nenddo\n" + close};
    }
  }
}

/// Diagnostics without their column, which the control form shifts.
std::string linesOf(const VerifyResult& r) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics)
    out += std::to_string(d.loc.line) + " p" + std::to_string(d.pid) + " " +
           kindName(d.kind) + " " + severityName(d.severity) + ": " +
           d.message + "\n";
  return out;
}

TEST(AnalysisLoopSummary, RandomLoopsMatchTheirUnrolledForm) {
  std::uint64_t summarized = 0, programs = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const auto [text, unrolled] = randomLoop(seed);
    const VerifyResult r = verifySrc(text);
    const VerifyResult u = verifySrc(unrolled);
    ASSERT_EQ(u.loopsSummarized, 0u) << unrolled;
    EXPECT_EQ(linesOf(r), linesOf(u)) << text;
    EXPECT_EQ(r.stmtsAnalyzed, u.stmtsAnalyzed) << text;
    EXPECT_EQ(r.exhaustive, u.exhaustive) << text;
    summarized += r.loopsSummarized;
    programs += r.loopsSummarized > 0;
  }
  // Enough of the corpus takes the summary for the comparison to bite.
  EXPECT_GE(programs, 100u) << summarized;
}

/// Faults seeded into a transfer loop (see transferLoop).
enum class Fault {
  None,
  MissingAwait,  // the consumer reads T0 before awaiting it
  SendUnowned,   // a sender sends its neighbour's point
  RecvUnowned,   // the consumer receives into T0[0]
  WrongOwner,    // a send bound to the owner of a later consumer
  SurplusRecv,   // the consumer receives its first name twice
  TrivialAwait,  // await(T0[mypid]) before the loop, receives inside it
};

/// A random loop of the shape the standard pipeline emits -- sender items
/// `iown(S[i + o]) : { S[i + o] -> dest }` and a consumer item guarded by
/// iown(X[i + c]) that receives each name into T<j>[mypid], awaits it and
/// assigns X[i + c] -- with one seeded fault, and its control form: every
/// guard written `rule && (1 == 1)`, which the summary does not take but
/// unrolling runs identically. Some loops also carry an unguarded item at a
/// random place. Every statement has a line of its own,
/// so both forms put each one at the same position.
std::pair<std::string, std::string> transferLoop(std::uint64_t seed,
                                                 Fault fault) {
  Rng rng(seed);
  static const char* kDists[] = {"BLOCK", "CYCLIC", "CYCLIC(2)", "CYCLIC(3)",
                                 "CYCLIC(4)"};
  static const char* kArrays[] = {"X", "Y", "Z"};
  const int procs = static_cast<int>(rng.range(1, 4));
  const sec::Index n = rng.range(12, 48);
  const std::string N = std::to_string(n);
  auto at = [](sec::Index o) {
    return o == 0   ? std::string("i")
           : o > 0 ? "i + " + std::to_string(o)
                   : "i - " + std::to_string(-o);
  };
  const std::string perPid = " f64 [0:" + std::to_string(procs - 1) +
                             "] (BLOCK)\n";
  std::string head = "procs " + std::to_string(procs) + "\n";
  for (const char* a : kArrays)
    head += std::string("array ") + a + " f64 [1:" + N + "] (" +
            kDists[rng.below(5)] + ")\n";
  const int transfers = static_cast<int>(rng.range(1, 3));
  for (int j = 0; j < transfers; ++j)
    head += "array T" + std::to_string(j) + perPid;
  std::string init = "\nfill(X[1:" + N + "], Y[1:" + N + "], Z[1:" + N + "])\n";
  if (fault == Fault::TrivialAwait) init += "await(T0[mypid])\n";
  const std::string consumer = "X[" + at(rng.range(-2, 2)) + "]";
  struct Item {
    std::string guard;
    std::vector<std::string> body;
  };
  std::vector<Item> items;
  Item use{"iown(" + consumer + ")", {}};
  std::vector<std::string> awaits;
  std::string rhs = "0.5 * " + consumer;
  for (int j = 0; j < transfers; ++j) {
    const std::string t = "T" + std::to_string(j);
    const std::string name =
        std::string(kArrays[rng.below(3)]) + "[" + at(rng.range(-2, 2)) + "]";
    std::string dest = " ->";  // unbound: the matcher routes it
    switch (rng.below(4)) {
      case 0:
        break;
      case 3:
        dest += " {" + std::to_string(rng.below(procs)) + "}";
        break;
      default:
        dest += " {owner(" + consumer + ")}";
        break;
    }
    std::string sent = name;
    if (j == 0 && fault == Fault::SendUnowned)
      sent = name.substr(0, name.size() - 1) + " + 1]";
    if (j == 0 && fault == Fault::WrongOwner)
      dest = " -> {owner(X[" + at(3) + "])}";
    items.push_back({"iown(" + name + ")", {sent + dest}});
    const std::string into =
        j == 0 && fault == Fault::RecvUnowned ? t + "[0]" : t + "[mypid]";
    use.body.insert(use.body.begin(), into + " <- " + name);
    if (j == 0 && fault == Fault::SurplusRecv)
      use.body.insert(use.body.begin(), into + " <- " + name);
    if (j != 0 || fault != Fault::MissingAwait)
      awaits.push_back("await(" + into + ")");
    rhs += " + 0.25 * " + into;
  }
  use.body.insert(use.body.end(), awaits.begin(), awaits.end());
  use.body.push_back(consumer + " = " + rhs);
  items.push_back(use);
  if (items.size() < 4 && rng.below(2)) {
    const std::string y = "Y[" + at(rng.range(-2, 2)) + "]";
    items.push_back({"iown(" + y + ")", {y + " = 0.5 * " + y}});
  }
  const std::string loop = "do i = 3, " + std::to_string(n - 2) + ", " +
                           std::to_string(rng.range(1, 2)) + "\n";
  // Drawn last, so the draws above are those of loops without one. An
  // unguarded item: an element assignment (exempt at the top level), or a
  // receive and await of a name whose owner sends it to every processor.
  Item unguarded;
  switch (rng.below(3)) {
    case 1:
      unguarded.body = {"Z[" + at(rng.range(-2, 2)) + "] = 0.0"};
      break;
    case 2: {
      const std::string name = "Y[" + at(rng.range(-2, 2)) + "]";
      std::string all;
      for (int p = 0; p < procs; ++p)
        all += (p ? ", " : "") + std::to_string(p);
      items.insert(items.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(items.size() + 1)),
                   Item{"iown(" + name + ")", {name + " -> {" + all + "}"}});
      head += "array R" + perPid;
      unguarded.body = {"R[mypid] <- " + name, "await(R[mypid])"};
      break;
    }
    default:
      break;
  }
  if (!unguarded.body.empty())
    items.insert(
        items.begin() + static_cast<std::ptrdiff_t>(rng.below(items.size() + 1)),
        unguarded);
  std::string text = head + init + loop, control = head + init + loop;
  for (const Item& it : items) {
    std::string body;
    for (const std::string& line : it.body)
      body += (it.guard.empty() ? "  " : "    ") + line + "\n";
    if (it.guard.empty()) {
      text += body;
      control += body;
      continue;
    }
    text += "  " + it.guard + " : {\n" + body + "  }\n";
    control += "  " + it.guard + " && (1 == 1) : {\n" + body + "  }\n";
  }
  text += "enddo\n";
  control += "enddo\n";
  return {text, control};
}

/// Messages and payload elements per (pid, position, class, definite).
std::map<std::string, std::pair<sec::Index, sec::Index>> costSums(
    const VerifyResult& r) {
  std::map<std::string, std::pair<sec::Index, sec::Index>> out;
  for (const CostEvent& ev : r.costEvents) {
    auto& [msgs, elems] =
        out["p" + std::to_string(ev.pid) + " " + std::to_string(ev.loc.line) +
            ":" + std::to_string(ev.loc.col) + " " +
            std::to_string(static_cast<int>(ev.cls)) +
            (ev.definite ? " definite" : " conditional")];
    msgs += ev.messages;
    elems += ev.messages * ev.elems;
  }
  return out;
}

/// Compare a program with its control form on every analysis output under
/// a step budget; returns the loops the program's verification summarized.
std::uint64_t expectSameAnalysis(const std::string& text,
                                 const std::string& control,
                                 std::uint64_t maxSteps = 4'000'000) {
  const il::Program a = il::parseProgram(text), b = il::parseProgram(control);
  VerifyOptions opts;
  opts.maxSteps = maxSteps;
  const VerifyResult ra = verifyProgram(a, opts), rb = verifyProgram(b, opts);
  EXPECT_EQ(rb.loopsSummarized, 0u) << control;
  EXPECT_EQ(linesOf(ra), linesOf(rb)) << text;
  EXPECT_EQ(ra.stmtsAnalyzed, rb.stmtsAnalyzed) << text;
  EXPECT_EQ(ra.exhaustive, rb.exhaustive) << text;
  if (maxSteps == VerifyOptions{}.maxSteps) {
    EXPECT_EQ(costReportJson(a, analyzeCost(a)),
              costReportJson(b, analyzeCost(b)))
        << text;
  }
  for (bool oblivious : {false, true}) {
    VerifyOptions c = opts;
    c.collectCost = true;
    c.matchComm = false;
    c.obliviousPlacement = oblivious;
    const VerifyResult ca = verifyProgram(a, c), cb = verifyProgram(b, c);
    EXPECT_EQ(costSums(ca), costSums(cb)) << oblivious << "\n" << text;
    EXPECT_EQ(ca.stmtsAnalyzed, cb.stmtsAnalyzed) << oblivious << "\n" << text;
    EXPECT_EQ(ca.exhaustive, cb.exhaustive) << oblivious << "\n" << text;
  }
  return ra.loopsSummarized;
}

TEST(AnalysisLoopSummary, RandomTransferLoopsMatchTheirUnrolledForm) {
  std::uint64_t programs = 0, mixed = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const auto [text, control] = transferLoop(seed, Fault::None);
    const bool summarized = expectSameAnalysis(text, control) > 0;
    programs += summarized;
    mixed += summarized && (text.find("\n  Z[") != std::string::npos ||
                            text.find("\n  R[") != std::string::npos);
  }
  // Enough of the corpus takes the summary for the comparison to bite,
  // also on bodies with an unguarded item.
  EXPECT_GE(programs, 100u);
  EXPECT_GE(mixed, 50u) << programs;
}

TEST(AnalysisLoopSummary, SeededFaultsInTransferLoopsFallBack) {
  // Each fault gives the unrolled diagnostics, never a summary's: the
  // loop unrolls, or its events do not cancel and the call re-runs
  // unrolled. Each fault is flagged in some program of the sample.
  for (Fault fault : {Fault::MissingAwait, Fault::SendUnowned,
                      Fault::RecvUnowned, Fault::WrongOwner,
                      Fault::SurplusRecv, Fault::TrivialAwait}) {
    std::uint64_t flagged = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const auto [text, control] = transferLoop(seed, fault);
      expectSameAnalysis(text, control);
      flagged += !verifySrc(text).diagnostics.empty();
    }
    EXPECT_GT(flagged, 0u) << static_cast<int>(fault);
  }
}

TEST(AnalysisLoopSummary, BudgetRunningOutInsideATransferLoop) {
  // A summary whose charge crosses the budget stops where unrolling
  // stops, with the cost events of the instances that ran before it.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto [text, control] = transferLoop(seed, Fault::None);
    const VerifyResult whole = verifySrc(control);
    for (std::uint64_t budget = 1; budget <= whole.stmtsAnalyzed;
         budget += 1 + budget / 7)
      expectSameAnalysis(text, control, budget);
  }
}

TEST(AnalysisLoopSummary, BudgetRunningOutInsideAMixedLoop) {
  // Unguarded items -- an element assignment, a receive and its await --
  // ahead of guarded ones: the walk of the iteration the budget ends in
  // passes them on its way to each guard. `@` marks where the control
  // form's guards read `rule && (1 == 1)`; each statement has a line of
  // its own, so both forms put it at the same position.
  const char* sources[] = {
      R"(procs 2
array A f64 [1:40] (CYCLIC(3))

fill(A[1:40])
do i = 1, 40
  A[i] = 0.0
  iown(A[i])@ : {
    A[i] = 0.5 * A[i]
  }
enddo
)",
      R"(procs 3
array S f64 [1:40] (CYCLIC(2))
array A f64 [1:40] (BLOCK)
array R f64 [0:2] (BLOCK)

fill(S[1:40], A[1:40])
do i = 2, 39
  R[mypid] <- S[i - 1]
  await(R[mypid])
  iown(S[i - 1])@ : {
    S[i - 1] -> {0, 1, 2}
  }
  A[i] = 0.0
  iown(A[i])@ : {
    A[i] = 0.5 * A[i] + R[mypid]
  }
enddo
)"};
  auto withGuards = [](std::string s, const std::string& tail) {
    for (std::size_t at; (at = s.find('@')) != std::string::npos;)
      s.replace(at, 1, tail);
    return s;
  };
  for (const char* src : sources) {
    const std::string text = withGuards(src, ""),
                      control = withGuards(src, " && (1 == 1)");
    ASSERT_GT(expectSameAnalysis(text, control), 0u) << text;
    const VerifyResult whole = verifySrc(control);
    ASSERT_TRUE(whole.exhaustive);
    for (std::uint64_t budget = 1; budget <= whole.stmtsAnalyzed; ++budget)
      expectSameAnalysis(text, control, budget);
  }
}

}  // namespace
}  // namespace xdp::analysis
