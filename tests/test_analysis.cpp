// Mutation tests for the static XDP verifier (xdp::analysis): a known-good
// two-processor transfer program is seeded with one defect per diagnostic
// class, and the verifier must (a) flag exactly that class, (b) anchor the
// diagnostic to the defective source line, and (c) keep the unmutated
// program spotless.
#include <gtest/gtest.h>

#include <string>

#include "xdp/analysis/verifier.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/il/printer.hpp"

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

}  // namespace
}  // namespace xdp::analysis
