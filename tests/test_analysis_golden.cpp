// Golden-output test for the static analyzers: verifyProgram's
// diagnostics and step counts, the exact and placement-oblivious cost
// event streams, and analyzeCost's JSON report, over a fixed corpus —
// the five example programs and a sample of pipeline-fuzz programs at
// every standard pipeline stage, the seeded-defect programs of
// test_analysis, rank-1 update programs over every placement family the
// compile benchmark uses, small task farms with and without a
// send/receive surplus, random mixes of bound and unbound sends of one
// message name, the element-only loops the verifier summarizes or must
// unroll, and the serve workload's halo and ring. The whole record must
// match tests/golden/analysis.golden byte for byte, so any change to the
// abstract executor that is meant to be a pure speed-up is proven
// output-neutral on this corpus.
//
// On a mismatch the test writes the full record to analysis.golden.actual
// in its working directory and reports the first differing line. After
// an intentional output change, review that diff and copy the file over
// the checked-in golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "xdp/analysis/cost.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/support/rng.hpp"

#include "analysis_programs.hpp"
#include "fuzz_case.hpp"

namespace xdp::analysis {
namespace {

using StmtIds = std::map<const il::Stmt*, int>;

/// Pre-order statement numbers: lowered statements carry no source
/// position, so events and diagnostics are also tagged with these.
void numberStmts(const il::StmtPtr& s, StmtIds& ids) {
  if (!s) return;
  ids.emplace(s.get(), static_cast<int>(ids.size()));
  for (const auto& c : s->stmts) numberStmts(c, ids);
  numberStmts(s->body, ids);
}

std::string stmtTag(const StmtIds& ids, const il::StmtPtr& s,
                    const il::SrcLoc& loc) {
  auto it = ids.find(s.get());
  return std::to_string(loc.line) + ":" + std::to_string(loc.col) + "#" +
         (it == ids.end() ? std::string("?") : std::to_string(it->second));
}

const char* costClassName(CostClass c) {
  switch (c) {
    case CostClass::Data: return "data";
    case CostClass::Own: return "own";
    case CostClass::OwnVal: return "ownval";
  }
  return "?";
}

/// Cost events, tallied per distinct (pid, statement, class, elems,
/// messages, definite) in first-occurrence order, plus an FNV-1a digest of
/// the full ordered stream: the record stays small and still pins the
/// exact event sequence.
void recordEvents(std::ostringstream& os, const char* label,
                  const VerifyResult& r, const StmtIds& ids) {
  std::vector<std::pair<std::string, std::size_t>> tally;
  std::map<std::string, std::size_t> slot;
  std::uint64_t digest = 1469598103934665603ULL;
  for (const CostEvent& ev : r.costEvents) {
    std::string line = "p" + std::to_string(ev.pid) + " " +
                       stmtTag(ids, ev.stmt, ev.loc) + " " +
                       costClassName(ev.cls) +
                       " elems=" + std::to_string(ev.elems) +
                       " msgs=" + std::to_string(ev.messages) +
                       (ev.definite ? " definite" : " conditional");
    for (unsigned char c : line + "\n") {
      digest ^= c;
      digest *= 1099511628211ULL;
    }
    auto [it, fresh] = slot.emplace(line, tally.size());
    if (fresh) tally.emplace_back(std::move(line), 0);
    ++tally[it->second].second;
  }
  os << label << " stmts=" << r.stmtsAnalyzed
     << " exhaustive=" << (r.exhaustive ? 1 : 0)
     << " events=" << r.costEvents.size() << " digest=" << std::hex << digest
     << std::dec << "\n";
  for (const auto& [line, n] : tally) os << "  " << line << " x" << n << "\n";
}

void record(std::ostringstream& os, const std::string& name,
            const il::Program& prog, const il::Program& pre) {
  StmtIds ids;
  numberStmts(prog.body, ids);
  os << "== " << name << "\n";
  try {
    VerifyResult v = verifyProgram(prog);
    os << "verify " << diagnosticsJson(prog, v) << "\n";
    for (const Diagnostic& d : v.diagnostics)
      os << "  at " << stmtTag(ids, d.stmt, d.loc) << "\n";
    VerifyOptions exact;
    exact.collectCost = true;
    exact.matchComm = false;
    recordEvents(os, "exact", verifyProgram(prog, exact), ids);
    VerifyOptions obl = exact;
    obl.obliviousPlacement = true;
    recordEvents(os, "oblivious", verifyProgram(prog, obl), ids);
    CostReport cr = analyzeCost(prog, pre);
    // Rows at the same source position (all lowered statements sit at
    // 0:0) are ordered by statement address inside analyzeCost; order
    // them by statement number so the record is address-independent.
    std::stable_sort(cr.perStmt.begin(), cr.perStmt.end(),
                     [&](const StmtCost& a, const StmtCost& b) {
                       if (a.loc.line != b.loc.line)
                         return a.loc.line < b.loc.line;
                       if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
                       return ids.at(a.stmt.get()) < ids.at(b.stmt.get());
                     });
    os << "cost " << costReportJson(prog, cr) << "\n";
  } catch (const std::exception& e) {
    os << "error " << e.what() << "\n";
  }
}

void recordPipeline(std::ostringstream& os, const std::string& name,
                    const il::Program& input) {
  record(os, name + " @input", input, input);
  il::Program cur = input;
  for (const opt::Pass& p : opt::standardPipeline()) {
    cur = p.fn(cur);
    record(os, name + " @" + p.name, cur, input);
  }
}

il::Program loadExample(const std::string& name) {
  std::ifstream in(std::string(XDP_PROGRAMS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

// The seeded-defect programs of test_analysis (one per diagnostic class,
// plus the clean base and the matching-with-destinations cases).
const std::pair<const char*, const char*> kDefects[] = {
    {"base", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)"},
    {"dropped-receive", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {1} }
)"},
    {"dropped-send", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)"},
    {"duplicated-send", R"(procs 2
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
)"},
    {"await-before-receive", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  await(B[5:8])
  B[5:8] <- A[1:4]
}
)"},
    {"send-unowned", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[5:8] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[5:8]
  await(B[5:8])
}
)"},
    {"ownership-sent-twice", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : {
  A[1:4] => {1}
  A[1:4] => {1}
}
(mypid == 1) : { A[1:4] <= }
)"},
    {"ownership-receive-while-owned", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 1) : { A[5:8] <= }
)"},
    {"receive-into-unowned", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : { B[1:4] <- A[1:4] }
)"},
    {"use-after-transfer", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] => {1} }
(mypid == 1) : { A[1:4] <= }
(mypid == 0) : { A[2] = 1.0 }
)"},
    {"read-of-transitional", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  x = B[6] + 1.0
  await(B[5:8])
}
)"},
    {"size-mismatched-receive", R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:6] <- A[1:4]
  await(B[5:6])
}
)"},
    {"await-of-unowned", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { await(A[5:8]) }
)"},
    {"destination-out-of-range", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {5} }
)"},
    {"unknown-guard", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
x = 0.0
(mypid == 1) : { x = A[5] }
(x > 0.5) : { A[1:4] -> {0} }
)"},
    {"empty-section-transfers", R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
do i = 1, 0
  A[1:4] -> {1}
enddo
await(A[5:4])
)"},
    {"bound-destinations", R"(procs 3
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
)"},
    {"unsatisfiable-destinations", R"(procs 3
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
)"},
    {"bound-destination-surpluses", testprog::kBoundSurplusText},
};

/// Sends of W[0] from processor 0, each bound to a random processor or
/// unbound, and receives of it on random processors: one matching group
/// in which bound destinations constrain the pairing.
std::string matchingMix(std::uint64_t seed) {
  Rng rng(seed);
  const int procs = static_cast<int>(rng.range(2, 4));
  const std::string P = std::to_string(procs);
  std::string t = "procs " + P + "\narray W f64 [0:0] (BLOCK:1)\n" +
                  "array M f64 [0:" + std::to_string(procs - 1) +
                  "] (BLOCK)\n\n";
  const int stmts = static_cast<int>(rng.range(2, 6));
  for (int k = 0; k < stmts; ++k) {
    const std::string count = std::to_string(rng.range(1, 4));
    if (rng.below(2) == 0) {
      const std::int64_t dest = rng.range(-1, procs - 1);
      t += "(mypid == 0) : {\n  do t = 1, " + count + "\n    W[0] ->" +
           (dest < 0 ? "" : " {" + std::to_string(dest) + "}") +
           "\n  enddo\n}\n";
    } else {
      t += "(mypid == " + std::to_string(rng.range(0, procs - 1)) +
           ") : {\n  do t = 1, " + count +
           "\n    M[mypid] <- W[0]\n    await(M[mypid])\n  enddo\n}\n";
    }
  }
  return t;
}

std::string buildRecord() {
  std::ostringstream os;
  for (const char* name : {"vecadd.xdp", "ownership.xdp", "taskfarm.xdp",
                           "jacobi.xdp", "cannon.xdp"})
    recordPipeline(os, name, loadExample(name));

  for (const auto& [name, src] : kDefects) {
    il::Program prog = il::parseProgram(src);
    record(os, std::string("defect ") + name, prog, prog);
  }

  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6})
    for (std::uint64_t k = 0; k < 2; ++k) {
      const std::uint64_t s = seed * 1000 + k;
      recordPipeline(os, "fuzz " + std::to_string(s),
                     opt::fuzz::buildCase(opt::fuzz::randomCase(s)));
    }

  // The compile benchmark's shape: every array on a different placement,
  // rotated so each placement is both updated and read.
  std::vector<std::string> dists = {"BLOCK",     "CYCLIC",    "CYCLIC(2)",
                                    "CYCLIC(4)", "CYCLIC(8)", "CYCLIC(16)"};
  for (int rot = 0; rot < 3; ++rot) {
    const std::string text = testprog::rank1UpdateText(96, 4, dists);
    recordPipeline(os, "update rot" + std::to_string(rot),
                   il::parseProgram(text));
    std::rotate(dists.begin(), dists.begin() + 1, dists.end());
  }

  for (int procs : {2, 4}) {
    const std::string p = std::to_string(procs);
    recordPipeline(os, "farm p" + p,
                   il::parseProgram(testprog::farmText(procs, 24, 24)));
    recordPipeline(os, "farm+send p" + p,
                   il::parseProgram(testprog::farmText(procs, 25, 24)));
    recordPipeline(os, "farm-recv p" + p,
                   il::parseProgram(testprog::farmText(procs, 24, 23)));
    recordPipeline(os, "farm+recv p" + p,
                   il::parseProgram(testprog::farmText(procs, 24, 25)));
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    il::Program prog = il::parseProgram(matchingMix(seed));
    record(os, "matching " + std::to_string(seed), prog, prog);
  }

  for (const testprog::LoopCase& c : testprog::kLoopCases) {
    il::Program prog = il::parseProgram(c.text);
    record(os, c.name, prog, prog);
  }
  for (int procs : {2, 3}) {
    const std::string p = std::to_string(procs);
    il::Program halo = il::parseProgram(testprog::haloText(procs, 12, 3));
    record(os, "serve halo p" + p, halo, halo);
    il::Program ring = il::parseProgram(testprog::ringText(procs, 8, 5));
    record(os, "serve ring p" + p, ring, ring);
  }
  return os.str();
}

TEST(AnalysisGolden, OutputsMatchCheckedInGolden) {
  const std::string actual = buildRecord();
  std::ifstream in(XDP_ANALYSIS_GOLDEN);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (actual == golden) return;

  std::ofstream("analysis.golden.actual") << actual;
  std::istringstream a(actual), g(golden);
  std::string la, lg;
  int line = 0;
  while (true) {
    const bool moreA = static_cast<bool>(std::getline(a, la));
    const bool moreG = static_cast<bool>(std::getline(g, lg));
    ++line;
    if (!moreA && !moreG) break;
    if (!moreA || !moreG || la != lg) {
      ADD_FAILURE() << "analysis record differs from " << XDP_ANALYSIS_GOLDEN
                    << " at line " << line << "\n  golden: "
                    << (moreG ? lg : "<end of file>")
                    << "\n  actual: " << (moreA ? la : "<end of file>")
                    << "\n(full record written to analysis.golden.actual)";
      return;
    }
  }
  ADD_FAILURE() << "analysis record differs from " << XDP_ANALYSIS_GOLDEN
                << " (full record written to analysis.golden.actual)";
}

}  // namespace
}  // namespace xdp::analysis
