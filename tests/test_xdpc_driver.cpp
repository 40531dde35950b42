// End-to-end tests of the xdpc driver's exit-code contract and diagnostic
// formatting: 0 = success, 1 = diagnostics or a compile/run failure,
// 2 = usage error (bad flag or option value, unknown pass, missing file
// operand). Runs the real binary (XDPC_PATH) against the shipped programs
// and against seeded defect programs written to a temp directory, and
// holds xdp_serve (XDP_SERVE_PATH) to the same usage-error code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/wait.h>

namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runTool(const std::string& tool, const std::string& args) {
  std::string cmd = tool + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  char buf[4096];
  while (pipe && std::fgets(buf, sizeof buf, pipe)) r.output += buf;
  if (pipe) {
    int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return r;
}

RunResult runXdpc(const std::string& args) { return runTool(XDPC_PATH, args); }

std::string programPath(const std::string& name) {
  return std::string(XDP_PROGRAMS_DIR) + "/" + name;
}

std::string writeTemp(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(XdpcDriver, CleanProgramAnalyzesWithExitZero) {
  RunResult r = runXdpc(programPath("vecadd.xdp") + " --analyze");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("0 errors"), std::string::npos) << r.output;
}

TEST(XdpcDriver, AnalyzeComposesWithThePipeline) {
  RunResult r =
      runXdpc(programPath("jacobi.xdp") + " --pipeline --analyze");
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(XdpcDriver, VerifyPassesExitsZeroOnCleanPrograms) {
  RunResult r =
      runXdpc(programPath("cannon.xdp") + " --pipeline --verify-passes");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("no introduced violations"), std::string::npos)
      << r.output;
}

TEST(XdpcDriver, DefectiveProgramExitsOneWithFileLineDiagnostic) {
  std::string path = writeTemp("xdpc_defect.xdp",
                               "procs 2\n"
                               "array A f64 [1:8] (BLOCK)\n"
                               "\n"
                               "fill(A[1:8])\n"
                               "(mypid == 0) : { A[1:4] -> {1} }\n");
  RunResult r = runXdpc(path + " --analyze");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find(path + ":5:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unmatched-send"), std::string::npos) << r.output;
}

TEST(XdpcDriver, EachDiagnosticClassReportsItsKind) {
  struct Case {
    const char* kind;
    const char* body;
  };
  const Case cases[] = {
      {"unmatched-send", "(mypid == 0) : { A[1:4] -> {1} }\n"},
      {"orphan-recv", "(mypid == 1) : { B[5:8] <- A[1:4]\nawait(B[5:8]) }\n"},
      {"send-unowned",
       "(mypid == 0) : { A[5:8] -> {1} }\n"
       "(mypid == 1) : { B[5:8] <- A[5:8]\nawait(B[5:8]) }\n"},
      {"double-ownership",
       "(mypid == 0) : { A[1:4] => {1}\nA[1:4] => {1} }\n"
       "(mypid == 1) : { A[1:4] <= }\n"},
      {"not-accessible",
       "(mypid == 0) : { A[1:4] -> {1} }\n"
       "(mypid == 1) : { B[5:8] <- A[1:4]\nx = B[6]\nawait(B[5:8]) }\n"},
      {"transfer-mismatch",
       "(mypid == 0) : { A[1:4] -> {1} }\n"
       "(mypid == 1) : { B[5:6] <- A[1:4]\nawait(B[5:6]) }\n"},
  };
  for (const Case& c : cases) {
    std::string src = std::string("procs 2\n") +
                      "array A f64 [1:8] (BLOCK)\n" +
                      "array B f64 [1:8] (BLOCK)\n\n" +
                      "fill(A[1:8], B[1:8])\n" + c.body;
    std::string path =
        writeTemp(std::string("xdpc_") + c.kind + ".xdp", src);
    RunResult r = runXdpc(path + " --analyze");
    EXPECT_EQ(r.exitCode, 1) << c.kind << "\n" << r.output;
    EXPECT_NE(r.output.find(c.kind), std::string::npos)
        << c.kind << "\n" << r.output;
    EXPECT_NE(r.output.find(path + ":"), std::string::npos)
        << c.kind << "\n" << r.output;
  }
}

TEST(XdpcDriver, AwaitMismatchWarnsWithoutFailing) {
  std::string path = writeTemp("xdpc_await.xdp",
                               "procs 2\n"
                               "array A f64 [1:8] (BLOCK)\n"
                               "array B f64 [1:8] (BLOCK)\n\n"
                               "fill(A[1:8], B[1:8])\n"
                               "(mypid == 0) : { A[1:4] -> {1} }\n"
                               "(mypid == 1) : {\n"
                               "await(B[5:8])\n"
                               "B[5:8] <- A[1:4]\n"
                               "}\n");
  RunResult r = runXdpc(path + " --analyze");
  EXPECT_EQ(r.exitCode, 0) << r.output;  // warnings do not fail the build
  EXPECT_NE(r.output.find("await-mismatch"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("warning:"), std::string::npos) << r.output;
}

TEST(XdpcDriver, UsageErrorsExitTwo) {
  EXPECT_EQ(runXdpc("").exitCode, 2);
  EXPECT_EQ(runXdpc("--analyze").exitCode, 2);  // no file operand
  EXPECT_EQ(runXdpc(programPath("vecadd.xdp") + " --no-such-flag").exitCode,
            2);
  EXPECT_EQ(runXdpc(programPath("vecadd.xdp") + " --passes no-such-pass")
                .exitCode,
            2);
  // One engine: the retired engine switch is an unknown option.
  EXPECT_EQ(runXdpc(programPath("vecadd.xdp") + " --run --backend=vm")
                .exitCode,
            2);
  // Malformed numeric values are usage errors, never an uncaught
  // exception (exit 134) or a silent wrap-around.
  for (const char* bad :
       {" --run --seed abc", " --run --seed 99999999999999999999999",
        " --run --seed 12x", " --run --seed -1", " --run --seed ''",
        " --run --checkpoint-interval -5",
        " --run --checkpoint-interval 1e3"}) {
    const RunResult r = runXdpc(programPath("vecadd.xdp") + bad);
    EXPECT_EQ(r.exitCode, 2) << bad << "\n" << r.output;
  }
}

TEST(XdpServeDriver, UsageErrorsExitTwo) {
  const std::string prog = programPath("vecadd.xdp");
  for (const char* bad :
       {" --workers x", " --workers 0", " --checkpoint-steps -1",
        " --sessions 99999999999", " --seed abc", " --drop 1.5",
        " --drop nan", " --crash -1", " --max-steps 5k",
        // Deadlocks are reported at once; the window flag is gone.
        " --watchdog-ms 5"}) {
    const RunResult r = runTool(XDP_SERVE_PATH, prog + bad);
    EXPECT_EQ(r.exitCode, 2) << bad << "\n" << r.output;
  }
  const RunResult ok = runTool(XDP_SERVE_PATH, prog + " --workers 2");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
}

TEST(XdpcDriver, MissingFileExitsOne) {
  RunResult r = runXdpc("/nonexistent/nope.xdp --analyze");
  EXPECT_EQ(r.exitCode, 1) << r.output;
}

TEST(XdpcDriver, ParseErrorExitsOne) {
  std::string path = writeTemp("xdpc_bad.xdp", "procs procs procs\n");
  RunResult r = runXdpc(path + " --print");
  EXPECT_EQ(r.exitCode, 1) << r.output;
}

/// "<key>: <digits>" extracted from a line like "cost: 144 bytes in ...",
/// or -1 when absent.
long long numberAfter(const std::string& text, const std::string& tag) {
  auto pos = text.find(tag);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + tag.size(), nullptr, 10);
}

TEST(XdpcDriver, CostReportMatchesRuntimeTrafficBitExactly) {
  // The tentpole contract: on every shipped program, under the standard
  // pipeline, the static model's bytes and messages equal the NetStats
  // counters --run prints.
  const char* programs[] = {"vecadd.xdp", "jacobi.xdp", "cannon.xdp",
                            "ownership.xdp", "taskfarm.xdp"};
  for (const char* name : programs) {
    for (const char* extra : {"", " --pipeline"}) {
      RunResult cost =
          runXdpc(programPath(name) + extra + " --cost");
      ASSERT_EQ(cost.exitCode, 0) << name << extra << "\n" << cost.output;
      const long long bytes = numberAfter(cost.output, "cost: ");
      ASSERT_GE(bytes, 0) << name << extra << "\n" << cost.output;
      EXPECT_NE(cost.output.find("(exact)"), std::string::npos)
          << name << extra << "\n" << cost.output;
      RunResult run = runXdpc(programPath(name) + extra + " --run");
      ASSERT_EQ(run.exitCode, 0) << name << extra << "\n" << run.output;
      // "..., <bytes> bytes, ..." from the run summary.
      auto pos = run.output.find("unexpected), ");
      ASSERT_NE(pos, std::string::npos) << run.output;
      const long long measured =
          std::strtoll(run.output.c_str() + pos + 13, nullptr, 10);
      EXPECT_EQ(bytes, measured)
          << name << extra << "\n" << cost.output << run.output;
    }
  }
}

TEST(XdpcDriver, CostJsonHasStableKeys) {
  RunResult r =
      runXdpc(programPath("jacobi.xdp") + " --cost --format=json");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  for (const char* key :
       {"\"file\"", "\"exact\"", "\"bytes_moved\"", "\"messages\"",
        "\"lower_bound\"", "\"invariant_bound\"", "\"parametric_bound\"",
        "\"pct_of_optimal\"", "\"per_proc\"", "\"per_symbol\"",
        "\"per_stmt\"", "\"line\"", "\"col\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n"
                                                     << r.output;
  }
  EXPECT_EQ(numberAfter(r.output, "\"bytes_moved\":"), 144) << r.output;
  EXPECT_EQ(numberAfter(r.output, "\"lower_bound\":"), 144) << r.output;
}

TEST(XdpcDriver, AnalyzeJsonKeepsTheExitContract) {
  // Clean program: exit 0, machine-readable summary on stdout.
  RunResult clean =
      runXdpc(programPath("vecadd.xdp") + " --analyze --format=json");
  EXPECT_EQ(clean.exitCode, 0) << clean.output;
  EXPECT_NE(clean.output.find("\"errors\":0"), std::string::npos)
      << clean.output;
  EXPECT_NE(clean.output.find("\"diagnostics\":["), std::string::npos)
      << clean.output;

  // Defective program: still exit 1, and the diagnostic carries the
  // stable class/file/line/col/message keys.
  std::string path = writeTemp("xdpc_json_defect.xdp",
                               "procs 2\n"
                               "array A f64 [1:8] (BLOCK)\n"
                               "\n"
                               "fill(A[1:8])\n"
                               "(mypid == 0) : { A[1:4] -> {1} }\n");
  RunResult bad = runXdpc(path + " --analyze --format=json");
  EXPECT_EQ(bad.exitCode, 1) << bad.output;
  for (const char* key : {"\"class\":\"unmatched-send\"", "\"file\"",
                          "\"line\":5", "\"col\"", "\"message\"",
                          "\"severity\":\"error\""}) {
    EXPECT_NE(bad.output.find(key), std::string::npos) << key << "\n"
                                                       << bad.output;
  }
}

TEST(XdpcDriver, AutoPlaceAlignsVecaddAndComposesWithRun) {
  RunResult r = runXdpc(programPath("vecadd.xdp") + " --auto-place");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("modeled 0 bytes"), std::string::npos)
      << r.output;
  // The rewritten placement then actually runs with zero traffic.
  RunResult run = runXdpc(programPath("vecadd.xdp") +
                          " --auto-place --pipeline --run");
  EXPECT_EQ(run.exitCode, 0) << run.output;
  EXPECT_NE(run.output.find(" 0 bytes"), std::string::npos) << run.output;
}

TEST(XdpcDriver, AutoPlaceJsonReportsOriginalAndBest) {
  RunResult r =
      runXdpc(programPath("vecadd.xdp") + " --auto-place --format=json");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  for (const char* key :
       {"\"candidates_tried\"", "\"candidates_valid\"", "\"original\"",
        "\"best\"", "\"dists\"", "\"lower_bound\"", "\"pct_of_optimal\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n"
                                                     << r.output;
  }
}

}  // namespace
