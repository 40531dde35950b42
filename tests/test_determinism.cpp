// Modeled time and traffic counters are functions of the program alone:
// running the same program again, on either engine and under whatever
// thread schedule the host picks, must report one makespan and one set of
// NetStats. The programs are owner-computes rank-1 updates of the shape
// the end-to-end `compile` workload runs, after the standard pipeline.
//
// Regression: a completion used to charge the unexpected-message copy to
// the receiver's clock on whichever thread completed the receive. When
// the receive was posted first that was the sender's thread, so the
// charge landed at a schedule-dependent point of the receiver's timeline
// and moved its later post clocks, unexpected verdicts and syncs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis_programs.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/opt/passes.hpp"

namespace xdp::interp {
namespace {

struct Observed {
  double makespan = 0.0;
  net::NetStats net;
};

Observed runOnce(const il::Program& prog, Backend be) {
  InterpOptions io;
  io.backend = be;
  Interpreter in(prog, {}, io);
  apps::registerFillKernel(in, 42);
  in.run();
  return Observed{in.runtime().fabric().makespan(),
                  in.runtime().fabric().totalStats()};
}

il::Program lowered(const std::string& text) {
  il::Program prog = il::parseProgram(text);
  for (const opt::Pass& pass : opt::standardPipeline()) prog = pass.fn(prog);
  return prog;
}

void expectSame(const Observed& want, const Observed& got,
                const std::string& what) {
  EXPECT_EQ(got.makespan, want.makespan) << what;
  EXPECT_EQ(got.net.messagesSent, want.net.messagesSent) << what;
  EXPECT_EQ(got.net.bytesSent, want.net.bytesSent) << what;
  EXPECT_EQ(got.net.messagesReceived, want.net.messagesReceived) << what;
  EXPECT_EQ(got.net.bytesReceived, want.net.bytesReceived) << what;
  EXPECT_EQ(got.net.rendezvousSends, want.net.rendezvousSends) << what;
  EXPECT_EQ(got.net.directSends, want.net.directSends) << what;
  EXPECT_EQ(got.net.ownershipTransfers, want.net.ownershipTransfers) << what;
  EXPECT_EQ(got.net.unexpectedMessages, want.net.unexpectedMessages) << what;
}

struct UpdateCase {
  sec::Index n;
  int nprocs;
  std::vector<std::string> dists;
};

TEST(Determinism, RepeatedRunsReportOneMakespanAndOneNetStats) {
  constexpr int kRuns = 10;
  const std::vector<UpdateCase> cases = {
      {192, 2, {"BLOCK", "CYCLIC", "CYCLIC(4)"}},
      {256, 2, {"CYCLIC(2)", "BLOCK", "CYCLIC(8)", "CYCLIC"}},
      {160, 4, {"CYCLIC(16)", "CYCLIC(4)", "BLOCK", "CYCLIC(2)", "CYCLIC"}},
  };
  for (const UpdateCase& c : cases) {
    const il::Program prog =
        lowered(testprog::rank1UpdateText(c.n, c.nprocs, c.dists));
    const Observed want = runOnce(prog, Backend::TreeWalk);
    EXPECT_GT(want.net.messagesSent, 0u);
    for (Backend be : {Backend::TreeWalk, Backend::Bytecode}) {
      for (int r = 0; r < kRuns; ++r) {
        const std::string what =
            "n=" + std::to_string(c.n) + " P=" + std::to_string(c.nprocs) +
            (be == Backend::TreeWalk ? " tree" : " vm") + " run " +
            std::to_string(r);
        expectSame(want, runOnce(prog, be), what);
      }
    }
  }
}

}  // namespace
}  // namespace xdp::interp
