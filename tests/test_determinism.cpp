// Modeled time and traffic counters are functions of the program alone:
// running the same program again, on either engine, must report one
// makespan and one set of NetStats. The programs are owner-computes
// rank-1 updates of the shape the end-to-end `compile` workload runs,
// after the standard pipeline, and the §2.7 task farm, raw and pipelined,
// whose rendezvous pairing follows the scheduler's virtual-time order.
//
// Regression: a completion used to charge the unexpected-message copy to
// the receiver's clock on whichever thread completed the receive. When
// the receive was posted first that was the sender's thread, so the
// charge landed at a schedule-dependent point of the receiver's timeline
// and moved its later post clocks, unexpected verdicts and syncs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
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

il::Program pipelined(il::Program prog) {
  for (const opt::Pass& pass : opt::standardPipeline()) prog = pass.fn(prog);
  return prog;
}

il::Program lowered(const std::string& text) {
  return pipelined(il::parseProgram(text));
}

il::Program loadExample(const std::string& name) {
  std::ifstream in(std::string(XDP_PROGRAMS_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return il::parseProgram(ss.str());
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
  std::vector<std::pair<std::string, il::Program>> progs;
  for (const UpdateCase& c : cases) {
    progs.emplace_back(
        "n=" + std::to_string(c.n) + " P=" + std::to_string(c.nprocs),
        lowered(testprog::rank1UpdateText(c.n, c.nprocs, c.dists)));
  }
  const il::Program farm = loadExample("taskfarm.xdp");
  progs.emplace_back("taskfarm", farm);
  progs.emplace_back("taskfarm (pipeline)", pipelined(farm));
  for (const auto& [name, prog] : progs) {
    const Observed want = runOnce(prog, Backend::TreeWalk);
    EXPECT_GT(want.net.messagesSent, 0u);
    for (Backend be : {Backend::TreeWalk, Backend::Bytecode}) {
      for (int r = 0; r < kRuns; ++r) {
        const std::string what = name +
                                 (be == Backend::TreeWalk ? " tree" : " vm") +
                                 " run " + std::to_string(r);
        expectSame(want, runOnce(prog, be), what);
      }
    }
  }
}

}  // namespace
}  // namespace xdp::interp
