// Chaos proof of session fault isolation (the tentpole acceptance test):
// a mixed population of sessions — healthy, crash-faulted, quota-runaway,
// drop-everything-deadlocked — runs through one Server, and
//
//   * the server never dies and resolves every admitted session;
//   * every healthy session completes bit-identical to a solo run of the
//     same request (resultDigest equality);
//   * every session, faulted or not, tears down hygienically: the fabric
//     drains to zero and the endpoint arena returns to empty;
//   * each fault class is classified as its own outcome, never leaking
//     into a neighbor's report.
//
// Runs under -DXDP_SANITIZE=thread via the `sanitize` ctest label.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "xdp/ckpt/io.hpp"
#include "xdp/serve/server.hpp"

namespace {

using namespace xdp;
using serve::SessionOutcome;

// 4-proc halo-exchange Jacobi (examples/programs/jacobi.xdp): enough
// communication that drops deadlock it and a crashed endpoint strands
// its neighbors.
const char* kJacobi = R"(
procs 4
array U  f64 [1:16] (BLOCK)
array HL f64 [0:3] (BLOCK)
array HR f64 [0:3] (BLOCK)

fill(U[1:16])
do t = 1, 3
  (mypid < nprocs - 1) : { U[4 * mypid + 4] -> {mypid + 1} }
  (mypid > 0) : { U[4 * mypid + 1] -> {mypid - 1} }
  (mypid > 0) : { HL[mypid] <- U[4 * mypid] }
  (mypid < nprocs - 1) : { HR[mypid] <- U[4 * mypid + 5] }
  (mypid > 0) : {
    await(HL[mypid])
    U[4 * mypid + 1] = 0.25 * HL[mypid] + 0.5 * U[4 * mypid + 1] + 0.25 * U[4 * mypid + 2]
  }
  (mypid < nprocs - 1) : {
    await(HR[mypid])
    U[4 * mypid + 4] = 0.25 * U[4 * mypid + 3] + 0.5 * U[4 * mypid + 4] + 0.25 * HR[mypid]
  }
  do i = 4 * mypid + 2, 4 * mypid + 3
    iown(U[i]) : { U[i] = 0.25 * U[i - 1] + 0.5 * U[i] + 0.25 * U[i + 1] }
  enddo
enddo
)";

// Sequential owner-computes vecadd; exercises the optimization pipeline
// inside a session (usePipeline = true).
const char* kVecadd = R"(
procs 4
array A f64 [1:64] (BLOCK)
array B f64 [1:64] (CYCLIC)

fill(A[1:64], B[1:64])
do i = 1, 64
  A[i] = A[i] + B[i]
enddo
)";

// A compute-heavy tenant: legitimate, but long enough that a step quota
// cancels it mid-flight.
const char* kRunaway = R"(
procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
do t = 1, 2000
  do i = 4 * mypid + 1, 4 * mypid + 4
    iown(A[i]) : { A[i] = A[i] + 1.0 }
  enddo
enddo
)";

serve::SessionOptions chaosOptions() {
  serve::SessionOptions o;
  o.retry.maxAttempts = 2;  // bounded retry; keeps drop-all sessions quick
  o.retry.backoffBaseMs = 1;
  o.retry.backoffCapMs = 4;
  return o;
}

/// Fresh empty scratch directory under the test temp root.
std::string scratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "xdp_serve_chaos_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

TEST(ServeChaos, MixedPopulationIsolatesEveryFault) {
  const int kSessions = 200;
  const serve::SessionOptions sopts = chaosOptions();

  // Solo reference digests for the healthy request shapes.
  serve::SessionRequest jacobiReq;
  jacobiReq.name = "jacobi";
  jacobiReq.source = kJacobi;
  serve::SessionRequest vecaddReq;
  vecaddReq.name = "vecadd";
  vecaddReq.source = kVecadd;
  vecaddReq.usePipeline = true;

  serve::SessionReport soloJacobi = serve::runSession(jacobiReq, sopts);
  serve::SessionReport soloVecadd = serve::runSession(vecaddReq, sopts);
  ASSERT_EQ(soloJacobi.outcome, SessionOutcome::Completed)
      << soloJacobi.error;
  ASSERT_EQ(soloVecadd.outcome, SessionOutcome::Completed)
      << soloVecadd.error;
  ASSERT_NE(soloJacobi.resultDigest, 0u);
  ASSERT_NE(soloVecadd.resultDigest, 0u);

  serve::ServerConfig cfg;
  cfg.workers = 8;
  cfg.maxPending = kSessions + 8;  // this test measures isolation, not
                                   // shedding (see AdmissionControlSheds)
  cfg.session = sopts;
  serve::Server server(cfg);

  // The chaos mix: slots 0-3 of every 8 are hostile (50% > the 25% floor).
  enum Kind { Crash, StepQuota, DropDeadlock, MsgQuota, Healthy };
  auto kindOf = [](int i) {
    switch (i % 8) {
      case 0: return Crash;
      case 1: return StepQuota;
      case 2: return DropDeadlock;
      case 3: return MsgQuota;
      default: return Healthy;
    }
  };

  std::vector<std::future<serve::SessionReport>> futs;
  std::vector<Kind> kinds;
  for (int i = 0; i < kSessions; ++i) {
    const Kind kind = kindOf(i);
    kinds.push_back(kind);
    serve::SessionRequest req;
    switch (kind) {
      case Crash: {
        req = jacobiReq;
        req.name = "crash#" + std::to_string(i);
        net::FaultPlan plan;
        plan.seed = 1000 + static_cast<std::uint64_t>(i);
        plan.crashPids = {1 + i % 3};  // some mid-machine endpoint dies
        plan.crashAfterSends = static_cast<std::uint64_t>(i % 3);
        req.faultPlan = plan;
        break;
      }
      case StepQuota: {
        req.name = "runaway#" + std::to_string(i);
        req.source = kRunaway;
        req.quotas.maxSteps = 500;
        break;
      }
      case DropDeadlock: {
        req = jacobiReq;
        req.name = "dropall#" + std::to_string(i);
        net::FaultPlan plan;
        plan.seed = 2000 + static_cast<std::uint64_t>(i);
        plan.dropProb = 1.0;  // every attempt deadlocks; retries exhaust
        req.faultPlan = plan;
        break;
      }
      case MsgQuota: {
        req = jacobiReq;
        req.name = "msgquota#" + std::to_string(i);
        req.quotas.maxMessages = 4;  // jacobi needs 18
        break;
      }
      case Healthy: {
        req = (i % 2 == 0) ? jacobiReq : vecaddReq;
        req.name = "healthy#" + std::to_string(i);
        break;
      }
    }
    futs.push_back(server.submit(std::move(req)));
  }

  std::map<SessionOutcome, int> outcomes;
  for (int i = 0; i < kSessions; ++i) {
    serve::SessionReport r = futs[static_cast<std::size_t>(i)].get();
    outcomes[r.outcome] += 1;

    // Universal teardown hygiene: whatever happened, the session's fabric
    // must drain to nothing.
    EXPECT_TRUE(r.hygieneClean) << r.name << ": post-drain state survived";

    switch (kinds[static_cast<std::size_t>(i)]) {
      case Crash:
        EXPECT_EQ(r.outcome, SessionOutcome::Crashed)
            << r.name << ": " << r.error;
        EXPECT_GE(r.faults.crashed, 1u) << r.name;
        break;
      case StepQuota:
        EXPECT_EQ(r.outcome, SessionOutcome::QuotaExceeded)
            << r.name << ": " << r.error;
        EXPECT_EQ(r.quotaResource, "steps") << r.name;
        break;
      case DropDeadlock:
        EXPECT_EQ(r.outcome, SessionOutcome::Deadlocked)
            << r.name << ": " << r.error;
        // The transient plan earned its bounded retries before giving up.
        EXPECT_EQ(r.attempts, sopts.retry.maxAttempts) << r.name;
        break;
      case MsgQuota:
        EXPECT_EQ(r.outcome, SessionOutcome::QuotaExceeded)
            << r.name << ": " << r.error;
        EXPECT_EQ(r.quotaResource, "messages") << r.name;
        break;
      case Healthy: {
        ASSERT_EQ(r.outcome, SessionOutcome::Completed)
            << r.name << ": " << r.error;
        EXPECT_EQ(r.attempts, 1) << r.name;
        const std::uint64_t want = (i % 2 == 0) ? soloJacobi.resultDigest
                                                : soloVecadd.resultDigest;
        // Bit-identical to the solo run despite the chaos around it.
        EXPECT_EQ(r.resultDigest, want) << r.name;
        // A healthy session's drain reclaims nothing — there was nothing
        // left to reclaim.
        EXPECT_EQ(r.drained.leaked(), 0u) << r.name;
        break;
      }
    }
  }

  // The server survived the whole population and leaked nothing.
  EXPECT_EQ(server.endpointsInUse(), 0);
  EXPECT_EQ(server.pendingSessions(), 0);
  serve::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(st.completed + st.failed, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(st.rejected, 0u);

  // The mix really was hostile: >= 25% of sessions died by design.
  const int hostile = kSessions - outcomes[SessionOutcome::Completed];
  EXPECT_GE(hostile * 4, kSessions);
  EXPECT_GT(outcomes[SessionOutcome::Crashed], 0);
  EXPECT_GT(outcomes[SessionOutcome::Deadlocked], 0);
  EXPECT_GT(outcomes[SessionOutcome::QuotaExceeded], 0);
}

TEST(ServeChaos, AdmissionControlSheds) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.maxPending = 2;
  cfg.session = chaosOptions();
  serve::Server server(cfg);

  serve::SessionRequest req;
  req.source = kJacobi;

  int shed = 0;
  std::vector<std::future<serve::SessionReport>> futs;
  for (int i = 0; i < 32; ++i) {
    req.name = "burst#" + std::to_string(i);
    try {
      futs.push_back(server.submit(req));
    } catch (const serve::AdmissionRejected&) {
      ++shed;
    }
  }
  // One worker against a 32-burst with a 2-deep queue must shed.
  EXPECT_GT(shed, 0);

  // Everything admitted still completes; nothing shed was half-queued.
  for (auto& f : futs) {
    serve::SessionReport r = f.get();
    EXPECT_EQ(r.outcome, SessionOutcome::Completed) << r.error;
  }
  serve::ServerStats st = server.stats();
  EXPECT_EQ(st.rejected, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(st.admitted + st.rejected, 32u);
}

TEST(ServeChaos, WallClockQuotaCancelsSession) {
  serve::SessionRequest req;
  req.name = "wall";
  // Heavy enough that it cannot finish inside the budget.
  req.source = R"(
procs 2
array A f64 [1:8] (BLOCK)
fill(A[1:8])
do t = 1, 200000
  do i = 4 * mypid + 1, 4 * mypid + 4
    iown(A[i]) : { A[i] = A[i] + 1.0 }
  enddo
enddo
)";
  req.quotas.wallBudgetMs = 1;
  serve::SessionReport r = serve::runSession(req, chaosOptions());
  EXPECT_EQ(r.outcome, SessionOutcome::QuotaExceeded) << r.error;
  EXPECT_EQ(r.quotaResource, "wall-time");
  EXPECT_TRUE(r.hygieneClean);
}

TEST(ServeChaos, MemoryQuotaCancelsSession) {
  serve::SessionRequest req;
  req.name = "mem";
  req.source = kRunaway;
  // Each runaway processor holds 4 doubles = 32 resident bytes from the
  // first fill; a 16-byte cap breaches at the first residency sample.
  req.quotas.maxResidentBytes = 16;
  serve::SessionReport r = serve::runSession(req, chaosOptions());
  EXPECT_EQ(r.outcome, SessionOutcome::QuotaExceeded) << r.error;
  EXPECT_EQ(r.quotaResource, "memory");
  EXPECT_TRUE(r.hygieneClean);
}

TEST(ServeChaos, RetryAbsorbsTransientDrops) {
  serve::SessionRequest solo;
  solo.name = "jacobi-solo";
  solo.source = kJacobi;
  serve::SessionOptions sopts = chaosOptions();
  sopts.retry.maxAttempts = 6;
  serve::SessionReport ref = serve::runSession(solo, sopts);
  ASSERT_EQ(ref.outcome, SessionOutcome::Completed) << ref.error;

  // A mildly lossy plan: some attempts deadlock, a reseeded retry gets
  // a fault stream that happens to let the session through.
  int completed = 0;
  int retried = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    serve::SessionRequest req = solo;
    req.name = "lossy#" + std::to_string(seed);
    net::FaultPlan plan;
    plan.seed = seed;
    plan.dropProb = 0.10;
    req.faultPlan = plan;
    serve::SessionReport r = serve::runSession(req, sopts);
    EXPECT_TRUE(r.hygieneClean) << r.name;
    if (r.outcome == SessionOutcome::Completed) {
      ++completed;
      if (r.attempts > 1) ++retried;
      // A retried completion is still bit-identical: drops either killed
      // an attempt or touched nothing.
      EXPECT_EQ(r.resultDigest, ref.resultDigest) << r.name;
    }
  }
  // With 10% drop over 18 messages and 6 attempts, completions dominate.
  EXPECT_GE(completed, 4);
  // And at least one of them needed the retry path to get there.
  EXPECT_GE(retried, 1);
}

TEST(ServeChaos, RejectionOutcomesNeverExecute) {
  serve::SessionOptions sopts = chaosOptions();

  serve::SessionRequest bad;
  bad.name = "unparseable";
  bad.source = "procs 2\nthis is not a program\n";
  serve::SessionReport r1 = serve::runSession(bad, sopts);
  EXPECT_EQ(r1.outcome, SessionOutcome::RejectedParse);
  EXPECT_FALSE(r1.error.empty());
  EXPECT_EQ(r1.stats.stmtsExecuted, 0u);

  // Statically wrong: p0 receives a value nobody sends. The --analyze
  // gate rejects it before it can run (and deadlock).
  serve::SessionRequest orphan;
  orphan.name = "orphan-recv";
  orphan.source = R"(
procs 2
array A f64 [1:8] (BLOCK)
fill(A[1:8])
(mypid == 0) : { A[1] <- A[5] }
(mypid == 0) : { await(A[1]) }
)";
  serve::SessionReport r2 = serve::runSession(orphan, sopts);
  EXPECT_EQ(r2.outcome, SessionOutcome::RejectedAnalysis);
  EXPECT_FALSE(r2.error.empty());
  EXPECT_EQ(r2.stats.stmtsExecuted, 0u);

  // The same program with the gate off runs and is *contained* as a
  // session deadlock instead — graceful degradation both ways.
  orphan.analyze = false;
  serve::SessionReport r3 = serve::runSession(orphan, sopts);
  EXPECT_EQ(r3.outcome, SessionOutcome::Deadlocked) << r3.error;
  EXPECT_TRUE(r3.hygieneClean);
}

TEST(ServeChaos, CrashRecoverMixMatchesFaultFree) {
  // Fail-recover chaos: half the population gets an endpoint that dies
  // mid-run and restores from its last snapshot. Every session — faulted
  // or not — must complete bit-identical to the fault-free solo run, and
  // the arena must drain back to zero.
  const serve::SessionOptions sopts = chaosOptions();

  serve::SessionRequest ref;
  ref.name = "jacobi-ref";
  ref.source = kJacobi;
  serve::SessionReport solo = serve::runSession(ref, sopts);
  ASSERT_EQ(solo.outcome, SessionOutcome::Completed) << solo.error;
  ASSERT_NE(solo.resultDigest, 0u);

  const int kSessions = 48;
  serve::ServerConfig cfg;
  cfg.workers = 8;
  cfg.maxPending = kSessions + 8;
  cfg.session = sopts;
  serve::Server server(cfg);

  std::vector<std::future<serve::SessionReport>> futs;
  for (int i = 0; i < kSessions; ++i) {
    serve::SessionRequest req = ref;
    const bool faulted = i % 2 == 0;
    req.name = (faulted ? "recover#" : "healthy#") + std::to_string(i);
    req.checkpointIntervalSteps = 16;
    if (faulted) {
      net::FaultPlan plan;
      plan.seed = 3000 + static_cast<std::uint64_t>(i);
      plan.crashPids = {1 + i % 3};  // every jacobi pid in 1..3 sends,
                                     // so the crash is guaranteed to fire
      plan.crashAfterSends = static_cast<std::uint64_t>(i % 3);
      plan.crashFate = net::CrashFate::Recover;
      req.faultPlan = plan;
    }
    futs.push_back(server.submit(std::move(req)));
  }

  for (int i = 0; i < kSessions; ++i) {
    serve::SessionReport r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.outcome, SessionOutcome::Completed)
        << r.name << ": " << r.error;
    // Digest parity: recovery replays to the exact fault-free result.
    EXPECT_EQ(r.resultDigest, solo.resultDigest) << r.name;
    EXPECT_TRUE(r.hygieneClean) << r.name;
    EXPECT_GE(r.recovery.snapshots, 1u) << r.name;  // genesis at least
    if (i % 2 == 0) {
      EXPECT_GE(r.recovery.recoveries, 1u)
          << r.name << ": crash never triggered";
      EXPECT_GE(r.faults.recovered, 1u) << r.name;
    } else {
      EXPECT_EQ(r.recovery.recoveries, 0u) << r.name;
    }
  }

  EXPECT_EQ(server.endpointsInUse(), 0);
  EXPECT_EQ(server.pendingSessions(), 0);
}

TEST(ServeChaos, PreemptSpillResumeRoundTrip) {
  const std::string dir = scratchDir("preempt");
  serve::SessionOptions sopts = chaosOptions();
  sopts.spillDir = dir;

  serve::SessionRequest ref;
  ref.name = "jacobi";
  ref.source = kJacobi;
  serve::SessionReport solo = serve::runSession(ref, sopts);
  ASSERT_EQ(solo.outcome, SessionOutcome::Completed) << solo.error;

  // Preempt mid-run: the session checkpoints, spills, and unwinds.
  serve::SessionRequest req = ref;
  req.preemptAfterSteps = 30;
  serve::SessionReport pre = serve::runSession(req, sopts, 7);
  ASSERT_EQ(pre.outcome, SessionOutcome::Preempted) << pre.error;
  ASSERT_FALSE(pre.recovery.spillPath.empty());
  EXPECT_TRUE(std::filesystem::exists(pre.recovery.spillPath));
  EXPECT_TRUE(pre.hygieneClean);
  EXPECT_EQ(pre.resultDigest, 0u);  // no result yet

  // The spill round-trips through its reader.
  serve::SpillFile sp = serve::readSpillFile(pre.recovery.spillPath);
  EXPECT_EQ(sp.name, req.name);
  EXPECT_EQ(sp.source, req.source);
  EXPECT_FALSE(sp.snapshot.empty());

  // Resume in a fresh session: completes bit-identical to the
  // uninterrupted run and consumes the spill file.
  serve::SessionRequest resume = ref;
  resume.preemptAfterSteps = 0;
  resume.resumeFrom = pre.recovery.spillPath;
  serve::SessionReport post = serve::runSession(resume, sopts, 8);
  ASSERT_EQ(post.outcome, SessionOutcome::Completed) << post.error;
  EXPECT_TRUE(post.recovery.resumed);
  EXPECT_EQ(post.resultDigest, solo.resultDigest);
  EXPECT_FALSE(std::filesystem::exists(pre.recovery.spillPath));
}

TEST(ServeChaos, ServerReadmitsSpilledSessions) {
  const std::string dir = scratchDir("readmit");
  serve::SessionOptions sopts = chaosOptions();
  sopts.spillDir = dir;

  serve::SessionRequest ref;
  ref.name = "jacobi";
  ref.source = kJacobi;
  serve::SessionReport solo = serve::runSession(ref, sopts);
  ASSERT_EQ(solo.outcome, SessionOutcome::Completed) << solo.error;

  // Server 1 preempts the session and is then torn down — the moral
  // equivalent of killing it mid-job.
  {
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.session = sopts;
    serve::Server server(cfg);
    serve::SessionRequest req = ref;
    req.preemptAfterSteps = 30;
    serve::SessionReport r = server.submit(std::move(req)).get();
    ASSERT_EQ(r.outcome, SessionOutcome::Preempted) << r.error;
    ASSERT_FALSE(r.recovery.spillPath.empty());
  }
  ASSERT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);

  // Server 2 finds the spill at startup and runs it to completion.
  {
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.session = sopts;
    serve::Server server(cfg);
    EXPECT_EQ(server.readmitSpilled(dir), 1);
    server.shutdown();  // runs everything queued
    serve::ServerStats st = server.stats();
    EXPECT_EQ(st.readmitted, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 0u);
  }
  // The resumed completion consumed the spill; a third sweep is a no-op.
  serve::ServerConfig cfg;
  cfg.session = sopts;
  serve::Server server(cfg);
  EXPECT_EQ(server.readmitSpilled(dir), 0);
}

TEST(ServeChaos, CorruptSpillsAreSkippedNotAdmitted) {
  const std::string dir = scratchDir("corrupt");
  serve::SessionOptions sopts = chaosOptions();
  sopts.spillDir = dir;

  // A valid spill, then a bit flip in the middle.
  serve::SessionRequest req;
  req.name = "jacobi";
  req.source = kJacobi;
  req.preemptAfterSteps = 30;
  serve::SessionReport pre = serve::runSession(req, sopts, 3);
  ASSERT_EQ(pre.outcome, SessionOutcome::Preempted) << pre.error;
  const std::string good = pre.recovery.spillPath;
  {
    std::fstream f(good, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char c = 0;
    f.seekg(64);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x20);
    f.seekp(64);
    f.write(&c, 1);
  }
  EXPECT_THROW(serve::readSpillFile(good), ckpt::CkptError);

  // Plus outright garbage and a truncated file.
  std::ofstream(dir + "/garbage-1.xdpspill") << "not a spill";
  std::ofstream(dir + "/empty-2.xdpspill");

  serve::ServerConfig cfg;
  cfg.session = sopts;
  serve::Server server(cfg);
  EXPECT_EQ(server.readmitSpilled(dir), 0);
  EXPECT_EQ(server.stats().readmitted, 0u);
  // Skipped spills stay on disk for inspection; nothing was deleted.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            3);
}

TEST(ServeChaos, StopLatchInterruptsRetryBackoff) {
  // A tripped latch turns a 60-second backoff into an immediate return,
  // so server shutdown is never stuck behind sleeping retries.
  serve::StopLatch latch;
  latch.stop();
  EXPECT_TRUE(latch.stopped());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(latch.waitFor(60000));
  serve::SessionOptions sopts = chaosOptions();
  sopts.retry.maxAttempts = 3;
  sopts.retry.backoffBaseMs = 60000;
  sopts.retry.backoffCapMs = 60000;
  sopts.stopLatch = &latch;

  serve::SessionRequest req;
  req.name = "dropall";
  req.source = kJacobi;
  net::FaultPlan plan;
  plan.dropProb = 1.0;  // every attempt deadlocks; retry must back off
  req.faultPlan = plan;
  serve::SessionReport r = serve::runSession(req, sopts);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(r.outcome, SessionOutcome::Deadlocked) << r.error;
  EXPECT_EQ(r.attempts, 3);
  // Two backoffs of nominally 60 s each collapsed through the latch; the
  // bound is generous but far under one sleep.
  EXPECT_LT(elapsed.count(), 30000) << "backoff ignored the stop latch";
}
